"""Self-validation suite: Fock-oracle cross-checks and module invariants.

Each check is a named callable that raises AssertionError with a diagnostic
on failure; the runner collects results under ``module:invariant``
identifiers. The ``quick`` level trims the Fock-space dimension to 15 and
the oracle to 16 Gauss-Hermite nodes per axis to stay interactive; ``full``
runs the complete fidelity cross-grid at dim 25 with the default oracle
resolution of 20 x 20 nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fock
from .gaussian import (
    GaussianState,
    QuadAxis,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    coherent_vs_gaussian_fidelity,
    make_vacuum,
    min_uncertainty_eigenvalue,
    phase_rotation,
    psa_transform,
    quad_statistics,
    squeezer,
    symplectic_form,
)
from .opa import WaveguideSpec, distributed_psa_equivalent
from .teleporter import (
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    fidelity_from_variances,
    intrinsic_from_raw,
    run_teleport,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _random_symplectics(rng, n_modes=2, count=20):
    for _ in range(count):
        kind = rng.integers(0, 4)
        mode = int(rng.integers(0, n_modes))
        if kind == 0:
            yield squeezer(n_modes, mode, float(rng.uniform(0, 12)),
                           rng.choice([QuadAxis.X, QuadAxis.P]))
        elif kind == 1:
            other = int((mode + 1 + rng.integers(0, n_modes - 1)) % n_modes)
            yield beamsplitter(n_modes, mode, other, float(rng.uniform(0, 1)))
        elif kind == 2:
            yield psa_transform(n_modes, mode, rng.choice([QuadAxis.X, QuadAxis.P]),
                                float(rng.uniform(-20, 20)))
        else:
            yield phase_rotation(n_modes, mode, float(rng.uniform(0, 2 * np.pi)))


def check_gaussian_symplectic_form(level):
    rng = np.random.default_rng(101)
    omega = symplectic_form(2)
    for s in _random_symplectics(rng, 2, 50):
        err = np.max(np.abs(s.matrix @ omega @ s.matrix.T - omega))
        assert err < 1e-10, f"S Omega S^T deviates by {err:.2e} ({s.label})"


def check_gaussian_identity_ops(level):
    rng = np.random.default_rng(102)
    state = make_vacuum(2)
    for s in _random_symplectics(rng, 2, 8):
        state = apply_symplectic(state, s)
    ident = apply_loss(state, 0, 1.0)
    assert np.allclose(ident.cov, state.cov, atol=0) and \
        np.allclose(ident.mean, state.mean, atol=0), "loss(eta=1) not identity"
    ident = apply_symplectic(state, psa_transform(2, 1, QuadAxis.X, 0.0))
    assert np.array_equal(ident.cov, state.cov), "psa(0 dB) not identity"


def check_gaussian_uncertainty(level):
    rng = np.random.default_rng(103)
    for trial in range(10):
        state = make_vacuum(2)
        for s in _random_symplectics(rng, 2, 6):
            state = apply_symplectic(state, s)
            state = apply_loss(state, int(rng.integers(0, 2)),
                               float(rng.uniform(0.05, 1.0)))
        floor = min_uncertainty_eigenvalue(state)
        assert floor >= -1e-9, f"uncertainty violated: min eig {floor:.2e}"


def check_gaussian_fidelity_bounds(level):
    rng = np.random.default_rng(104)
    for _ in range(30):
        vx = rng.uniform(0.2, 5.0)
        vp = max(1.0 / vx, rng.uniform(0.2, 5.0))  # keep the state physical
        mean = rng.normal(0, 2, size=2)
        state = GaussianState(1, mean, np.diag([vx, vp]))
        f = coherent_vs_gaussian_fidelity(rng.normal(0, 2, size=2), state)
        assert 0.0 < f <= 1.0 + 1e-12, f"fidelity {f} outside (0, 1]"
    pure = GaussianState(1, np.array([0.3, -1.2]), np.eye(2))
    f = coherent_vs_gaussian_fidelity([0.3, -1.2], pure)
    assert abs(f - 1.0) < 1e-12, "matched pure coherent state should give F=1"


def _segmented_map(gain_db, loss_db, n):
    """Affine map v -> A v + B of the amplified-quadrature variance through
    ``n`` interleaved segments (half gain, loss, half gain): the discrete
    model whose n -> infinity limit :func:`distributed_psa_equivalent` gives."""
    half = 10.0 ** (gain_db / (20.0 * n))  # power gain of a half step
    eta_seg = 10.0 ** (-loss_db / (10.0 * n))
    a, b = 1.0, 0.0
    for _ in range(n):
        a *= half; b *= half
        a *= eta_seg; b = eta_seg * b + (1.0 - eta_seg)
        a *= half; b *= half
    return a, b


def check_opa_equivalence(level):
    rng = np.random.default_rng(105)
    for _ in range(10):
        gain_db, loss_db = float(rng.uniform(0, 35)), float(rng.uniform(0, 3))
        g_total, eta_eff = distributed_psa_equivalent(
            WaveguideSpec(gain_db, loss_db))
        gaps = []
        for n in (512, 1024):
            a, b = _segmented_map(gain_db, loss_db, n)
            gaps.append(abs(eta_eff - a / (a + b)))
        assert abs(g_total ** 2 - a) <= 1e-9 * a, "gain mismatch"
        assert gaps[1] <= 1e-6, \
            f"eta_eff off the 1024-segment map by {gaps[1]:.2e}"
        assert gaps[1] <= 0.3 * gaps[0] or max(gaps) < 1e-14, \
            f"segment gap not second order: {gaps[0]:.2e} -> {gaps[1]:.2e}"


def check_opa_monotonicity(level):
    losses = [0.1, 0.36, 1.0]
    gains = [5.0, 15.0, 25.0, 30.0]
    for loss in losses:
        etas = [distributed_psa_equivalent(WaveguideSpec(g, loss))[1]
                for g in gains]
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:])), \
            f"eta_eff not monotone in gain at loss {loss}"
    for gain in gains:
        etas = [distributed_psa_equivalent(WaveguideSpec(gain, lo))[1]
                for lo in losses]
        assert all(b <= a + 1e-12 for a, b in zip(etas, etas[1:])), \
            f"eta_eff not monotone in loss at gain {gain}"


def check_teleporter_circuit_vs_analytic(level):
    # 10 random configs, (n_sq, eta_bell, eta_meas) per row, as one batch
    params = np.random.default_rng(106).uniform(0.1, 1.0, size=(10, 3))
    cfg = TeleporterConfig(*params.T, 60.0)
    ref = analytic_noise_budget(cfg).n_out
    _, _, vx, vp = quad_statistics(run_teleport(cfg, make_vacuum(1)), 0)
    err = np.max(np.maximum(abs(vx - ref), abs(vp - ref)) / ref)
    assert err < 1e-3, f"circuit deviates from budget by {err:.2e}"


def check_teleporter_classical_baseline(level):
    cfg = TeleporterConfig(1.0, 0.9, 0.9, 60.0, regime=Regime.CLASSICAL)
    budget = analytic_noise_budget(cfg)
    assert abs(budget.n_out - 3.0) < 1e-12, "classical budget must be 3.0"
    assert abs(fidelity_from_variances(3.0, 3.0) - 0.5) < 1e-15
    assert abs(fidelity_from_variances(2.0, 2.0) - 2.0 / 3.0) < 1e-15


def check_teleporter_intrinsic_roundtrip(level):
    rng = np.random.default_rng(107)
    for _ in range(50):
        v = float(rng.uniform(0.2, 6.0))
        eta = float(rng.uniform(0.05, 1.0))
        lossy = eta * v + (1 - eta)
        assert abs(intrinsic_from_raw(lossy, eta) - v) < 1e-12, \
            "intrinsic_from_raw does not invert the loss channel"


def check_fock_coherent_overlap(level):
    dim = 15 if level == "quick" else 25
    rng = np.random.default_rng(108)
    for _ in range(5):
        alpha = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        beta = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        rho = fock.coherent_density(alpha, dim)
        overlap = fock.oracle_fidelity(rho, beta)
        expected = np.exp(-abs(alpha - beta) ** 2)
        assert abs(overlap - expected) < 1e-9, "coherent overlap mismatch"
        gauss = GaussianState(1, np.array([2 * alpha.real, 2 * alpha.imag]),
                              np.eye(2))
        formula = coherent_vs_gaussian_fidelity([2 * beta.real, 2 * beta.imag],
                                                gauss)
        assert abs(overlap - formula) < 1e-9, "oracle vs Gaussian formula mismatch"


def _oracle_setup(level):
    """Fock dimension, Gauss-Hermite nodes per axis and oracle tolerance."""
    if level == "quick":
        return 15, 16, 1e-6
    return 25, fock.DEFAULT_GRID_POINTS, 1e-8


def check_fock_classical_limit(level):
    dim, grid, tol = _oracle_setup(level)
    f = fock.teleported_coherent_oracle(0.0, 2.0, dim=dim, grid_points=grid)
    assert abs(f - 0.5) < tol, f"classical-limit channel gives {f}"
    f = fock.teleported_coherent_oracle(0.0, 1.0, dim=dim, grid_points=grid)
    assert abs(f - 2.0 / 3.0) < tol, f"no-cloning channel gives {f}"


def check_fock_channel_sanity(level):
    dim, grid, _ = _oracle_setup(level)
    trace_tol = 1e-4 if level == "quick" else 1e-6
    rho = fock.coherent_density(0.4 + 0.2j, dim)
    out = fock.classical_noise_channel(rho, np.diag([1.5, 0.8]), grid_points=grid)
    assert abs(out.trace - 1.0) < trace_tol, f"trace drifted to {out.trace}"
    assert out.min_eigenvalue() > -1e-9, "channel output not PSD"


def check_fock_fidelity_grid(level):
    dim, grid, tol = _oracle_setup(level)
    variances = [2.0] if level == "quick" else [1.2, 2.0, 3.0]
    offsets = [0.5] if level == "quick" else [0.0, 0.5, 1.0]
    for v in variances:
        rho = fock.coherent_density(0.0, dim)
        out = fock.classical_noise_channel(rho, (v - 1.0) * np.eye(2),
                                           grid_points=grid)
        state = GaussianState(1, np.zeros(2), v * np.eye(2))
        for dx in offsets:
            target_alpha = dx / 2.0  # quadrature offset dx -> alpha = dx/2
            oracle = fock.oracle_fidelity(out, target_alpha)
            formula = coherent_vs_gaussian_fidelity([dx, 0.0], state)
            assert abs(oracle - formula) < tol, \
                f"V={v}, dx={dx}: oracle {oracle:.12f} vs formula {formula:.12f}"


def check_fock_grid_convergence(level):
    dim, grid, tol = _oracle_setup(level)
    rho = fock.coherent_density(0.25, dim)
    coarse = fock.classical_noise_channel(rho, 1.2 * np.eye(2), grid_points=grid)
    fine = fock.classical_noise_channel(rho, 1.2 * np.eye(2),
                                        grid_points=2 * grid)
    delta = np.max(np.abs(coarse.matrix - fine.matrix))
    assert delta < tol, f"doubling the nodes moves the channel output by {delta:.2e}"


CHECKS = [
    ("gaussian:symplectic-form", check_gaussian_symplectic_form),
    ("gaussian:identity-ops", check_gaussian_identity_ops),
    ("gaussian:uncertainty", check_gaussian_uncertainty),
    ("gaussian:fidelity-bounds", check_gaussian_fidelity_bounds),
    ("opa:equivalence", check_opa_equivalence),
    ("opa:monotonicity", check_opa_monotonicity),
    ("teleporter:circuit-vs-analytic", check_teleporter_circuit_vs_analytic),
    ("teleporter:classical-baseline", check_teleporter_classical_baseline),
    ("teleporter:intrinsic-roundtrip", check_teleporter_intrinsic_roundtrip),
    ("fock:coherent-overlap", check_fock_coherent_overlap),
    ("fock:classical-limit", check_fock_classical_limit),
    ("fock:channel-sanity", check_fock_channel_sanity),
    ("fock:fidelity-grid", check_fock_fidelity_grid),
    ("fock:grid-convergence", check_fock_grid_convergence),
]


def run_validation(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = []
    for name, func in CHECKS:
        start = time.perf_counter()
        try:
            func(level)
            results.append(CheckResult(name, True, "ok",
                                       time.perf_counter() - start))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc),
                                       time.perf_counter() - start))
    return results
