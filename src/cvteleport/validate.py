"""Self-validation suite: cross-checks between independent computations.

Each check holds one computation against another that shares none of its
code: the Fock oracle against the Gaussian fidelity formula, the classical
and no-cloning limits and its own doubled grid; the teleporter circuit
against the analytic budget; the waveguide closed form against its segment
model. Invariants of one module are tier-1 tests, not checks here.

Each check raises AssertionError with a diagnostic on failure; the runner
collects results under ``module:check`` names. ``quick`` trims the Fock
dimension to 15 and the oracle to 16 Gauss-Hermite nodes per axis; ``full``
runs the fidelity cross-grid at dim 25 with 20 x 20 nodes.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import fock
from .gaussian import (
    GaussianState,
    coherent_vs_gaussian_fidelity,
    make_vacuum,
    quad_statistics,
)
from .opa import WaveguideSpec, distributed_psa_equivalent
from .teleporter import (
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    fidelity_from_variances,
    run_teleport,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _segmented_map(gain_db, loss_db, n):
    """Affine map v -> A v + B of the amplified-quadrature variance through
    ``n`` interleaved segments (power gain h, transmission eta, gain h), whose
    n -> infinity limit :func:`distributed_psa_equivalent` gives. A segment maps
    v -> r v + c, r = h^2 eta, c = h (1 - eta), so A = r^n and B = c (r^n - 1)
    / (r - 1), or n c at r = 1; log r, h and 1 - eta come from the dB values."""
    nep = np.log(10.0) / (10.0 * n)  # nepers of power per dB and segment
    log_r = (gain_db - loss_db) * nep
    c = -np.exp(0.5 * gain_db * nep) * np.expm1(-loss_db * nep)
    b = c * np.expm1(n * log_r) / np.expm1(log_r) if log_r != 0.0 else n * c
    return np.exp(n * log_r), b


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


@functools.cache
def _vacuum_channel(dim, noise, grid):
    """The vacuum through isotropic displacement noise ``noise`` per
    quadrature. fock:classical-limit and fock:fidelity-grid need the same
    channels, so each is built once per :func:`run_validation`, which empties
    this memo when it starts."""
    return fock.classical_noise_channel(fock.coherent_density(0.0, dim),
                                        noise * np.eye(2), grid_points=grid)


def check_fock_classical_limit(level):
    dim, grid, tol = _oracle_setup(level)
    f = fock.oracle_fidelity(_vacuum_channel(dim, 2.0, grid), 0.0)
    assert abs(f - 0.5) < tol, f"classical-limit channel gives {f}"
    f = fock.oracle_fidelity(_vacuum_channel(dim, 1.0, grid), 0.0)
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
        out = _vacuum_channel(dim, v - 1.0, grid)
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
    ("opa:equivalence", check_opa_equivalence),
    ("teleporter:circuit-vs-analytic", check_teleporter_circuit_vs_analytic),
    ("teleporter:classical-baseline", check_teleporter_classical_baseline),
    ("fock:coherent-overlap", check_fock_coherent_overlap),
    ("fock:classical-limit", check_fock_classical_limit),
    ("fock:channel-sanity", check_fock_channel_sanity),
    ("fock:fidelity-grid", check_fock_fidelity_grid),
    ("fock:grid-convergence", check_fock_grid_convergence),
]


def run_validation(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    _vacuum_channel.cache_clear()
    results = []
    for name, func in CHECKS:
        start = time.perf_counter()
        try:
            func(level)
            passed, detail = True, "ok"
        except AssertionError as exc:
            passed, detail = False, str(exc)
        except Exception as exc:  # a check that raises fails; the rest still run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail,
                                   time.perf_counter() - start))
    return results
