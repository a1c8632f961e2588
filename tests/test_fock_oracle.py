"""Tests for the truncated Fock-space oracle and its cross-checks against
the Gaussian engine's fidelity arithmetic."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, genlaguerre

from cvteleport import fock
from cvteleport.fock import (
    CHANNEL_PIECE,
    FockDensityMatrix,
    TruncationError,
    _gaussian_grid,
    _hermite_rule,
    _laguerre_triangle,
    _log_factorials,
    _triangle,
    classical_noise_channel,
    coherent_amplitudes,
    coherent_density,
    displacement_matrices,
    oracle_fidelity,
    teleported_coherent_oracle,
)
from cvteleport.gaussian import (
    GaussianState,
    coherent_vs_gaussian_fidelity,
)
from cvteleport.teleporter import TeleporterConfig, run_teleport
from cvteleport.validate import run_validation
from cvteleport.gaussian import coherent_state

DIM = 15
GRID = 41


class TestCoherentDensity:
    def test_vacuum_projector(self):
        rho = coherent_density(0.0, 10)
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_trace_deficit_tiny(self):
        rho = coherent_density(0.5, 20)
        assert 1.0 - rho.trace < 1e-12

    def test_mean_photon_number(self):
        alpha = 0.6 - 0.3j
        rho = coherent_density(alpha, 25)
        n_op = np.diag(np.arange(25.0))
        nbar = float(np.real(np.trace(n_op @ rho.matrix)))
        assert nbar == pytest.approx(abs(alpha) ** 2, abs=1e-10)

    def test_truncation_rejected(self):
        with pytest.raises(TruncationError):
            coherent_density(3.0, 8)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf,
                                       complex(0.3, np.nan), complex(0.0, np.inf)])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            coherent_density(alpha, 5)

    def test_log_factorials_match_scipy(self):
        # the oracle's own table against scipy's independent gammaln
        assert np.allclose(_log_factorials(400), gammaln(np.arange(400) + 1),
                           rtol=1e-15, atol=0.0)


def _laguerre_table_per_k(x, dim):
    # the recurrence run once per k, as a loop over k and n
    table = np.ones((dim, dim) + x.shape)
    for k in range(dim):
        if dim > 1:
            table[k, 1] = 1.0 + k - x
        for n in range(1, dim - 1):
            table[k, n + 1] = ((2 * n + 1 + k - x) * table[k, n]
                               - (n + k) * table[k, n - 1]) / (n + 1)
    return table


def _packed(table, dim):
    # the [k, n] entries with k + n < dim, all a dim x dim operator reads,
    # column n after column n - 1: row start[n] + k holds [k, n]
    return np.concatenate([table[:dim - n, n] for n in range(dim)])


def _displacement_matrices_per_k(betas, dim):
    # the operators built one diagonal k = m - n at a time
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    a2 = np.abs(betas) ** 2
    lag = _laguerre_triangle(a2, dim, dim)
    start = np.concatenate([[0], np.cumsum(np.arange(dim, 0, -1))])
    env = np.exp(-0.5 * a2)
    log_fact = _log_factorials(dim)
    out = np.zeros((betas.size, dim, dim), dtype=complex)
    bpow = np.ones_like(betas)
    bneg = np.ones_like(betas)
    for k in range(dim):
        n = np.arange(dim - k)
        ratio = np.exp(0.5 * (log_fact[n] - log_fact[n + k]))
        block = ratio[None, :] * env[:, None] * lag[start[n] + k].T
        out[:, n + k, n] = block * bpow[:, None]
        if k > 0:
            out[:, n, n + k] = block * bneg[:, None]
        bpow = bpow * betas
        bneg = bneg * (-np.conj(betas))
    return out


class TestDisplacementMatrix:
    @pytest.mark.parametrize("dim", [1, 2, 12, 25])
    def test_matches_per_k_loop(self, dim):
        rng = np.random.default_rng(dim)
        betas = np.concatenate([[0.0], rng.normal(0.0, 1.5, 1860)
                                + 1j * rng.normal(0.0, 1.5, 1860)])
        assert np.array_equal(displacement_matrices(betas, dim),
                              _displacement_matrices_per_k(betas, dim))

    @pytest.mark.parametrize("nodes", [400, 1600, 3721])
    def test_laguerre_table_matches_per_k_loop(self, nodes):
        x = np.random.default_rng(nodes).uniform(0.0, 6.0, nodes)
        assert np.array_equal(_laguerre_triangle(x, 25, 25),
                              _packed(_laguerre_table_per_k(x, 25), 25))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_laguerre_table_small_dims(self, dim):
        x = np.array([0.0, 0.3, 2.5])
        assert np.array_equal(_laguerre_triangle(x, dim, dim),
                              _packed(_laguerre_table_per_k(x, dim), dim))

    @pytest.mark.parametrize("dim", [1, 2, 25])
    def test_fresh_c_contiguous_stack(self, dim):
        betas = np.array([0.3 - 0.2j, -1.1j, 0.0])
        first = displacement_matrices(betas, dim)
        second = displacement_matrices(betas, dim)
        assert first.shape == (3, dim, dim) and first.flags.c_contiguous
        assert first.flags.owndata and first.flags.writeable
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_cached_constants_read_only(self):
        start, *arrays = _triangle(6)
        assert start == (0, 6, 11, 15, 18, 20, 21)
        for a in (*arrays, _hermite_rule(5), *_hermite_rule(5)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        assert _triangle(6) is _triangle(6) and _hermite_rule(5) is _hermite_rule(5)

    def test_identity_at_zero(self):
        assert np.allclose(displacement_matrices([0.0], 12)[0], np.eye(12),
                           atol=1e-14)

    def test_matches_laguerre_reference(self):
        # independent spot check against scipy's generalized Laguerre
        # polynomials, element by element
        beta = 0.7 - 0.4j
        a2 = abs(beta) ** 2
        d = displacement_matrices([beta], 10)[0]
        for n in range(6):
            for m in range(n, 6):
                k = m - n
                ref = (math.sqrt(math.factorial(n) / math.factorial(m))
                       * beta ** k * math.exp(-a2 / 2) * genlaguerre(n, k)(a2))
                assert d[m, n] == pytest.approx(ref, abs=1e-12)

    def test_unitary_far_from_truncation(self):
        d = displacement_matrices([0.6 + 0.2j], 30)[0]
        block = (d.conj().T @ d)[:12, :12]
        assert np.allclose(block, np.eye(12), atol=1e-8)

    def test_mirror_is_exact_sign_flip(self):
        # D(-beta)_mn = (-1)^(m-n) D(beta)_mn, bit for bit
        betas = np.concatenate([
            np.random.default_rng(11).normal(0.0, 1.5, 200)
            + 1j * np.random.default_rng(12).normal(0.0, 1.5, 200),
            [0.0, 0.7, -1.3j, 2.0 + 0.0j]])
        k = np.arange(25)
        sign = (-1.0) ** (k[:, None] - k[None, :])
        assert np.array_equal(displacement_matrices(-betas, 25),
                              sign * displacement_matrices(betas, 25))

    def test_conjugate_mirrors_are_exact(self):
        # D(beta*) = conj D(beta) and D(-beta*) = P conj D(beta) P, bit for
        # bit: the channel builds a quarter of an x-p grid from them
        betas = np.concatenate([
            np.random.default_rng(13).normal(0.0, 1.5, 200)
            + 1j * np.random.default_rng(14).normal(0.0, 1.5, 200),
            [0.0, 0.7, -1.3j, 2.0 + 0.0j]])
        k = np.arange(25)
        sign = (-1.0) ** (k[:, None] - k[None, :])
        d = displacement_matrices(betas, 25)
        assert np.array_equal(displacement_matrices(betas.conj(), 25), d.conj())
        assert np.array_equal(displacement_matrices(-betas.conj(), 25),
                              sign * d.conj())

    def test_displaces_vacuum_to_coherent(self):
        beta = 0.4 + 0.5j
        d = displacement_matrices([beta], 25)[0]
        vac = np.zeros(25)
        vac[0] = 1.0
        assert np.allclose(d @ vac, coherent_amplitudes(beta, 25), atol=1e-10)


class TestOracleFidelity:
    def test_self_overlap(self):
        rho = coherent_density(0.4 + 0.1j, 20)
        assert oracle_fidelity(rho, 0.4 + 0.1j) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_against_unit_photon_state(self):
        rho = coherent_density(0.0, 20)
        assert oracle_fidelity(rho, 1.0) == pytest.approx(math.exp(-1.0),
                                                          abs=1e-12)

    def test_target_truncation_guard(self):
        rho = coherent_density(0.0, 6)
        with pytest.raises(TruncationError):
            oracle_fidelity(rho, 2.5)

    @pytest.mark.parametrize("target", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_target_rejected(self, target):
        rho = coherent_density(0.0, 6)
        with pytest.raises(ValueError, match="finite"):
            oracle_fidelity(rho, target)


class TestNoiseChannel:
    def test_zero_noise_is_identity(self):
        rho = coherent_density(0.3, DIM)
        out = classical_noise_channel(rho, np.zeros((2, 2)), grid_points=GRID)
        assert out is rho

    def test_classical_limit(self):
        f = teleported_coherent_oracle(0.0, 2.0, dim=DIM, grid_points=GRID)
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_no_cloning_limit(self):
        f = teleported_coherent_oracle(0.0, 1.0, dim=DIM, grid_points=GRID)
        assert f == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_trace_and_psd_preserved(self):
        rho = coherent_density(0.4 + 0.2j, DIM)
        out = classical_noise_channel(rho, np.diag([1.3, 0.7]), grid_points=GRID)
        assert out.trace == pytest.approx(1.0, abs=1e-4)
        assert out.min_eigenvalue() > -1e-9

    def test_anisotropic_noise(self):
        # x-noise only: fidelity of vacuum against itself drops as
        # 2/sqrt((1+Vx)(1+Vp)) with Vx = 1 + added, Vp = 1
        added = 1.5
        rho = coherent_density(0.0, 20)
        out = classical_noise_channel(rho, np.diag([added, 0.0]),
                                      grid_points=61)
        state = GaussianState(1, np.zeros(2), np.diag([1 + added, 1.0]))
        expected = coherent_vs_gaussian_fidelity([0, 0], state)
        assert oracle_fidelity(out, 0.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("points", [0, -1])
    def test_node_count_validated(self, points):
        rho = coherent_density(0.0, 8)
        with pytest.raises(ValueError, match="grid_points"):
            classical_noise_channel(rho, np.eye(2), grid_points=points)

    # the teleporter adds its x and p noise independently: any nonzero
    # off-diagonal, however small, and any negative variance are refused
    @pytest.mark.parametrize("cov", [
        np.eye(3), np.ones(2), np.diag([1.0, -0.5]), np.diag([-1e-17, 1.0]),
        [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.3], [0.3, 1.0]],
        [[1.0, 0.3], [-0.3, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [1e-300, 1.0]], [[1.0, 1e-300], [0.0, 1.0]]])
    def test_bad_noise_cov_rejected(self, cov):
        rho = coherent_density(0.0, 8)
        with pytest.raises(ValueError, match="noise_cov"):
            classical_noise_channel(rho, cov)

    def test_negative_oracle_noise_rejected(self):
        with pytest.raises(ValueError, match="noise_cov"):
            teleported_coherent_oracle(0.0, -0.1, dim=8)

    @pytest.mark.parametrize("points", range(1, 129))
    def test_grid_mirrors_are_exact(self, points):
        # the channel relies on these mirrors without checking them: reversing
        # both axes gives -beta, reversing the p axis beta*, each node with
        # exactly its image's weight
        for variances in [(1.0, 1.0), (1.5, 0.8), (0.5, 0.9), (2.0, 0.0),
                          (0.0, 0.6)]:
            b, w = _gaussian_grid(variances, points)
            assert b.shape == w.shape == tuple(
                points if var > 0.0 else 1 for var in variances)
            assert np.array_equal(b[::-1, ::-1], -b)
            assert np.array_equal(b[:, ::-1], b.conj())
            assert np.array_equal(w[::-1], w) and np.array_equal(w[:, ::-1], w)
            assert np.all(w > 0.0)
            assert abs(np.sum(w) - 1.0) <= 1e-15

    def test_quadrature_reproduces_covariance(self):
        cov = np.diag([1.5, 0.8])
        b, w = _grid(cov, 3)
        pts = 2.0 * np.stack([b.real, b.imag])  # (dx, dp)
        assert np.allclose(pts @ w, 0.0, atol=1e-15)
        assert np.allclose((pts * w) @ pts.T, cov, rtol=0.0, atol=1e-14)

    def test_error_shrinks_with_node_count(self):
        # criterion-08 grid at dim 25: the oracle-vs-formula gap falls
        # strictly from 12 to 16 to 20 nodes per axis
        def worst_gap(points):
            worst = 0.0
            for v in (1.2, 2.0, 3.0):
                out = classical_noise_channel(coherent_density(0.0, 25),
                                              (v - 1.0) * np.eye(2),
                                              grid_points=points)
                state = GaussianState(1, np.zeros(2), v * np.eye(2))
                for dx in (0.0, 0.5, 1.0):
                    formula = coherent_vs_gaussian_fidelity([dx, 0.0], state)
                    worst = max(worst,
                                abs(oracle_fidelity(out, dx / 2.0) - formula))
            return worst

        gaps = [worst_gap(points) for points in (12, 16, 20)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 1e-9

    def test_grid_doubling_converged(self):
        rho = coherent_density(0.25, DIM)
        coarse = classical_noise_channel(rho, 1.2 * np.eye(2), grid_points=GRID)
        fine = classical_noise_channel(rho, 1.2 * np.eye(2),
                                       grid_points=2 * GRID - 1)
        assert np.max(np.abs(coarse.matrix - fine.matrix)) < 1e-12


def _factor(rho):
    # rho = K K^dag over the eigenvalues above the channel's rank cutoff
    lam, u = np.linalg.eigh(rho.matrix)
    keep = lam > np.max(np.abs(lam)) * rho.dim * np.finfo(float).eps
    return u[:, keep] * np.sqrt(lam[keep])


def _grid(cov, points):
    # every node of the channel's grid and its weight, in the grid's order
    b, w = _gaussian_grid(np.diag(np.asarray(cov, dtype=float)), points)
    return b.ravel(), w.ravel()


def _channel_all_nodes(rho, cov, points):
    # the factored channel as one accumulation over every node's own
    # operator, no mirrors and no pieces
    b, w = _grid(cov, points)
    # contiguous like the channel's operator buffer: matmul sums a strided
    # view in another order
    d = np.ascontiguousarray(displacement_matrices(b, rho.dim))
    factor = _factor(rho)
    v = (d @ factor).transpose(1, 0, 2).reshape(rho.dim, -1)
    acc = (v * np.repeat(w, factor.shape[1])) @ v.conj().T
    return 0.5 * (acc + acc.conj().T)


def _channel_two_sided(rho, cov, points):
    # the channel as the sum over nodes of w D rho D^dag, with no factor of rho
    b, w = _grid(cov, points)
    d = displacement_matrices(b, rho.dim)
    acc = np.einsum("p,pmk,plk->ml", w, d @ rho.matrix, d.conj(), optimize=True)
    return 0.5 * (acc + acc.conj().T)


def _mixed_states():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    full_rank = g @ g.conj().T
    rank_two = (0.7 * coherent_density(0.3 - 0.2j, 15).matrix
                + 0.3 * coherent_density(-0.5j, 15).matrix)
    thermal = 0.4 ** np.arange(15)  # nbar = 2/3
    return {
        "full-rank": FockDensityMatrix(12, full_rank / np.trace(full_rank)),
        "rank-2": FockDensityMatrix(15, rank_two),
        "thermal": FockDensityMatrix(15, np.diag(thermal / thermal.sum())),
    }


MIXED = _mixed_states()


SEVERAL_PIECES = (69, 70)  # points per axis of grids built in many pieces


def _record_pieces(monkeypatch):
    # node counts the channel hands to fock.displacement_matrices, per call
    pieces = []

    def recording(betas, dim):
        pieces.append(len(betas))
        return displacement_matrices(betas, dim)

    monkeypatch.setattr(fock, "displacement_matrices", recording)
    return pieces


class TestMirroredChannel:
    @pytest.mark.parametrize("alpha, dim, cov, points", [
        (0.0, 25, 0.2 * np.eye(2), 20),
        (0.0, 25, 2.0 * np.eye(2), 20),
        (0.4 + 0.2j, 25, np.diag([1.5, 0.8]), 20),
        (0.25, 25, 1.2 * np.eye(2), 40),
        (0.0, 15, np.eye(2), 16),
        (0.3 - 0.1j, 12, np.diag([1.5, 0.8]), 15),
        (0.0, 20, np.diag([1.5, 0.0]), 61),
        (0.2, 12, np.diag([0.9, 2.1]), 64),
        *[pytest.param(0.3 + 0.2j, 12, np.diag([0.7, 1.1]), points,
                       id=f"ascending-{points}-points") for points in SEVERAL_PIECES],
        (0.3 - 0.2j, 15, np.diag([0.5, 0.9]), 20),
        (0.2j, 15, np.diag([0.0, 0.6]), 21),
        *[pytest.param(0.3 + 0.2j, 12, np.diag([1.1, 0.7]), points,
                       id=f"diagonal-{points}-points") for points in SEVERAL_PIECES],
    ])
    def test_one_piece_equals_all_node_reference(self, alpha, dim, cov, points):
        # in one piece or in several, the accumulation runs once over every
        # node's V = D K in the grid's own order, as the all-node reference
        # does, so the output is identical
        rho = coherent_density(alpha, dim)
        out = classical_noise_channel(rho, cov, grid_points=points)
        assert np.array_equal(out.matrix, _channel_all_nodes(rho, cov, points))

    def test_large_grids_span_several_pieces(self):
        assert min(SEVERAL_PIECES) ** 2 > 2 * CHANNEL_PIECE

    @pytest.mark.parametrize("cov, points, built", [
        # a grid along x and p: ceil(P0/2) * ceil(P1/2) nodes
        (np.eye(2), 20, 100), (np.eye(2), 21, 121),
        (np.diag([1.5, 0.8]), 40, 400), (np.diag([0.5, 0.9]), 15, 64),
        (np.diag([0.0, 0.6]), 21, 11), (np.diag([1.5, 0.0]), 61, 31),
        (np.diag([1.1, 0.7]), 69, 35 * 35), (np.eye(2), 1, 1),
    ])
    def test_builds_the_nodes_no_mirror_reaches(self, cov, points, built,
                                                monkeypatch):
        pieces = _record_pieces(monkeypatch)
        classical_noise_channel(coherent_density(0.3 - 0.1j, 12), cov,
                                grid_points=points)
        assert sum(pieces) == built
        assert max(pieces) <= CHANNEL_PIECE

    def test_full_validation_builds_900_operators(self, monkeypatch):
        pieces = _record_pieces(monkeypatch)
        assert all(r.passed for r in run_validation("full"))
        assert sum(pieces) == 900

    @pytest.mark.parametrize("alpha, points, noise", [(0.25, 40, 1.2),
                                                      (0.0, 61, 2.0)])
    def test_peak_memory_bounded(self, alpha, points, noise):
        # only CHANNEL_PIECE operators are alive at once: at dim 25 a channel
        # peaks near 3.9 MB (40 x 40) and 4.7 MB (61 x 61, a vacuum input, so
        # one column per operator), where building every node's full operator
        # at once peaked at 35 and 81 MB
        rho = coherent_density(alpha, 25)
        tracemalloc.start()
        try:
            classical_noise_channel(rho, noise * np.eye(2), grid_points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestFactoredChannel:
    @pytest.mark.parametrize("alpha, cov, points", [
        (0.0, 2.0 * np.eye(2), 20),
        (0.4 + 0.2j, np.diag([1.5, 0.8]), 20),
        (0.25, 1.2 * np.eye(2), 40),
    ])
    def test_pure_state_matches_two_sided_form(self, alpha, cov, points):
        rho = coherent_density(alpha, 25)
        assert _factor(rho).shape == (25, 1)
        out = classical_noise_channel(rho, cov, grid_points=points)
        assert np.max(np.abs(out.matrix - _channel_two_sided(rho, cov, points))) \
            <= 1e-15

    @pytest.mark.parametrize("name, rank", [("full-rank", 12), ("rank-2", 2),
                                            ("thermal", 15)])
    def test_mixed_state_matches_two_sided_form(self, name, rank):
        rho = MIXED[name]
        assert _factor(rho).shape == (rho.dim, rank)
        cov = np.diag([1.5, 0.8])
        out = classical_noise_channel(rho, cov, grid_points=15)
        assert np.max(np.abs(out.matrix - _channel_two_sided(rho, cov, 15))) \
            <= 1e-15

    @pytest.mark.parametrize("cov", [np.eye(2), np.zeros((2, 2))])
    def test_non_psd_rejected(self, cov):
        m = coherent_density(0.3, 10).matrix - 0.01 * np.eye(10)
        with pytest.raises(ValueError, match="positive semidefinite"):
            classical_noise_channel(FockDensityMatrix(10, m), cov)


def _fock_state(dim, populations=None, amplitudes=None):
    # a diagonal mixture, or the pure state of the given leading amplitudes
    if amplitudes is not None:
        a = np.zeros(dim, dtype=complex)
        a[:len(amplitudes)] = amplitudes
        a /= np.linalg.norm(a)
        return FockDensityMatrix(dim, np.outer(a, a.conj()))
    diag = np.zeros(dim)
    diag[:len(populations)] = populations
    return FockDensityMatrix(dim, np.diag(diag))


LEADING_COLUMN_STATES = {
    "vacuum": (lambda dim: coherent_density(0.0, dim), 1),
    "number-2": (lambda dim: _fock_state(dim, [0.0, 0.0, 1.0]), 3),
    "number-5": (lambda dim: _fock_state(dim, [0.0] * 5 + [1.0]), 6),
    "mixture-0-1": (lambda dim: _fock_state(dim, [0.7, 0.3]), 2),
    "coherent": (lambda dim: coherent_density(0.3 - 0.1j, dim), None),
}


class TestLeadingColumns:
    @pytest.mark.parametrize("dim", [1, 2, 12, 25])
    def test_leading_columns_of_the_full_operators(self, dim):
        rng = np.random.default_rng(dim + 100)
        betas = np.concatenate([[0.0], rng.normal(0.0, 1.5, 300)
                                + 1j * rng.normal(0.0, 1.5, 300)])
        full = displacement_matrices(betas, dim)
        for cols in range(dim + 1):
            part = displacement_matrices(betas, (dim, cols))
            assert part.shape == (betas.size, dim, cols)
            assert part.flags.c_contiguous
            assert np.array_equal(part, full[:, :, :cols])

    @pytest.mark.parametrize("dim", [1, 2, 3, 12, 25])
    def test_truncated_laguerre_triangle_is_leading_rows(self, dim):
        x = np.random.default_rng(dim).uniform(0.0, 6.0, 257)
        start = _triangle(dim)[0]
        full = _laguerre_triangle(x, dim, dim)
        for cols in range(dim + 1):
            assert np.array_equal(_laguerre_triangle(x, dim, cols),
                                  full[:start[cols]])

    @pytest.mark.parametrize("name", sorted(LEADING_COLUMN_STATES))
    def test_builds_only_the_columns_the_input_touches(self, name, monkeypatch):
        # the channel asks for (dim, cols) with cols = 1 + the last Fock level
        # the input reaches, through the module's function and two arguments
        make, cols = LEADING_COLUMN_STATES[name]
        shapes = []

        def recording(*args, **kwargs):
            assert len(args) == 2 and not kwargs
            shapes.append(args[1])
            return displacement_matrices(*args)

        monkeypatch.setattr(fock, "displacement_matrices", recording)
        classical_noise_channel(make(12), np.eye(2), grid_points=5)
        assert shapes == [(12, 12 if cols is None else cols)]

    @pytest.mark.parametrize("name", ["vacuum", "number-2", "number-5",
                                      "mixture-0-1"])
    @pytest.mark.parametrize("cov, points", [
        (2.0 * np.eye(2), 20), (np.diag([1.5, 0.8]), 15),
        (np.diag([1.5, 0.0]), 61), (np.diag([0.7, 1.1]), 70)])
    def test_trimmed_inputs_equal_all_node_reference(self, name, cov, points):
        # one nonzero row of K per column: every element of V is a single
        # product, with or without the zero rows the full operators multiply
        rho = LEADING_COLUMN_STATES[name][0](25)
        out = classical_noise_channel(rho, cov, grid_points=points)
        assert np.array_equal(out.matrix, _channel_all_nodes(rho, cov, points))

    def test_three_level_superposition_matches_two_sided_form(self):
        # K has three nonzero rows, so V sums three products where the full
        # operators summed 25 with zeros: equal within rounding, not in bits
        rho = _fock_state(25, amplitudes=[0.6, 0.5j, -0.3 + 0.2j])
        cov = np.diag([1.5, 0.8])
        out = classical_noise_channel(rho, cov, grid_points=20)
        assert np.max(np.abs(out.matrix - _channel_two_sided(rho, cov, 20))) \
            <= 1e-15

    def test_zero_matrix_gives_zeros(self):
        out = classical_noise_channel(FockDensityMatrix(8, np.zeros((8, 8))),
                                      np.eye(2), grid_points=5)
        assert np.array_equal(out.matrix, np.zeros((8, 8)))


class TestCrossChecks:
    def test_fidelity_grid_small(self):
        # reduced version of the anti-regression gate (full grid runs in the
        # acceptance suite at dim 25)
        for v in (1.2, 3.0):
            for dx in (0.0, 1.0):
                rho = coherent_density(0.0, DIM)
                out = classical_noise_channel(rho, (v - 1) * np.eye(2),
                                              grid_points=GRID)
                oracle = oracle_fidelity(out, dx / 2.0)
                state = GaussianState(1, np.zeros(2), v * np.eye(2))
                formula = coherent_vs_gaussian_fidelity([dx, 0.0], state)
                assert oracle == pytest.approx(formula, abs=1e-12)

    def test_gaussian_engine_vs_oracle_on_teleported_coherent_state(self):
        # teleport |alpha=0.5> with a lossless half-squeezed resource: the
        # Gaussian engine output fidelity must match the oracle channel
        n_sq = 0.5
        alpha = 0.5
        cfg = TeleporterConfig(n_sq=n_sq, eta_bell=1.0, eta_meas=1.0,
                               ff_gain_db=80.0)
        out = run_teleport(cfg, coherent_state(1, 0, 2 * alpha, 0.0))
        f_gauss = coherent_vs_gaussian_fidelity([2 * alpha, 0.0], out)
        f_oracle = teleported_coherent_oracle(alpha, 2 * n_sq, dim=20,
                                              grid_points=GRID)
        assert f_gauss == pytest.approx(f_oracle, abs=1e-7)


def test_oracle_imports_no_gaussian_engine():
    # the oracle checks gaussian.py and teleporter.py, so it must not use them
    tree = ast.parse(Path(fock.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert names and not any(part in ("gaussian", "teleporter")
                             for name in names for part in name.split("."))


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            FockDensityMatrix(4, m)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FockDensityMatrix(4, np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # NaN slips through the Hermitian test, since NaN > 1e-10 is False
        m = np.eye(3, dtype=complex) / 3
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FockDensityMatrix(3, m)
        with pytest.raises(ValueError, match="finite"):
            FockDensityMatrix(3, np.full((3, 3), bad))

    def test_non_finite_state_never_reaches_the_channel(self):
        # rejected with ValueError before eigh could raise LinAlgError
        with pytest.raises(ValueError, match="finite"):
            classical_noise_channel(FockDensityMatrix(3, np.full((3, 3), np.nan)),
                                    np.eye(2))
