"""Tests for the truncated Fock-space oracle and its cross-checks against
the Gaussian engine's fidelity arithmetic."""

import math

import numpy as np
import pytest
from scipy.special import gammaln, genlaguerre

from cvteleport.fock import (
    FockDensityMatrix,
    TruncationError,
    _gaussian_grid,
    _laguerre_table,
    _log_factorials,
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


class TestDisplacementMatrix:
    @pytest.mark.parametrize("nodes", [400, 1600, 3721])
    def test_laguerre_table_matches_per_k_loop(self, nodes):
        x = np.random.default_rng(nodes).uniform(0.0, 6.0, nodes)
        assert np.array_equal(_laguerre_table(x, 25),
                              _laguerre_table_per_k(x, 25))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_laguerre_table_small_dims(self, dim):
        x = np.array([0.0, 0.3, 2.5])
        assert np.array_equal(_laguerre_table(x, dim),
                              _laguerre_table_per_k(x, dim))

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

    @pytest.mark.parametrize("cov", [
        np.eye(3), np.ones(2), np.diag([1.0, -0.5]), [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 0.3], [-0.3, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]]])
    def test_bad_noise_cov_rejected(self, cov):
        rho = coherent_density(0.0, 8)
        with pytest.raises(ValueError, match="noise_cov"):
            classical_noise_channel(rho, cov)

    @pytest.mark.parametrize("cov", [
        np.diag([1.5, 0.8]), [[1.5, 0.3], [0.3, 0.8]], np.diag([2.0, 0.0])])
    @pytest.mark.parametrize("points", [1, 2, 5, 20, 61, 100])
    def test_weights_sum_to_one(self, cov, points):
        _, _, w = _gaussian_grid(np.asarray(cov), points)
        assert np.all(w > 0.0)
        assert abs(np.sum(w) - 1.0) <= 1e-15

    def test_quadrature_reproduces_covariance(self):
        cov = np.array([[1.5, 0.3], [0.3, 0.8]])
        dx, dp, w = _gaussian_grid(cov, 3)
        pts = np.stack([dx, dp])
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


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            FockDensityMatrix(4, m)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FockDensityMatrix(4, np.eye(3))
