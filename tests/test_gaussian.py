"""Unit and property tests for the Gaussian-state engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.gaussian import (
    GaussianState,
    QuadAxis,
    SymplecticTransform,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    coherent_state,
    coherent_vs_gaussian_fidelity,
    from_db,
    make_vacuum,
    partial_trace,
    psa_transform,
    quad_statistics,
    squeezer,
    symplectic_form,
    tensor,
    to_db,
)


def min_uncertainty_eigenvalue(state):
    """Smallest eigenvalue of cov + i Omega per state; physical states: >= -1e-9."""
    omega = symplectic_form(state.n_modes)
    return np.min(np.linalg.eigvalsh(state.cov + 1j * omega), axis=-1)


class TestVacuum:
    def test_single_mode(self):
        v = make_vacuum(1)
        assert np.array_equal(v.cov, np.eye(2))
        assert np.array_equal(v.mean, np.zeros(2))

    def test_three_modes(self):
        v = make_vacuum(3)
        assert np.array_equal(v.cov, np.eye(6))

    def test_shot_noise_is_zero_db(self):
        _, _, vx, vp = quad_statistics(make_vacuum(1), 0)
        assert to_db(vx) == 0.0
        assert to_db(vp) == 0.0

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            make_vacuum(0)


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), cov)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GaussianState(1, np.zeros(2), np.diag([1.0, 0.0]))

    def test_arrays_are_readonly(self):
        v = make_vacuum(1)
        with pytest.raises(ValueError):
            v.cov[0, 0] = 5.0


class TestSqueezer:
    def test_reference_level(self):
        state = apply_symplectic(make_vacuum(1), squeezer(1, 0, 7.5, QuadAxis.X))
        _, _, vx, vp = quad_statistics(state, 0)
        assert vx == pytest.approx(0.178, abs=5e-4)
        # pure-state reciprocal symmetry
        assert vp == pytest.approx(1.0 / vx, rel=1e-12)
        assert vp == pytest.approx(5.62, abs=5e-3)

    def test_zero_db_is_identity(self):
        s = squeezer(2, 1, 0.0, QuadAxis.P)
        assert np.array_equal(s.matrix, np.eye(4))

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            squeezer(2, 2, 3.0, QuadAxis.X)

    def test_negative_db_rejected(self):
        with pytest.raises(ValueError):
            squeezer(1, 0, -1.0, QuadAxis.X)


class TestBeamsplitter:
    def test_vacuum_invariance(self):
        state = apply_symplectic(make_vacuum(2), beamsplitter(2, 0, 1, 0.5))
        assert np.allclose(state.cov, np.eye(4), atol=1e-14)

    def test_balanced_mixing_of_orthogonal_squeezers(self):
        # oracle: direct covariance propagation by hand. Inputs are
        # diag(s, 1/s) and diag(1/s, s); the 50:50 splitter acts as the
        # orthogonal matrix B on (x0, x1) and on (p0, p1) separately.
        s = from_db(-7.5)
        cov_in = np.diag([s, 1 / s, 1 / s, s])
        t = 1 / math.sqrt(2)
        b = np.array([[t, t], [-t, t]])
        expect_x = b @ np.diag([s, 1 / s]) @ b.T       # (x0, x1) block
        state = make_vacuum(2)
        state = apply_symplectic(state, squeezer(2, 0, 7.5, QuadAxis.X))
        state = apply_symplectic(state, squeezer(2, 1, 7.5, QuadAxis.P))
        state = apply_symplectic(state, beamsplitter(2, 0, 1, 0.5))
        got_x = state.cov[np.ix_([0, 2], [0, 2])]
        assert np.allclose(got_x, expect_x, atol=1e-12)
        var_diff = state.cov[0, 0] + state.cov[2, 2] - 2 * state.cov[0, 2]
        assert var_diff == pytest.approx(2 * s, rel=1e-10)
        assert var_diff == pytest.approx(0.356, abs=5e-4)
        assert np.array_equal(cov_in, np.diag([s, 1 / s, 1 / s, s]))

    def test_full_transmission_is_identity(self):
        assert np.array_equal(beamsplitter(2, 0, 1, 1.0).matrix, np.eye(4))

    def test_energy_conserved(self):
        state = coherent_state(2, 0, 1.5, -0.7)
        state = apply_symplectic(state, squeezer(2, 1, 6.0, QuadAxis.X))
        before = np.trace(state.cov) + state.mean @ state.mean
        mixed = apply_symplectic(state, beamsplitter(2, 0, 1, 0.3))
        after = np.trace(mixed.cov) + mixed.mean @ mixed.mean
        assert after == pytest.approx(before, rel=1e-12)

    def test_invalid_transmissivity(self):
        with pytest.raises(ValueError):
            beamsplitter(2, 0, 1, 1.5)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            beamsplitter(2, 1, 1, 0.5)


class TestLoss:
    def test_full_transmission_identity(self):
        state = apply_symplectic(coherent_state(1, 0, 0.4, 0.2),
                                 squeezer(1, 0, 5.0, QuadAxis.X))
        out = apply_loss(state, 0, 1.0)
        assert np.array_equal(out.cov, state.cov)
        assert np.array_equal(out.mean, state.mean)

    def test_zero_transmission_gives_vacuum(self):
        state = coherent_state(1, 0, 3.0, -2.0)
        state = apply_symplectic(state, squeezer(1, 0, 9.0, QuadAxis.P))
        out = apply_loss(state, 0, 0.0)
        assert np.allclose(out.cov, np.eye(2), atol=1e-14)
        assert np.allclose(out.mean, 0.0, atol=1e-14)

    def test_affine_formula(self):
        state = GaussianState(1, np.zeros(2), np.diag([3.0, 3.0]))
        out = apply_loss(state, 0, 0.9)
        assert out.cov[0, 0] == pytest.approx(2.8, rel=1e-14)

    def test_cross_covariances_scale(self):
        state = make_vacuum(2)
        state = apply_symplectic(state, squeezer(2, 0, 6.0, QuadAxis.X))
        state = apply_symplectic(state, beamsplitter(2, 0, 1, 0.5))
        out = apply_loss(state, 0, 0.64)
        assert out.cov[0, 2] == pytest.approx(0.8 * state.cov[0, 2], rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_loss(make_vacuum(1), 0, 1.1)


class TestPsa:
    def test_zero_gain_identity(self):
        state = apply_symplectic(make_vacuum(1), squeezer(1, 0, 4.0, QuadAxis.X))
        out = apply_symplectic(state, psa_transform(1, 0, QuadAxis.X, 0.0))
        assert np.array_equal(out.cov, state.cov)

    def test_thirty_db_on_vacuum(self):
        out = apply_symplectic(make_vacuum(1),
                               psa_transform(1, 0, QuadAxis.X, 30.0))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vx == pytest.approx(1000.0, rel=1e-12)
        assert vp == pytest.approx(1e-3, rel=1e-12)

    def test_mean_scales(self):
        state = coherent_state(1, 0, 1.0, 0.0)
        out = apply_symplectic(state, psa_transform(1, 0, QuadAxis.X, 20.0))
        assert out.mean[0] == pytest.approx(10.0, rel=1e-12)
        assert out.mean[1] == 0.0

    def test_deamplification_allowed(self):
        out = apply_symplectic(make_vacuum(1),
                               psa_transform(1, 0, QuadAxis.P, -10.0))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vp == pytest.approx(0.1, rel=1e-12)
        assert vx == pytest.approx(10.0, rel=1e-12)


class TestQuadStatisticsAndPartialTrace:
    def test_vacuum_statistics(self):
        assert quad_statistics(make_vacuum(1), 0) == (0.0, 0.0, 1.0, 1.0)

    def test_epr_partial_trace_is_thermal(self):
        # oracle: covariance algebra. Each output mode of a balanced mix of
        # orthogonally squeezed vacua has variance (n_sq + 1/n_sq)/2.
        n_sq = 0.178
        state = make_vacuum(2)
        db = -to_db(n_sq)
        state = apply_symplectic(state, squeezer(2, 0, db, QuadAxis.X))
        state = apply_symplectic(state, squeezer(2, 1, db, QuadAxis.P))
        state = apply_symplectic(state, beamsplitter(2, 0, 1, 0.5))
        reduced = partial_trace(state, [0])
        expected = (n_sq + 1 / n_sq) / 2
        _, _, vx, vp = quad_statistics(reduced, 0)
        assert vx == pytest.approx(expected, rel=1e-12)
        assert vp == pytest.approx(expected, rel=1e-12)
        assert vx == pytest.approx(2.898, abs=2e-4)

    def test_keep_all_is_identity(self):
        state = apply_symplectic(make_vacuum(2), beamsplitter(2, 0, 1, 0.25))
        kept = partial_trace(state, [0, 1])
        assert np.array_equal(kept.cov, state.cov)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(make_vacuum(2), [])


class TestFidelity:
    def test_classical_limit(self):
        state = GaussianState(1, np.zeros(2), np.diag([3.0, 3.0]))
        assert coherent_vs_gaussian_fidelity([0, 0], state) == pytest.approx(0.5)

    def test_no_cloning_limit(self):
        state = GaussianState(1, np.zeros(2), np.diag([2.0, 2.0]))
        assert coherent_vs_gaussian_fidelity([0, 0], state) == pytest.approx(2 / 3)

    def test_broadband_intrinsic_point(self):
        state = GaussianState(1, np.zeros(2), np.diag([1.5589, 1.5433]))
        f = coherent_vs_gaussian_fidelity([0, 0], state)
        assert f == pytest.approx(0.784, abs=5e-4)

    def test_displaced_pure_states(self):
        # |<beta|alpha>|^2 = exp(-|alpha-beta|^2) with quadrature offsets
        # (dx, dp) = 2(alpha - beta); frozen from the Fock-oracle overlap.
        state = GaussianState(1, np.array([2.0, 2.0]), np.eye(2))
        f = coherent_vs_gaussian_fidelity([0.0, 0.0], state)
        assert f == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_unity_iff_matching_pure(self):
        state = GaussianState(1, np.array([0.7, -0.1]), np.eye(2))
        assert coherent_vs_gaussian_fidelity([0.7, -0.1], state) == \
            pytest.approx(1.0, abs=1e-12)
        shifted = coherent_vs_gaussian_fidelity([0.7, -0.1 + 1e-5], state)
        assert shifted < 1.0
        thermal = GaussianState(1, np.array([0.7, -0.1]),
                                (1 + 1e-5) * np.eye(2))
        assert coherent_vs_gaussian_fidelity([0.7, -0.1], thermal) < 1.0

    def test_rotation_invariance(self):
        # rotating covariance and means together leaves F unchanged, which is
        # exactly the principal-axis-rotation prescription
        state = GaussianState(1, np.array([1.0, 0.5]), np.diag([1.8, 1.1]))
        target = np.array([0.2, -0.4])
        f0 = coherent_vs_gaussian_fidelity(target, state)
        c, s = math.cos(0.77), math.sin(0.77)
        rot = np.array([[c, s], [-s, c]])
        rotated = GaussianState(1, rot @ state.mean, rot @ state.cov @ rot.T)
        f1 = coherent_vs_gaussian_fidelity(rot @ target, rotated)
        assert f1 == pytest.approx(f0, rel=1e-12)

    def test_multimode_rejected(self):
        with pytest.raises(ValueError):
            coherent_vs_gaussian_fidelity([0, 0], make_vacuum(2))

    def test_nonpositive_cov_rejected(self):
        bad = GaussianState(1, np.zeros(2),
                            np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="positive"):
            coherent_vs_gaussian_fidelity([0, 0], bad)


class TestTensorAndDisplace:
    def test_tensor_blocks(self):
        a = apply_symplectic(make_vacuum(1), squeezer(1, 0, 3.0, QuadAxis.X))
        b = coherent_state(1, 0, 1.0, 2.0)
        joint = tensor(a, b)
        assert joint.n_modes == 2
        assert np.array_equal(joint.cov[:2, :2], a.cov)
        assert np.array_equal(joint.cov[2:, 2:], b.cov)
        assert np.all(joint.cov[:2, 2:] == 0)
        assert np.array_equal(joint.mean, [0, 0, 1, 2])

    def test_coherent_state(self):
        state = coherent_state(1, 0, 0.8, -0.3)
        assert quad_statistics(state, 0) == (0.8, -0.3, 1.0, 1.0)


# -- properties ---------------------------------------------------------

finite_db = st.floats(min_value=-20, max_value=20, allow_nan=False)


@given(st.floats(min_value=1e-8, max_value=1e8))
def test_db_round_trip(v):
    assert from_db(to_db(v)) == pytest.approx(v, rel=1e-12)


@given(st.integers(min_value=0, max_value=2), finite_db,
       st.floats(min_value=0, max_value=1))
@settings(max_examples=60)
def test_symplectic_invariant(kind_seed, gain_db, trans):
    omega = symplectic_form(2)
    transforms = [
        squeezer(2, 0, abs(gain_db), QuadAxis.X),
        psa_transform(2, 1, QuadAxis.P, gain_db),
        beamsplitter(2, 0, 1, trans),
    ]
    s = transforms[kind_seed]
    assert np.max(np.abs(s.matrix @ omega @ s.matrix.T - omega)) < 1e-10


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.floats(min_value=-12, max_value=12),
                          st.floats(min_value=0.05, max_value=1.0)),
                min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_uncertainty_preserved_by_operation_sequences(ops):
    state = make_vacuum(2)
    for kind, value, eta in ops:
        if kind == 0:
            state = apply_symplectic(state, squeezer(2, 0, abs(value), QuadAxis.X))
        elif kind == 1:
            state = apply_symplectic(state,
                                     psa_transform(2, 1, QuadAxis.P, value))
        elif kind == 2:
            state = apply_symplectic(
                state, beamsplitter(2, 0, 1, (value + 12) / 24))
        else:
            state = apply_loss(state, 0, eta)
    assert min_uncertainty_eigenvalue(state) >= -1e-9


@given(st.floats(min_value=0.0, max_value=12.0),
       st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=0.05, max_value=0.999))
@settings(max_examples=60)
def test_loss_determinant_monotonicity(squeeze_db, mix, eta):
    # for pure single-mode inputs (det = 1) loss never decreases det(cov);
    # mixed inputs can only be driven toward vacuum, so det stays >= 1
    pure = apply_symplectic(make_vacuum(1), squeezer(1, 0, squeeze_db, QuadAxis.X))
    after_pure = np.linalg.det(apply_loss(pure, 0, eta).cov)
    assert after_pure >= np.linalg.det(pure.cov) - 1e-12
    mixed = GaussianState(1, pure.mean, pure.cov * (1 + mix))
    assert np.linalg.det(apply_loss(mixed, 0, eta).cov) >= 1.0 - 1e-12


def test_symplectic_transform_rejects_non_symplectic():
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(np.diag([2.0, 2.0]))


# -- batches ------------------------------------------------------------

def _random_batch_state(rng, n_modes, size):
    # physical covariances: random symplectics applied to thermal states
    d = 2 * n_modes
    covs = np.empty((size, d, d))
    for k in range(size):
        s = beamsplitter(n_modes, 0, n_modes - 1, float(rng.uniform())).matrix \
            if n_modes > 1 else np.eye(d)
        s = squeezer(n_modes, 0, float(rng.uniform(0, 9))).matrix @ s
        covs[k] = s @ np.diag(rng.uniform(1.0, 3.0, d)) @ s.T
    return GaussianState(n_modes, rng.normal(size=(size, d)), covs)


class TestBatch:
    def test_transforms_from_parameter_arrays_match_scalar_builds(self):
        rng = np.random.default_rng(11)
        db = rng.uniform(0, 15, 64)
        gain = rng.uniform(-30, 90, 64)
        trans = rng.uniform(0, 1, 64)
        builds = [
            (lambda v: squeezer(3, 1, v, QuadAxis.P), db),
            (lambda v: psa_transform(3, 2, QuadAxis.X, v), gain),
            (lambda v: beamsplitter(3, 2, 0, v), trans),
        ]
        for build, values in builds:
            batch = build(values)
            assert batch.matrix.shape == (64, 6, 6)
            for k, v in enumerate(values.tolist()):
                assert np.array_equal(batch.matrix[k], build(v).matrix)

    def test_stacked_products_match_per_state_products(self):
        rng = np.random.default_rng(12)
        state = _random_batch_state(rng, 2, 7)
        s = beamsplitter(2, 1, 0, rng.uniform(0, 1, 7))
        eta = rng.uniform(0, 1, 7)
        out = apply_loss(apply_symplectic(state, s), 1, eta)
        for k in range(7):
            one = GaussianState(2, state.mean[k], state.cov[k])
            one = apply_loss(apply_symplectic(
                one, SymplecticTransform(s.matrix[k])), 1, float(eta[k]))
            assert np.array_equal(out.cov[k], one.cov)
            assert np.array_equal(out.mean[k], one.mean)

    def test_batch_of_one_equals_single(self):
        state = apply_symplectic(coherent_state(2, 1, 0.3, -1.1), squeezer(2, 0, 6.0))
        single = apply_loss(apply_symplectic(
            state, psa_transform(2, 1, QuadAxis.P, 37.3)), 0, 0.83)
        batch = apply_loss(apply_symplectic(
            state, psa_transform(2, 1, QuadAxis.P, [37.3])), 0, [0.83])
        assert batch.cov.shape == (1, 4, 4) and single.cov.shape == (4, 4)
        assert np.array_equal(batch.cov[0], single.cov)
        assert np.array_equal(batch.mean[0], single.mean)
        assert quad_statistics(single, 1) == tuple(
            v[0] for v in quad_statistics(batch, 1))

    def test_single_state_broadcasts_against_batched_transform(self):
        out = apply_symplectic(make_vacuum(1), squeezer(1, 0, [0.0, 3.0, 10.0]))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vx.shape == (3,)
        assert vx[0] == 1.0 and vx[2] == pytest.approx(0.1, rel=1e-12)
        assert np.allclose(vx * vp, 1.0, rtol=1e-12)

    def test_tensor_pairs_single_with_batch(self):
        batch = apply_symplectic(make_vacuum(2), beamsplitter(2, 0, 1, [0.2, 0.7]))
        joint = tensor(coherent_state(1, 0, 0.5, 0.25), batch)
        assert joint.cov.shape == (2, 6, 6) and joint.mean.shape == (2, 6)
        for k in range(2):
            assert np.array_equal(joint.cov[k, 2:, 2:], batch.cov[k])
            assert np.array_equal(joint.mean[k], [0.5, 0.25, 0, 0, 0, 0])

    def test_partial_trace_and_uncertainty_per_state(self):
        state = _random_batch_state(np.random.default_rng(13), 2, 4)
        kept = partial_trace(state, [1])
        assert np.array_equal(kept.cov, state.cov[:, 2:, 2:])
        floors = min_uncertainty_eigenvalue(state)
        assert floors.shape == (4,) and np.all(floors >= -1e-9)
        # vacuum and squeezed vacuum sit on the bound, nu I at nu - 1, and
        # the unphysical 0.5 I below it
        squeezed = apply_symplectic(make_vacuum(1), squeezer(1, 0, 10.0)).cov
        covs = [np.eye(2), squeezed, 2.5 * np.eye(2), 0.5 * np.eye(2)]
        floors = min_uncertainty_eigenvalue(GaussianState(1, np.zeros((4, 2)), covs))
        assert np.allclose(floors, [0.0, 0.0, 1.5, -0.5], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_non_symplectic_member_rejected(self, k):
        stack = beamsplitter(2, 0, 1, np.linspace(0, 1, 7)).matrix.copy()
        stack[k] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=f"symplectic.*batch index {k}"):
            SymplecticTransform(stack)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_asymmetric_member_rejected(self, k):
        state = _random_batch_state(np.random.default_rng(14), 2, 5)
        cov = state.cov.copy()
        cov[k, 0, 3] += 1e-6
        with pytest.raises(ValueError, match=f"symmetric.*batch index {k}"):
            GaussianState(2, state.mean, cov)
        cov = state.cov.copy()
        cov[k, 2, 2] = 0.0
        with pytest.raises(ValueError, match=f"positive.*batch index {k}"):
            GaussianState(2, state.mean, cov)

    def test_batch_parameter_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_loss(make_vacuum(1), 0, [0.5, 1.2, 0.9])
        with pytest.raises(ValueError):
            beamsplitter(2, 0, 1, [0.5, -0.1])
        with pytest.raises(ValueError):
            squeezer(1, 0, [3.0, -1.0])

    def test_mismatched_batch_shapes_rejected(self):
        with pytest.raises(ValueError, match="batch shape"):
            GaussianState(1, np.zeros((3, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="batch shape"):
            GaussianState(1, np.zeros(2), np.stack([np.eye(2)] * 2))

    def test_fidelity_takes_one_state(self):
        batch = GaussianState(1, np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="one single-mode"):
            coherent_vs_gaussian_fidelity([0, 0], batch)
