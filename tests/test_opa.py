"""Tests for the waveguide-amplifier lumped models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cvteleport.opa import (
    PreampDetectorSpec,
    WaveguideSpec,
    distributed_psa_equivalent,
    preamp_detection_efficiency,
)
from cvteleport.validate import _segmented_map

# The reference's per-segment factors each carry half an ulp, and its n-fold
# product turns them into up to n ulps of eta_eff: the 512 -> 1024 drop is
# measurable only down to this rounding floor (pure loss, g = 0, has no
# discretization error at all).
SEGMENT_ROUNDING_FLOOR = 1024 * np.finfo(float).eps


def calibrate_internal_loss(target_eta: float, gain_db: float) -> float:
    """Loss (dB) whose distributed model reaches the target efficiency.

    Independent root-finding oracle used to pin the hardware-like operating
    points in the tests below.
    """
    def gap(loss_db):
        return distributed_psa_equivalent(
            WaveguideSpec(gain_db, loss_db))[1] - target_eta
    return brentq(gap, 1e-9, 10.0, xtol=1e-12)


class TestDistributedModel:
    def test_lossless_is_perfect(self):
        for gain in (0.0, 10.0, 30.0):
            g, eta = distributed_psa_equivalent(WaveguideSpec(gain, 0.0))
            assert eta == pytest.approx(1.0, abs=1e-12)
            assert g == pytest.approx(10 ** (gain / 20), rel=1e-12)

    def test_zero_gain_is_pure_loss(self):
        for loss in (0.5, 3.0, 10.0):
            _, eta = distributed_psa_equivalent(WaveguideSpec(0.0, loss))
            assert eta == pytest.approx(10 ** (-loss / 10), rel=1e-10)

    def test_hardware_operating_points(self):
        # solve for the loss that gives 98.8% at 30 dB, then the measurement
        # amplifier at 25 dB with the same loss density must land near 98.6%
        loss = calibrate_internal_loss(0.988, 30.0)
        _, eta_meas_amp = distributed_psa_equivalent(
            WaveguideSpec(25.0, loss))
        assert eta_meas_amp == pytest.approx(0.986, abs=5e-4)

    def test_total_gain_includes_loss(self):
        g, _ = distributed_psa_equivalent(WaveguideSpec(20.0, 2.0))
        assert g == pytest.approx(10 ** (18.0 / 20), rel=1e-12)


class TestEquivalenceProperty:
    @given(st.floats(min_value=0.0, max_value=35.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_channel_matches_segmented_map(self, gain_db, loss_db):
        # the closed form is the fine-segment limit of the interleaved model:
        # same total gain, eta_eff within 1e-6 at 1024 segments, and a gap
        # that falls at second order (4x per doubling) from 512 to 1024
        g_total, eta_eff = distributed_psa_equivalent(
            WaveguideSpec(gain_db, loss_db))
        gaps = []
        for n in (512, 1024):
            a, b = _segmented_map(gain_db, loss_db, n)
            gaps.append(abs(eta_eff - a / (a + b)))
        assert g_total ** 2 == pytest.approx(a, rel=1e-9)
        assert gaps[1] <= 1e-6
        assert gaps[1] <= 0.3 * gaps[0] + SEGMENT_ROUNDING_FLOOR

    def test_equal_gain_and_loss_is_continuous(self):
        # g = l takes the B = l branch; its neighbours take expm1(g-l)/(g-l)
        _, eta = distributed_psa_equivalent(WaveguideSpec(3.0, 3.0))
        for d in (1e-9, -1e-9):
            _, near = distributed_psa_equivalent(WaveguideSpec(3.0 + d, 3.0))
            assert near == pytest.approx(eta, abs=1e-9)

    def test_monotone_in_gain(self):
        etas = [distributed_psa_equivalent(WaveguideSpec(g, 0.36))[1]
                for g in np.linspace(0, 32, 9)]
        assert np.all(np.diff(etas) >= -1e-12)

    def test_monotone_in_loss(self):
        etas = [distributed_psa_equivalent(WaveguideSpec(28.0, lo))[1]
                for lo in np.linspace(0, 4, 9)]
        assert np.all(np.diff(etas) <= 1e-12)

    def test_range(self):
        _, eta = distributed_psa_equivalent(WaveguideSpec(12.0, 1.5))
        assert 0.0 < eta <= 1.0


class TestPreampDetection:
    def test_unit_gain_passthrough(self):
        assert preamp_detection_efficiency(PreampDetectorSpec(0.0, 0.3)) == \
            pytest.approx(0.3, rel=1e-12)

    def test_high_gain_limit(self):
        eta = preamp_detection_efficiency(PreampDetectorSpec(120.0, 0.3))
        assert 1.0 - eta < 1e-6

    def test_hardware_point(self):
        eta = preamp_detection_efficiency(PreampDetectorSpec(25.0, 0.30))
        assert eta == pytest.approx(0.9927, abs=5e-5)

    def test_strictly_increasing_in_gain(self):
        gains = np.linspace(0, 40, 11)
        etas = [preamp_detection_efficiency(PreampDetectorSpec(g, 0.3))
                for g in gains]
        assert np.all(np.diff(etas) > 0)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.1, max_value=1e4))
    @settings(max_examples=40)
    def test_invariant_under_equal_ratio(self, eta1, eta2, ratio):
        # eta_eff depends only on G*eta/(1-eta): pick gains realizing the
        # same ratio for two different detector efficiencies
        g1 = ratio * (1 - eta1) / eta1
        g2 = ratio * (1 - eta2) / eta2
        e1 = preamp_detection_efficiency(
            PreampDetectorSpec(10 * np.log10(g1), eta1))
        e2 = preamp_detection_efficiency(
            PreampDetectorSpec(10 * np.log10(g2), eta2))
        assert e1 == pytest.approx(e2, rel=1e-10)


class TestSpecValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            WaveguideSpec(-1.0, 0.0)

    def test_bad_detector_qe(self):
        with pytest.raises(ValueError):
            PreampDetectorSpec(20.0, 0.0)
