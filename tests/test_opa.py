"""Tests for the waveguide-amplifier lumped models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cvteleport.opa import WaveguideSpec, distributed_psa_equivalent
from cvteleport.validate import _segmented_map

EPS = np.finfo(float).eps
# The closed-form map's eta_eff carries a few ulps of rounding, so the
# 512 -> 1024 drop is measurable only down to this floor (pure loss, g = 0,
# has no discretization error at all). Over 20000 draws weighted to g ~ 0 and
# l ~ 0 the drop fell short of 0.3x by at most 1 eps; the 1024-step segment
# loop it replaces needed about 210 eps.
SEGMENT_ROUNDING_FLOOR = 16 * EPS


def _segment_loop(gain_db, loss_db, n):
    # the n interleaved segments (half gain, loss, half gain) composed one at
    # a time: the reference for the closed form of _segmented_map
    half = 10.0 ** (gain_db / (20.0 * n))  # power gain of a half step
    eta_seg = 10.0 ** (-loss_db / (10.0 * n))
    a, b = 1.0, 0.0
    for _ in range(n):
        a *= half; b *= half
        a *= eta_seg; b = eta_seg * b + (1.0 - eta_seg)
        a *= half; b *= half
    return a, b


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

    @given(st.floats(min_value=0.0, max_value=35.0),
           st.floats(min_value=0.0, max_value=5.0),
           st.booleans(), st.integers(min_value=1, max_value=1024))
    @example(3.0, 3.0, False, 1024)
    @example(0.0, 0.0, False, 512)
    @example(35.0, 0.0, True, 1)
    @settings(max_examples=60, deadline=None)
    def test_segmented_map_matches_segment_loop(self, gain_db, loss_db,
                                                equal, n):
        # the loop's n-fold products and rounded factors put the two up to
        # about 8 n ulps apart (measured over 6000 draws); B is compared in
        # units of A + B, since the loop's 1 - eta_seg cancels at small loss
        if equal:
            loss_db = gain_db  # r = 1: the B = n c branch
        a, b = _segmented_map(gain_db, loss_db, n)
        ref_a, ref_b = _segment_loop(gain_db, loss_db, n)
        assert abs(a - ref_a) <= 32 * n * EPS * ref_a
        assert abs(b - ref_b) <= 32 * n * EPS * (ref_a + ref_b)

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


class TestSpecValidation:
    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            WaveguideSpec(-1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["total_gain_db", "internal_loss_db"])
    def test_non_finite_refused(self, field, bad):
        # NaN compares false with 0, and an infinite gain or loss gave nan
        spec = {"total_gain_db": 10.0, "internal_loss_db": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            WaveguideSpec(**spec)


class TestFloatRange:
    @pytest.mark.parametrize("gain_db, loss_db", [
        (4000.0, 0.0),  # e^(g - l) overflowed: OverflowError
        (6200.0, 0.0),  # 10^(G/20) overflowed too
        (7400.0, 4340.0),  # l expm1(g - l) overflowed to inf: eta read 0
        (1e308, 1e308),  # g and l overflowed to inf: eta read nan
    ])
    def test_refused_naming_the_gain(self, gain_db, loss_db):
        with pytest.raises(ValueError, match="total_gain_db"):
            distributed_psa_equivalent(WaveguideSpec(gain_db, loss_db))

    def test_finite_near_the_limit(self):
        # 2960 dB of net gain behind 4340 dB of loss, A + B near 1e308
        g_total, eta = distributed_psa_equivalent(WaveguideSpec(7300.0, 4340.0))
        loss, net = 434.0 * np.log(10.0), 296.0 * np.log(10.0)
        assert g_total == pytest.approx(1e148, rel=1e-12)
        assert eta == pytest.approx(1.0 / (1.0 + loss * -np.expm1(-net) / net),
                                    rel=1e-12)
