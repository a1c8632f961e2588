"""Tests for the teleportation circuit and analytic noise budget."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.gaussian import (
    GaussianState,
    SymplecticTransform,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    coherent_state,
    from_db,
    make_vacuum,
    partial_trace,
    quad_statistics,
    tensor,
    to_db,
)
from cvteleport.spectral import (
    SpectrumRecord,
    SqueezingProfile,
    apply_measurement_jitter,
    band_average,
    default_grid,
    spectrum_report,
    synthesize_spectrum,
)
from cvteleport.teleporter import (
    EstimatorReport,
    GainTooLowError,
    MAX_FF_GAIN_DB,
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    build_epr,
    calibrate_unity_gain,
    fidelity_from_variances,
    intrinsic_from_raw,
    run_teleport,
    teleport_circuit,
)
from cvteleport.timetrace import (
    AmplitudeTracks,
    SldSourceSpec,
    TimeTrace,
    WavepacketModes,
    estimate_report,
    extract_modes,
    simulate_traces,
    synth_random_coherent,
    variance_se_db,
)

REFERENCE = dict(n_sq=0.178, eta_bell=0.9, eta_meas=0.9)


class TestBuildEpr:
    def test_reference_correlations(self):
        epr = build_epr(0.178)
        c = epr.cov
        assert c[0, 0] + c[2, 2] - 2 * c[0, 2] == pytest.approx(0.356, rel=1e-10)
        assert c[1, 1] + c[3, 3] + 2 * c[1, 3] == pytest.approx(0.356, rel=1e-10)

    def test_no_squeezing_gives_vacua(self):
        epr = build_epr(1.0)
        assert np.allclose(epr.cov, np.eye(4), atol=1e-12)

    def test_ideal_limit(self):
        # correlations vanish as n_sq -> 0; tolerance allows the float
        # cancellation against the ~1e6 anti-squeezed entries
        epr = build_epr(1e-6)
        c = epr.cov
        assert c[0, 0] + c[2, 2] - 2 * c[0, 2] == pytest.approx(2e-6, rel=1e-3)

    def test_invalid_n_sq(self):
        with pytest.raises(ValueError):
            build_epr(0.0)
        with pytest.raises(ValueError):
            build_epr(1.2)


class TestUnityGainCalibration:
    def test_formula_values(self):
        # chain sqrt(eps) g sqrt(eta_bell) must supply the sqrt(2) the Bell
        # splitter removed: eps = 2 / (eta_bell 10^(gain/10))
        assert calibrate_unity_gain(30.0, 1.0) == pytest.approx(2e-3, rel=1e-12)
        assert calibrate_unity_gain(60.0, 0.9) == pytest.approx(2.2222e-6,
                                                                rel=1e-4)

    def test_gain_too_low(self):
        with pytest.raises(GainTooLowError):
            calibrate_unity_gain(2.0, 0.5)

    @pytest.mark.parametrize("gain_db", [200.0, 4000.0, 1e308, math.inf])
    def test_gain_above_max_rejected(self, gain_db):
        # 10 ** (gain / 10) overflows from about 3083 dB on
        with pytest.raises(ValueError, match="MAX_FF_GAIN_DB") as info:
            calibrate_unity_gain(gain_db, 0.9)
        assert not isinstance(info.value, GainTooLowError)

    @pytest.mark.parametrize("gain_db", [-4000.0, -1e308, -math.inf, math.nan,
                                         0.0, 3.4])
    def test_gain_below_floor_rejected(self, gain_db):
        # 10 ** (-4000 / 10) underflows to 0; the floor at eta_bell = 0.9
        # is 10 log10(2 / 0.9) = 3.47 dB
        with pytest.raises(GainTooLowError):
            calibrate_unity_gain(gain_db, 0.9)

    def test_max_gain_circuit_matches_budget(self):
        # up to MAX_FF_GAIN_DB the tap's 1 - eps still resolves: the circuit
        # stays on the budget (6.9e-8 relative, the same as at 100 dB)
        assert calibrate_unity_gain(MAX_FF_GAIN_DB, 0.9) > 0.0
        cfg = TeleporterConfig(**REFERENCE, ff_gain_db=MAX_FF_GAIN_DB)
        _, _, vx, vp = quad_statistics(run_teleport(cfg, make_vacuum(1)), 0)
        ref = analytic_noise_budget(cfg).n_out
        assert max(abs(vx - ref), abs(vp - ref)) / ref < 1e-6

    def test_mean_transfer_lossless(self):
        cfg = TeleporterConfig(n_sq=0.5, eta_bell=1.0, eta_meas=1.0,
                               ff_gain_db=60.0)
        out = run_teleport(cfg, coherent_state(1, 0, 2.0, 0.0))
        mx, mp, _, _ = quad_statistics(out, 0)
        assert mx == pytest.approx(2.0, abs=0.01)
        assert mp == pytest.approx(0.0, abs=1e-9)

    def test_output_mean_linearity(self):
        cfg = TeleporterConfig(**REFERENCE, ff_gain_db=60.0)
        g = math.sqrt(REFERENCE["eta_meas"])
        for mu in [(1.0, 0.0), (-2.5, 4.0), (0.3, -7.0)]:
            out = run_teleport(cfg, coherent_state(1, 0, *mu))
            mx, mp, _, _ = quad_statistics(out, 0)
            assert mx == pytest.approx(g * mu[0], rel=1e-4, abs=1e-6)
            assert mp == pytest.approx(g * mu[1], rel=1e-4, abs=1e-6)


class TestRunTeleport:
    def test_classical_baseline_is_three_shot_units(self):
        cfg = TeleporterConfig(n_sq=1.0, eta_bell=1.0, eta_meas=1.0,
                               ff_gain_db=60.0, regime=Regime.CLASSICAL)
        out = run_teleport(cfg, make_vacuum(1))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vx == pytest.approx(3.000, abs=0.003)
        assert vp == pytest.approx(3.000, abs=0.003)

    def test_ideal_epr_approaches_unit_variance(self):
        cfg = TeleporterConfig(n_sq=1e-6, eta_bell=1.0, eta_meas=1.0,
                               ff_gain_db=60.0)
        out = run_teleport(cfg, make_vacuum(1))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vx == pytest.approx(1.0, abs=1e-4)
        assert vp == pytest.approx(1.0, abs=1e-4)

    def test_reference_configuration(self):
        cfg = TeleporterConfig(**REFERENCE, ff_gain_db=60.0)
        out = run_teleport(cfg, make_vacuum(1))
        _, _, vx, vp = quad_statistics(out, 0)
        assert vx == pytest.approx(1.520, abs=0.002)
        assert vp == pytest.approx(1.520, abs=0.002)

    def test_regime_monotonicity(self):
        quantum = TeleporterConfig(**REFERENCE, ff_gain_db=60.0)
        classical = TeleporterConfig(**REFERENCE, ff_gain_db=60.0,
                                     regime=Regime.CLASSICAL)
        vq = quad_statistics(run_teleport(quantum, make_vacuum(1)), 0)[2]
        vc = quad_statistics(run_teleport(classical, make_vacuum(1)), 0)[2]
        assert vq < vc

    def test_uncalibrated_config_rejected(self):
        # the tap is derived for unity gain; no config can carry another
        with pytest.raises(TypeError, match="tap_reflectivity"):
            TeleporterConfig(**REFERENCE, ff_gain_db=60.0, tap_reflectivity=0.1)

    def test_multimode_input_rejected(self):
        cfg = TeleporterConfig(**REFERENCE)
        with pytest.raises(ValueError):
            run_teleport(cfg, make_vacuum(2))

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("mean", [(0.0, 0.0), (1.5, -0.5)])
    def test_output_x_p_covariance_is_exactly_zero(self, regime, mean):
        # the teleporter adds its x and p noise independently, which is why
        # the Fock oracle's channel takes a diagonal noise covariance only
        rng = np.random.default_rng(36)
        eta_bell = np.append(rng.uniform(0.05, 1.0, 199), 1.0)
        floor_db = 10.0 * np.log10(2.0 / eta_bell)
        cfg = TeleporterConfig(
            n_sq=rng.uniform(0.01, 1.0, 200), eta_bell=eta_bell,
            eta_meas=rng.uniform(0.05, 1.0, 200),
            ff_gain_db=rng.uniform(floor_db + 1e-6, MAX_FF_GAIN_DB), regime=regime)
        out = run_teleport(cfg, coherent_state(1, 0, *mean))
        assert out.cov.shape == (200, 2, 2)
        assert np.all(out.cov[:, 0, 1] == 0.0) and np.all(out.cov[:, 1, 0] == 0.0)

    def test_finite_gain_convergence_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cfg = TeleporterConfig(n_sq=float(rng.uniform(0.1, 1.0)),
                                   eta_bell=float(rng.uniform(0.1, 1.0)),
                                   eta_meas=float(rng.uniform(0.1, 1.0)),
                                   ff_gain_db=60.0)
            out = run_teleport(cfg, make_vacuum(1))
            ref = analytic_noise_budget(cfg).n_out
            _, _, vx, vp = quad_statistics(out, 0)
            assert abs(vx - ref) / ref < 1e-3
            assert abs(vp - ref) / ref < 1e-3


class TestOutputRelationSigns:
    def test_displaced_ancillas(self):
        # displacing the ancillas must shift the output as (-x1, +x2) in x
        # and (+p1, +p2) in p, the defining signs of the output relation
        cfg = TeleporterConfig(n_sq=1.0, eta_bell=1.0, eta_meas=1.0,
                               ff_gain_db=80.0, regime=Regime.CLASSICAL)
        a1 = (0.8, -0.5)
        a2 = (-1.1, 0.6)
        mu = (2.0, 3.0)
        state = tensor(coherent_state(1, 0, *mu),
                       tensor(coherent_state(1, 0, *a1), coherent_state(1, 0, *a2)))
        out = teleport_circuit(state, cfg)
        mx, mp, _, _ = quad_statistics(out, 0)
        assert mx == pytest.approx(mu[0] - a1[0] + a2[0], abs=1e-3)
        assert mp == pytest.approx(mu[1] + a1[1] + a2[1], abs=1e-3)


class TestNoiseBudget:
    def test_reference_values(self):
        budget = analytic_noise_budget(TeleporterConfig(**REFERENCE))
        assert budget.n_out == pytest.approx(1.52, abs=5e-3)
        assert budget.n_out_db == pytest.approx(1.82, abs=5e-3)

    def test_classical_values(self):
        cfg = TeleporterConfig(**REFERENCE, regime=Regime.CLASSICAL)
        budget = analytic_noise_budget(cfg)
        assert budget.n_out == pytest.approx(3.00, abs=1e-12)
        assert budget.n_out_db == pytest.approx(4.77, abs=2e-3)
        assert budget.fidelity_vacuum == pytest.approx(0.5, abs=1e-12)

    def test_ideal_limit(self):
        cfg = TeleporterConfig(n_sq=1e-15, eta_bell=1.0, eta_meas=1.0)
        budget = analytic_noise_budget(cfg)
        assert budget.n_out == pytest.approx(1.0, abs=1e-12)
        assert budget.fidelity_vacuum == pytest.approx(1.0, abs=1e-12)

    def test_classical_loss_cancellation(self):
        # feedforward loss raises the classical noise, readout loss lowers
        # it; equal values cancel exactly at 3.0 for all efficiencies
        for eta in (0.5, 0.7, 0.9, 0.99):
            cfg = TeleporterConfig(n_sq=1.0, eta_bell=eta, eta_meas=eta,
                                   regime=Regime.CLASSICAL)
            assert analytic_noise_budget(cfg).n_out == pytest.approx(
                3.0, abs=1e-12)

    def test_vacuum_fidelity_from_the_fidelity_formula(self):
        eta = np.linspace(0.05, 1.0, 96)
        budget = analytic_noise_budget(TeleporterConfig(0.178, eta, eta[::-1]))
        assert np.array_equal(budget.fidelity_vacuum,
                              fidelity_from_variances(budget.n_out, budget.n_out))
        assert np.array_equal(budget.fidelity_vacuum, 2.0 / (1.0 + budget.n_out))

    def test_budget_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            cfg = TeleporterConfig(n_sq=float(rng.uniform(0.01, 1.0)),
                                   eta_bell=float(rng.uniform(0.1, 1.0)),
                                   eta_meas=float(rng.uniform(0.1, 1.0)))
            assert analytic_noise_budget(cfg).n_out >= 1.0


    def test_n_sq_override(self):
        # an n_sq array in the config gives the scalar budget at each point;
        # the classical regime still pins 1
        n_sq = np.array([0.3, 0.178])
        batch = analytic_noise_budget(replace(TeleporterConfig(**REFERENCE),
                                              n_sq=n_sq))
        for i, value in enumerate(n_sq):
            single = analytic_noise_budget(TeleporterConfig(value, 0.9, 0.9))
            assert batch.n_out[i] == single.n_out
            assert batch.n_out_db[i] == single.n_out_db
        classical = TeleporterConfig(**REFERENCE, regime=Regime.CLASSICAL)
        assert analytic_noise_budget(replace(classical, n_sq=n_sq)) == \
            analytic_noise_budget(classical)


class TestIntrinsicFromRaw:
    def test_broadband_quantum_points(self):
        v = intrinsic_from_raw(from_db(1.77), 0.9)
        assert to_db(v) == pytest.approx(1.93, abs=0.01)
        v = intrinsic_from_raw(from_db(1.73), 0.9)
        assert to_db(v) == pytest.approx(1.88, abs=0.01)

    def test_broadband_classical_points(self):
        v = intrinsic_from_raw(from_db(4.74), 0.9)
        assert to_db(v) == pytest.approx(5.05, abs=0.01)
        v = intrinsic_from_raw(from_db(4.58), 0.9)
        assert to_db(v) == pytest.approx(4.88, abs=0.01)

    def test_unit_efficiency_identity(self):
        assert intrinsic_from_raw(2.345, 1.0) == 2.345

    def test_unphysical_input_rejected(self):
        with pytest.raises(ValueError):
            intrinsic_from_raw(0.05, 0.9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            intrinsic_from_raw(np.nan, 0.9)

    @given(st.floats(min_value=0.05, max_value=10.0),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60)
    def test_inverts_loss_channel(self, variance, eta):
        lossy = eta * variance + (1 - eta)
        assert intrinsic_from_raw(lossy, eta) == pytest.approx(variance,
                                                               rel=1e-12)


class TestFidelityFromVariances:
    def test_exact_limits(self):
        assert fidelity_from_variances(3.0, 3.0) == 0.5
        assert fidelity_from_variances(2.0, 2.0) == pytest.approx(2 / 3,
                                                                  abs=1e-15)

    def test_reported_raw_fidelity(self):
        f = fidelity_from_variances(from_db(1.77), from_db(1.73))
        assert f == pytest.approx(0.801, abs=5e-4)

    def test_reported_intrinsic_fidelity(self):
        f = fidelity_from_variances(from_db(1.92), from_db(2.16))
        assert f == pytest.approx(0.770, abs=1e-3)

    def test_unit_variances(self):
        assert fidelity_from_variances(1.0, 1.0) == 1.0

    def test_symmetric_output_is_two_over_one_plus_n(self):
        # the vacuum fidelity of the budget: sqrt of the rounded square of
        # 1 + N is 1 + N, so both forms agree bit for bit below about 1e154
        rng = np.random.default_rng(3)
        n = np.concatenate([np.logspace(0, 146, 20001),
                            1.0 + rng.exponential(10.0, 20000)])
        assert np.array_equal(fidelity_from_variances(n, n), 2.0 / (1.0 + n))
        for value in n[::1000]:
            assert fidelity_from_variances(value, value) == 2.0 / (1.0 + value)

    @pytest.mark.parametrize("v", [1e160, np.float64(1e200), np.array([1e300])])
    def test_product_beyond_doubles_gives_zero(self, v):
        # a raw spectrum variance above about 1e154 overflowed with a warning
        assert fidelity_from_variances(v, v) == 0.0

    def test_array_with_nonpositive_variance_refused(self):
        with pytest.raises(ValueError, match="positive"):
            fidelity_from_variances(np.array([1.0, 0.0]), np.ones(2))

    @pytest.mark.parametrize("vx, vp", [(np.nan, 1.0), (1.0, np.nan),
                                        (np.array([1.0, np.nan]), np.ones(2))])
    def test_nan_variance_refused(self, vx, vp):
        with pytest.raises(ValueError, match="positive"):
            fidelity_from_variances(vx, vp)

    def test_nan_mismatch_refused(self):
        with pytest.raises(ValueError, match="mismatch_var"):
            fidelity_from_variances(1.0, 1.0, mismatch_var=np.nan)


class TestEstimatorReportFromRaw:
    """The one report constructor both harnesses call."""

    @staticmethod
    def fields(vx_raw_db, vp_raw_db, vx_raw, vp_raw, eta, mismatch_var,
               se_db, n_modes):
        # the formulas each harness carried before it called from_raw
        vx_int = intrinsic_from_raw(vx_raw, eta)
        vp_int = intrinsic_from_raw(vp_raw, eta)
        return (vx_raw_db, vp_raw_db, float(to_db(vx_int)),
                float(to_db(vp_int)),
                fidelity_from_variances(vx_raw, vp_raw, mismatch_var),
                fidelity_from_variances(vx_int, vp_int), se_db, n_modes)

    def test_seeded_spectrum_bit_for_bit(self):
        cfg = TeleporterConfig(**REFERENCE)
        record = synthesize_spectrum(cfg, SqueezingProfile(0.178),
                                     default_grid(401))
        record = apply_measurement_jitter(record, 0.06, seed=7)
        avg = band_average(record)
        vx_raw = from_db(avg["mean_vx_db"])
        vp_raw = from_db(avg["mean_vp_db"])
        assert astuple(spectrum_report(record, 0.9)) == self.fields(
            avg["mean_vx_db"], avg["mean_vp_db"], vx_raw, vp_raw, 0.9, 0.0,
            avg["se_db"], avg["n_bins"])

    @pytest.mark.parametrize("regime", list(Regime))
    def test_seeded_timetrace_bit_for_bit(self, regime):
        spec = SldSourceSpec(baseband_bandwidth_ghz=16.0,
                             filter_shape="gaussian")
        tracks = synth_random_coherent(spec, 4.0, seed=3)
        cfg = TeleporterConfig(**REFERENCE, regime=regime)
        modes = extract_modes(simulate_traces(cfg, tracks, 8, seed=4))
        g = math.sqrt(0.9)
        vx_raw = float(np.var(modes.x - g * modes.in_x, ddof=1))
        vp_raw = float(np.var(modes.p - g * modes.in_p, ddof=1))
        ens = lambda v: float(np.var(np.broadcast_to(v, modes.x.shape), ddof=1))
        sigma_ens = 0.5 * (ens(modes.in_x) + ens(modes.in_p))
        assert astuple(estimate_report(modes, 0.9)) == self.fields(
            float(to_db(vx_raw)), float(to_db(vp_raw)), vx_raw, vp_raw, 0.9,
            (1.0 - g) ** 2 * sigma_ens, variance_se_db(modes.n_modes),
            modes.n_modes)

    def test_spectrum_keeps_band_mean_db(self):
        # one in-band bin: the band mean is that bin's level exactly
        level = next(x for x in np.linspace(1.0, 2.0, 101)
                     if float(to_db(from_db(x))) != x)
        record = SpectrumRecord(np.array([0.0, 0.5]), np.full(2, level),
                                np.full(2, level))
        report = spectrum_report(record, 0.9)
        assert report.vx_raw_db == report.vp_raw_db == level
        assert report.vx_raw_db != float(to_db(from_db(level)))

    @pytest.mark.parametrize("raw, mismatch_var", [
        ((np.inf, 0.0), 0.0),      # refused as not finite before degenerate
        ((np.nan, 1.5), 0.0),
        ((1.5, 1.6), np.nan),
        ((1.5, 1.6), np.inf),
    ])
    def test_non_finite_input_refused_first(self, raw, mismatch_var):
        with pytest.raises(ValueError, match="not finite"):
            EstimatorReport.from_raw(raw, 0.9, 0.1, 100, mismatch_var)

    def test_zero_variance_refused_before_to_db(self):
        # to_db(0) would warn, and warnings are errors in this suite
        with pytest.raises(ValueError, match="degenerate"):
            EstimatorReport.from_raw((1.5, 0.0), 0.9, 0.1, 100)

    def test_below_loss_floor_refused(self):
        with pytest.raises(ValueError, match="unphysical"):
            EstimatorReport.from_raw((0.05, 1.5), 0.9, 0.1, 100)

    @pytest.mark.parametrize("raw, se_db, raw_db", [
        ((1e308, 1.5), 0.1, None),        # the loss inversion overflows
        ((np.float64(1e308), 1.5), 0.1, None),  # ... without a warning
        ((1.5, 1.6), np.nan, None),
        ((1.5, 1.6), 0.1, (np.inf, 2.0)),
    ])
    def test_non_finite_field_refused(self, raw, se_db, raw_db):
        with pytest.raises(ValueError, match="not finite"):
            EstimatorReport.from_raw(raw, 0.5, se_db, 100, raw_db=raw_db)

    def test_fidelity_above_one_not_clipped(self):
        # sampled variances below vacuum give an honest F > 1
        report = EstimatorReport.from_raw((0.9, 0.95), 1.0, 0.1, 100)
        assert report.f_raw == report.f_int == \
            2.0 / math.sqrt((1.0 + 0.9) * (1.0 + 0.95))
        assert report.f_raw > 1.0


class TestConfigValidation:
    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            TeleporterConfig(n_sq=0.2, eta_bell=0.0, eta_meas=0.9)
        with pytest.raises(ValueError):
            TeleporterConfig(n_sq=0.2, eta_bell=0.9, eta_meas=1.2)

    def test_n_sq_bounds(self):
        with pytest.raises(ValueError):
            TeleporterConfig(n_sq=0.0, eta_bell=0.9, eta_meas=0.9)

    def test_auto_calibration(self):
        cfg = TeleporterConfig(**REFERENCE, ff_gain_db=60.0)
        assert cfg.tap_reflectivity == calibrate_unity_gain(60.0, 0.9)
        # replace recalibrates the tap for the new gain
        cfg = replace(cfg, ff_gain_db=50.0)
        assert cfg.tap_reflectivity == calibrate_unity_gain(50.0, 0.9)


# -- batches ------------------------------------------------------------

def _scaling(d, i, f):
    m = np.eye(d)
    m[i, i] = f
    m[i ^ 1, i ^ 1] = 1.0 / f
    return m


def _splitter(d, i, j, transmissivity):
    t, r = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    m = np.eye(d)
    for q in range(2):
        a, b = 2 * i + q, 2 * j + q
        m[a, a], m[a, b], m[b, a], m[b, b] = t, r, -r, t
    return m


def _lossy(cov, mode, eta):
    x = np.ones(len(cov))
    x[2 * mode] = x[2 * mode + 1] = np.sqrt(eta)
    add = np.zeros(len(cov))
    add[2 * mode] = add[2 * mode + 1] = 1.0 - eta
    return cov * np.outer(x, x) + np.diag(add)


def reference_circuit(n_sq, eta_bell, eta_meas, ff_gain_db, regime):
    """Output (vx, vp) of one vacuum teleportation, step by step as plain 2-d
    products with scalar powers: the per-point circuit a batch must equal."""
    cov = np.eye(6)
    if regime is Regime.QUANTUM:
        squeezing_db = -10.0 * np.log10(n_sq)
        s = 10.0 ** (-squeezing_db / 20.0)
        for m in (_scaling(4, 0, s), _scaling(4, 3, s), _splitter(4, 0, 1, 0.5)):
            cov[2:, 2:] = m @ cov[2:, 2:] @ m.T
    eps = 2.0 / (eta_bell * 10.0 ** (ff_gain_db / 10.0))
    g = 10.0 ** (ff_gain_db / 20.0)
    steps = [_splitter(6, 1, 0, 0.5), ("loss", 0, eta_bell),
             ("loss", 1, eta_bell), _scaling(6, 0, g), _scaling(6, 3, g),
             _splitter(6, 2, 0, 1.0 - eps), _splitter(6, 2, 1, 1.0 - eps),
             ("loss", 2, eta_meas)]
    for step in steps:
        if isinstance(step, tuple):
            cov = _lossy(cov, step[1], step[2])
        else:
            cov = step @ cov @ step.T
    return cov[4, 4], cov[5, 5]


def reference_budget(n_sq, eta_bell, eta_meas, regime):
    if regime is Regime.CLASSICAL:
        n_sq = 1.0
    n_out = (eta_meas * (1.0 + 2.0 * n_sq + 2.0 * (1.0 - eta_bell) / eta_bell)
             + (1.0 - eta_meas))
    return n_out, 10.0 * np.log10(n_out), 2.0 / (1.0 + n_out)


SWEEPS = [("n_sq", 0.05, 1.0), ("eta_bell", 0.5, 1.0), ("eta_meas", 0.5, 1.0),
          ("ff_gain_db", 40.0, 70.0), ("ff_gain_db", 10.0, 120.0),
          ("n_sq", 0.001, 1.0)]


class TestBatchedCircuit:
    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("param,lo,hi", SWEEPS)
    def test_sweep_equals_per_point_reference(self, param, lo, hi, regime):
        base = dict(REFERENCE, ff_gain_db=60.0)
        values = np.linspace(lo, hi, 41)
        cfg = TeleporterConfig(**dict(base, **{param: values}), regime=regime)
        _, _, vx, vp = quad_statistics(run_teleport(cfg, make_vacuum(1)), 0)
        budget = analytic_noise_budget(cfg)
        ref = np.array([reference_circuit(**dict(base, **{param: v}),
                                          regime=regime)
                        for v in values.tolist()])
        assert np.array_equal(np.broadcast_to(vx, values.shape), ref[:, 0])
        assert np.array_equal(np.broadcast_to(vp, values.shape), ref[:, 1])
        budget_ref = np.array([
            reference_budget(**{k: v for k, v in dict(base, **{param: x}).items()
                                if k != "ff_gain_db"}, regime=regime)
            for x in values.tolist()])
        for column, field in zip(budget_ref.T, ("n_out", "n_out_db",
                                                "fidelity_vacuum")):
            assert np.array_equal(
                np.broadcast_to(getattr(budget, field), values.shape), column)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_batch_of_one_equals_scalar_call(self, regime):
        scalar = TeleporterConfig(0.31, 0.87, 0.93, 47.5, regime=regime)
        batch = TeleporterConfig([0.31], [0.87], [0.93], [47.5], regime=regime)
        state = coherent_state(1, 0, 1.5, -0.5)
        one, many = run_teleport(scalar, state), run_teleport(batch, state)
        assert many.cov.shape == (1, 2, 2)
        assert np.array_equal(many.cov[0], one.cov)
        assert np.array_equal(many.mean[0], one.mean)
        for field in ("n_out", "n_out_db", "fidelity_vacuum"):
            assert getattr(analytic_noise_budget(batch), field)[0] == \
                getattr(analytic_noise_budget(scalar), field)
        assert batch.tap_reflectivity[0] == scalar.tap_reflectivity

    def test_calibrated_taps_equal_scalar_calibration(self):
        # the vectorised 10 ** x differs from the scalar power in the last bit
        # for about 5% of values; the tap of each point is the scalar one
        rng = np.random.default_rng(21)
        gain_db = rng.uniform(4.0, MAX_FF_GAIN_DB, 400)
        eta_bell = rng.uniform(0.9, 1.0, 400)
        cfg = TeleporterConfig(0.5, eta_bell, 0.9, gain_db)
        assert np.array_equal(cfg.tap_reflectivity, [
            calibrate_unity_gain(g, e)
            for g, e in zip(gain_db.tolist(), eta_bell.tolist())])

    @pytest.mark.parametrize("field,values", [
        ("n_sq", [0.5, 0.0, 0.2]), ("eta_bell", [0.9, 1.01]),
        ("eta_meas", [math.nan, 0.5])])
    def test_point_out_of_range_rejected(self, field, values):
        with pytest.raises(ValueError, match=field):
            TeleporterConfig(**dict(REFERENCE, **{field: np.array(values)}))

    @pytest.mark.parametrize("gain_db", [[60.0, 4000.0], [60.0, 3.0]])
    def test_gain_range_checked_per_point(self, gain_db):
        with pytest.raises(ValueError, match="MAX_FF_GAIN_DB|too low"):
            TeleporterConfig(**REFERENCE, ff_gain_db=np.array(gain_db))


class TestExplicitTapGainRange:
    @pytest.mark.parametrize("gain_db,error", [
        (4000.0, "MAX_FF_GAIN_DB"), (121.0, "MAX_FF_GAIN_DB"),
        (3.0, "too low"), (-4000.0, "too low")])
    def test_gain_range_checked_with_explicit_tap(self, gain_db, error):
        # the floor at eta_bell = 0.9 is 3.47 dB
        with pytest.raises(ValueError, match=error):
            TeleporterConfig(**REFERENCE, ff_gain_db=gain_db)


# every array record, built from fresh valid arrays by keyword
ARRAY_RECORDS = {
    GaussianState: lambda: dict(n_modes=1, mean=np.zeros(2), cov=np.eye(2)),
    SymplecticTransform: lambda: dict(matrix=np.eye(2)),
    TeleporterConfig: lambda: dict(n_sq=np.full(2, 0.5), eta_bell=np.full(2, 0.9),
                                   eta_meas=np.full(2, 0.9),
                                   ff_gain_db=np.full(2, 60.0)),
    SpectrumRecord: lambda: dict(omega_thz=np.arange(3.0), vx_db=np.zeros(3),
                                 vp_db=np.zeros(3)),
    AmplitudeTracks: lambda: dict(mean_x=np.zeros(4), mean_p=np.zeros(4)),
    TimeTrace: lambda: dict(x_samples=np.zeros((2, 4)), p_samples=np.zeros((2, 4)),
                            input_mean_x=np.zeros(4), input_mean_p=np.zeros(4)),
    WavepacketModes: lambda: dict(window_ps=42.0, x=np.zeros((2, 4)),
                                  p=np.zeros((2, 4)), in_x=np.zeros(4),
                                  in_p=np.zeros(4)),
}
ARRAY_FIELDS = [(record, name) for record, build in ARRAY_RECORDS.items()
                for name, value in build().items() if isinstance(value, np.ndarray)]


class TestArrayRecords:
    """One rule for every array record: finite, read-only views."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("record,name", ARRAY_FIELDS,
                             ids=lambda v: getattr(v, "__name__", v))
    def test_non_finite_entry_refused_by_name(self, record, name, bad):
        kwargs = ARRAY_RECORDS[record]()
        kwargs[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
            record(**kwargs)

    def test_operations_share_no_memory_with_inputs(self):
        # records keep views of what they are given, so every operation
        # must hand its new record fresh arrays; these inputs tempt a view
        state = coherent_state(2, 0, 1.0, -0.5)
        single = coherent_state(1, 0, 0.3, 0.2)
        s = beamsplitter(2, 0, 1, 0.3)
        n_sq = np.array([0.2, 0.5])
        config = TeleporterConfig(n_sq, 0.9, np.array([0.8, 1.0]))
        cases = [
            (apply_symplectic(state, s), (state.mean, state.cov, s.matrix)),
            (apply_loss(state, 1, 1.0), (state.mean, state.cov)),
            (tensor(single, single), (single.mean, single.cov)),
            (partial_trace(state, [0, 1]), (state.mean, state.cov)),
            (build_epr(n_sq), (n_sq,)),
            (run_teleport(config, single),
             (single.mean, single.cov, n_sq, config.eta_meas,
              config.tap_reflectivity)),
        ]
        for out, inputs in cases:
            for arr in (out.mean, out.cov):
                for given_arr in inputs:
                    assert not np.shares_memory(arr, given_arr)
