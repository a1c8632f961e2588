"""Tests for the teleportation circuit and analytic noise budget."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.gaussian import (
    coherent_state,
    displace,
    from_db,
    make_vacuum,
    quad_statistics,
    tensor,
    to_db,
)
from cvteleport.teleporter import (
    CalibrationError,
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
        cfg = TeleporterConfig(**REFERENCE, ff_gain_db=60.0, tap_reflectivity=0.1)
        with pytest.raises(CalibrationError):
            run_teleport(cfg, make_vacuum(1))
        out = teleport_circuit(tensor(make_vacuum(1), build_epr(cfg.n_sq)), cfg)
        assert out.n_modes == 1

    def test_multimode_input_rejected(self):
        cfg = TeleporterConfig(**REFERENCE)
        with pytest.raises(ValueError):
            run_teleport(cfg, make_vacuum(2))

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
        state = tensor(coherent_state(1, 0, *mu), make_vacuum(2))
        state = displace(state, 1, *a1)
        state = displace(state, 2, *a2)
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
        assert cfg.tap_reflectivity == pytest.approx(
            calibrate_unity_gain(60.0, 0.9), rel=1e-15)
        assert cfg.is_unity_gain()

    def test_explicit_tap_bounds(self):
        with pytest.raises(ValueError):
            TeleporterConfig(**REFERENCE, tap_reflectivity=1.5)


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


def reference_circuit(n_sq, eta_bell, eta_meas, ff_gain_db, regime, tap=None):
    """Output (vx, vp) of one vacuum teleportation, step by step as plain 2-d
    products with scalar powers: the per-point circuit a batch must equal."""
    cov = np.eye(6)
    if regime is Regime.QUANTUM:
        squeezing_db = -10.0 * np.log10(n_sq)
        s = 10.0 ** (-squeezing_db / 20.0)
        for m in (_scaling(4, 0, s), _scaling(4, 3, s), _splitter(4, 0, 1, 0.5)):
            cov[2:, 2:] = m @ cov[2:, 2:] @ m.T
    eps = tap if tap is not None else \
        2.0 / (eta_bell * 10.0 ** (ff_gain_db / 10.0))
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

    def test_explicit_tap_kept_at_every_point(self):
        tap = calibrate_unity_gain(60.0, 0.9) * (1 + 1e-7)
        n_sq = np.linspace(0.1, 1.0, 5)
        cfg = TeleporterConfig(n_sq, 0.9, 0.9, 60.0, tap_reflectivity=tap)
        assert cfg.tap_reflectivity == tap and cfg.is_unity_gain(rel_tol=1e-6)
        _, _, vx, _ = quad_statistics(run_teleport(cfg, make_vacuum(1)), 0)
        for k, v in enumerate(n_sq.tolist()):
            assert vx[k] == reference_circuit(v, 0.9, 0.9, 60.0, Regime.QUANTUM,
                                              tap=tap)[0]

    def test_one_point_off_unity_gain_rejected(self):
        tap = calibrate_unity_gain(60.0, 0.9)
        cfg = TeleporterConfig(0.2, [0.9, 0.9, 0.8], 0.9, 60.0,
                               tap_reflectivity=tap)
        assert not cfg.is_unity_gain(rel_tol=1e-6)
        with pytest.raises(CalibrationError):
            run_teleport(cfg, make_vacuum(1))

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
            TeleporterConfig(**REFERENCE, ff_gain_db=gain_db,
                             tap_reflectivity=0.001)
