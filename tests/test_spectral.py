"""Tests for the frequency-domain harness."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvteleport import cli
from cvteleport.config import load_config
from cvteleport.spectral import (
    LowFreqExcess,
    SpectrumRecord,
    SqueezingProfile,
    apply_measurement_jitter,
    band_average,
    default_grid,
    spectrum_report,
    synthesize_spectrum,
)
from cvteleport.teleporter import (
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
)

REF_CFG = TeleporterConfig(n_sq=0.178, eta_bell=0.9, eta_meas=0.9)
FLAT = SqueezingProfile(n_sq_center=0.178)
REFERENCE_QUANTUM = str(Path(__file__).resolve().parents[1] / "configs"
                        / "reference_quantum.cfg")
# fixed before the first run, and never moved to get a pass
ENSEMBLE_SEEDS = range(40)


def constant_record(vx_db, vp_db, points=321):
    omega = default_grid(points)
    return SpectrumRecord(omega, np.full(points, float(vx_db)),
                          np.full(points, float(vp_db)))


class TestSynthesize:
    def test_flat_reference_plateau(self):
        record = synthesize_spectrum(REF_CFG, FLAT, default_grid(101))
        assert np.allclose(record.vx_db, 1.82, atol=5e-3)
        assert np.allclose(record.vp_db, record.vx_db, atol=0)

    def test_classical_plateau(self):
        cfg = TeleporterConfig(n_sq=0.178, eta_bell=0.9, eta_meas=0.9,
                               regime=Regime.CLASSICAL)
        record = synthesize_spectrum(cfg, FLAT, default_grid(51))
        assert np.allclose(record.vx_db, 4.77, atol=2e-3)

    def test_low_frequency_excess_raises_inner_bins(self):
        profile = SqueezingProfile(
            0.178, low_freq_excess=LowFreqExcess(cutoff_thz=0.2,
                                                 amplitude_db=6.0))
        record = synthesize_spectrum(REF_CFG, profile, default_grid(401))
        inner = np.abs(record.omega_thz) < 0.18  # margin off the cutoff edge
        outer = np.abs(record.omega_thz) >= 0.2
        plateau = record.vx_db[outer][0]
        assert np.all(record.vx_db[inner] > plateau)
        assert np.allclose(record.vx_db[outer], plateau, atol=1e-12)

    @pytest.mark.parametrize("cutoff", [1e-310, 5e-324])
    def test_subnormal_excess_cutoff_leaves_only_dc(self, cutoff):
        # omega / cutoff overflows to inf off the carrier: no excess there
        excess = LowFreqExcess(cutoff, 3.0).excess_db([-0.5, 0.0, 0.5])
        assert np.array_equal(excess, [0.0, 3.0, 0.0])

    def test_symmetry_exact(self):
        profile = SqueezingProfile(0.3, rolloff_bandwidth_thz=0.5,
                                   low_freq_excess=LowFreqExcess(0.15, 4.0))
        record = synthesize_spectrum(REF_CFG, profile, default_grid(201))
        assert np.array_equal(record.vx_db, record.vx_db[::-1])

    def test_rolloff_relaxes_toward_classical(self):
        profile = SqueezingProfile(0.178, rolloff_bandwidth_thz=0.3)
        record = synthesize_spectrum(REF_CFG, profile, default_grid(201))
        center = record.vx_db[100]
        edge = record.vx_db[0]
        assert edge > center

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("rolloff", [None, 0.4])
    @pytest.mark.parametrize("excess", [LowFreqExcess(),
                                        LowFreqExcess(0.25, 3.0, 1.5)])
    def test_matches_per_bin_scalar_budget(self, regime, rolloff, excess):
        # one array call to the budget gives, bit for bit, the scalar budget
        # evaluated bin by bin on N_sq(|omega|) plus the excess
        cfg = TeleporterConfig(n_sq=0.2, eta_bell=0.85, eta_meas=0.93,
                               regime=regime)
        profile = SqueezingProfile(0.15, rolloff, excess)
        omega = default_grid(401)
        expected = np.empty_like(omega)
        for i, n_sq in enumerate(profile.n_sq(np.abs(omega))):
            expected[i] = analytic_noise_budget(
                replace(cfg, n_sq=float(n_sq))).n_out_db
        expected = expected + excess.excess_db(omega)
        record = synthesize_spectrum(cfg, profile, omega)
        assert np.array_equal(record.vx_db, expected)
        assert np.array_equal(record.vp_db, expected)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            synthesize_spectrum(REF_CFG, FLAT, np.array([]))

    def test_wide_grid_warns(self):
        with pytest.warns(UserWarning, match="1 THz"):
            synthesize_spectrum(REF_CFG, FLAT, np.linspace(-2, 2, 11))


class TestDefaultGrid:
    @pytest.mark.parametrize("points", [2, 3, 4, 6, 400, 401])
    def test_uniform_and_exactly_symmetric(self, points):
        # every step, the one across the carrier too, is 2 E / (points - 1)
        grid = default_grid(points, 0.8)
        assert grid.size == points and grid[-1] == 0.8
        assert np.array_equal(grid, -grid[::-1])
        assert np.allclose(np.diff(grid), 1.6 / (points - 1), rtol=1e-12, atol=0)


class TestJitter:
    def test_zero_sigma_identity(self):
        record = synthesize_spectrum(REF_CFG, FLAT, default_grid(51))
        jittered = apply_measurement_jitter(record, 0.0, seed=1)
        assert np.array_equal(jittered.vx_db, record.vx_db)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_refused(self, sigma):
        # the refusal came later, naming vx_db
        with pytest.raises(ValueError, match="sigma_gain_db must be >= 0"):
            apply_measurement_jitter(constant_record(0.0, 0.0), sigma)

    def test_sample_std_matches_sigma(self):
        record = synthesize_spectrum(REF_CFG, FLAT, default_grid(10_000))
        jittered = apply_measurement_jitter(record, 0.06, seed=3)
        std = np.std(jittered.vx_db - record.vx_db, ddof=1)
        assert 0.055 < std < 0.065

    def test_deterministic_per_seed(self):
        record = synthesize_spectrum(REF_CFG, FLAT, default_grid(101))
        a = apply_measurement_jitter(record, 0.06, seed=11)
        b = apply_measurement_jitter(record, 0.06, seed=11)
        assert np.array_equal(a.vx_db, b.vx_db)
        assert np.array_equal(a.vp_db, b.vp_db)
        c = apply_measurement_jitter(record, 0.06, seed=12)
        assert not np.array_equal(a.vx_db, c.vx_db)

    def test_mean_zero(self):
        record = synthesize_spectrum(REF_CFG, FLAT,
                                     np.linspace(-1, 1, 120_001))
        jittered = apply_measurement_jitter(record, 0.06, seed=5)
        se = 0.06 / np.sqrt(record.omega_thz.size)
        assert abs(np.mean(jittered.vx_db - record.vx_db)) < 3 * se


class TestBandAverage:
    def test_constant_spectrum_exact(self):
        record = constant_record(1.77, 1.77)
        avg = band_average(record)
        assert avg["mean_vx_db"] == pytest.approx(1.77, abs=1e-12)

    def test_jittered_classical_plateau(self):
        cfg = TeleporterConfig(n_sq=1.0, eta_bell=0.9, eta_meas=0.9,
                               regime=Regime.CLASSICAL)
        record = synthesize_spectrum(cfg, FLAT, default_grid(20_001))
        jittered = apply_measurement_jitter(record, 0.06, seed=8)
        avg = band_average(jittered)
        assert avg["mean_vx_db"] == pytest.approx(4.77, abs=0.01)

    def test_bins_only_inside_exclusion_rejected(self):
        omega = np.linspace(-0.15, 0.15, 31)
        record = SpectrumRecord(omega, np.ones(31), np.ones(31))
        with pytest.raises(ValueError, match="bins"):
            band_average(record)

    def test_excludes_low_frequency_bins(self):
        profile = SqueezingProfile(
            0.178, low_freq_excess=LowFreqExcess(cutoff_thz=0.2,
                                                 amplitude_db=10.0))
        record = synthesize_spectrum(REF_CFG, profile, default_grid(401))
        avg = band_average(record)
        assert avg["mean_vx_db"] == pytest.approx(1.8196, abs=1e-3)


    def test_se_db_follows_its_chi_square_law(self, tmp_path):
        # on a flat model spectrum the band holds n i.i.d. N(0, sigma^2) jitter
        # offsets per quadrature, so 2 n (n - 1) se_db^2 / sigma^2 =
        # (n - 1)(s_x^2 + s_p^2) / sigma^2 follows chi^2 with 2(n - 1) degrees
        # of freedom; the mean over the seed ensemble must sit within 4.5
        # standard errors of it
        cfg = load_config(REFERENCE_QUANTUM)
        sp = cfg.spectrum
        model = synthesize_spectrum(cfg.teleporter, sp.profile(),
                                    default_grid(sp.grid_points, sp.band_edge_thz))
        omega = np.abs(model.omega_thz)
        band = (omega >= sp.exclude_below_thz) & (omega <= sp.band_edge_thz)
        assert np.ptp(model.vx_db[band]) == np.ptp(model.vp_db[band]) == 0.0
        pivots = []
        for seed in ENSEMBLE_SEEDS:
            out = tmp_path / str(seed)
            assert cli.main(["spectrum", REFERENCE_QUANTUM, "--seed", str(seed),
                             "--out-dir", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            n, sigma = report["n_modes"], report["jitter_sigma_db"]
            pivots.append(2 * n * (n - 1) * report["se_db"] ** 2 / sigma ** 2)
        assert n == np.count_nonzero(band) == 322
        dof = 2 * (n - 1)
        z = (np.mean(pivots) - dof) / math.sqrt(2 * dof / len(pivots))
        assert abs(z) <= 4.5, f"mean pivot at z = {z:+.2f} from its chi^2 law"

class TestSpectrumReport:
    def test_quantum_regression_from_reported_raw_averages(self):
        report = spectrum_report(constant_record(1.77, 1.73), eta_meas=0.9)
        assert report.vx_int_db == pytest.approx(1.93, abs=0.01)
        assert report.vp_int_db == pytest.approx(1.88, abs=0.01)
        assert report.f_raw == pytest.approx(0.801, abs=1e-3)
        assert report.f_int == pytest.approx(0.784, abs=1e-3)

    def test_classical_regression_from_reported_raw_averages(self):
        report = spectrum_report(constant_record(4.74, 4.58), eta_meas=0.9)
        assert report.vx_int_db == pytest.approx(5.05, abs=0.01)
        assert report.vp_int_db == pytest.approx(4.88, abs=0.01)

    def test_unit_efficiency_keeps_raw(self):
        report = spectrum_report(constant_record(2.0, 2.0), eta_meas=1.0)
        assert report.vx_int_db == pytest.approx(report.vx_raw_db, abs=1e-12)

    def test_unphysical_raw_rejected(self):
        low = constant_record(-11.0, -11.0)  # below the 1 - eta floor
        with pytest.raises(ValueError):
            spectrum_report(low, eta_meas=0.9)


class TestRecordValidation:
    def test_non_increasing_omega_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectrumRecord(np.array([0.0, 0.0, 0.1]), np.zeros(3), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SpectrumRecord(np.array([0.0, 0.1]), np.array([1.0, np.inf]),
                           np.zeros(2))

    @pytest.mark.parametrize("omega", [[-0.5, np.nan, 0.5], [np.nan, np.nan],
                                       [np.nan], [-np.inf, 0.0, np.inf]])
    def test_non_finite_omega_rejected(self, omega):
        # a NaN step passes the order check; the grid is refused by name
        with pytest.raises(ValueError, match="omega_thz contains non-finite"):
            SpectrumRecord(np.array(omega), np.zeros(len(omega)),
                           np.zeros(len(omega)))

    def test_caller_arrays_stay_writable(self):
        grid = default_grid(21)
        synthesize_spectrum(REF_CFG, FLAT, grid)
        grid[0] = 1.0
        vx, vp = np.zeros(3), np.zeros(3)
        record = SpectrumRecord(np.arange(3.0), vx, vp)
        vx[0] = vp[0] = 1.0
        for arr in (record.omega_thz, record.vx_db, record.vp_db):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SqueezingProfile(0.0)
        with pytest.raises(ValueError):
            SqueezingProfile(0.5, rolloff_bandwidth_thz=-1.0)

    def test_nan_rolloff_refused(self):
        with pytest.raises(ValueError, match="rolloff_bandwidth_thz must be positive"):
            SqueezingProfile(0.5, rolloff_bandwidth_thz=np.nan)

    @pytest.mark.parametrize("field,message", [
        ("cutoff_thz", "cutoff_thz must be >= 0"),
        ("amplitude_db", "amplitude_db must be finite"),
        ("exponent", "exponent must be finite")], ids=["cutoff", "amplitude", "exponent"])
    def test_nan_excess_refused(self, field, message):
        with pytest.raises(ValueError, match=message):
            LowFreqExcess(**{"cutoff_thz": 0.1, "amplitude_db": 3.0, field: np.nan})

    def test_negative_exponent_refused(self):
        # (1 - |omega|/cutoff)^exponent was infinite at the cutoff, and the
        # refusal came later, naming vx_db
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            LowFreqExcess(0.5, 3.0, -1.0)
        flat = LowFreqExcess(0.5, 3.0, 0.0).excess_db([0.0, 0.4, 0.6])
        assert np.array_equal(flat, [3.0, 3.0, 3.0])
