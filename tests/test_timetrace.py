"""Tests for the time-domain harness: source synthesis, trace simulation,
temporal-mode extraction and the variance/fidelity estimators."""

import math
import tracemalloc

import numpy as np
import pytest

from cvteleport.teleporter import (
    CalibrationError,
    Regime,
    TeleporterConfig,
    fidelity_from_variances,
    intrinsic_from_raw,
)
from cvteleport.timetrace import (
    DT_PS,
    SAMPLE_RATE_GSPS,
    SldSourceSpec,
    TimeTrace,
    WavepacketModes,
    adjacent_mode_correlation,
    concatenate_modes,
    estimate_report,
    extract_modes,
    quantize_trace,
    simulate_traces,
    synth_random_coherent,
    variance_se_db,
    window_tiling,
    _mean_mode_variance,
)

REFERENCE = dict(n_sq=0.178, eta_bell=0.9, eta_meas=0.9)
SOURCE = SldSourceSpec(baseband_bandwidth_ghz=16.0, filter_shape="gaussian")


def near_ideal_config():
    return TeleporterConfig(n_sq=1e-9, eta_bell=1.0, eta_meas=1.0,
                            ff_gain_db=60.0)


def modes_of_tracks(tracks, window_ps=42.0):
    """Wrap clean amplitude tracks as modes (source-statistics helper)."""
    trace = TimeTrace(x_samples=tracks.mean_x, p_samples=tracks.mean_p,
                      input_mean_x=tracks.mean_x, input_mean_p=tracks.mean_p)
    return extract_modes(trace, window_ps)


def reference_tiling(n_samples, window_ps):
    """Per-window (indices, weights), built one window at a time."""
    t = np.arange(n_samples) * DT_PS
    sigma = window_ps / 6.0
    tiles = []
    for k in range(int(math.floor(n_samples * DT_PS / window_ps))):
        lo = k * window_ps
        hi = lo + window_ps
        idx = np.arange(int(np.searchsorted(t, lo, side="left")),
                        int(np.searchsorted(t, hi, side="left")))
        w = np.exp(-0.5 * ((t[idx] - 0.5 * (lo + hi)) / sigma) ** 2)
        tiles.append((idx, w / np.sqrt(w @ w)))
    return tiles


def reference_modes(traces, window_ps):
    """Pooled (x_k, p_k, in_x_k, in_p_k): per trace, per window, w @ x[idx]."""
    tiles = reference_tiling(traces.n_samples, window_ps)
    cols = ([], [], [], [])
    for x, p in zip(traces.x_samples, traces.p_samples):
        for idx, w in tiles:
            for col, v in zip(cols, (x, p, traces.input_mean_x,
                                     traces.input_mean_p)):
                col.append(w @ v[idx])
    return [np.array(c) for c in cols]


def windows_in_mode_order(tiles):
    """(indices, weights) per window, ordered by window number."""
    flat = [(k, idx, w) for ks, idxs, ws in tiles
            for k, idx, w in zip(ks, idxs, ws)]
    return [(idx, w) for _, idx, w in sorted(flat, key=lambda e: e[0])]


class TestWindowTiling:
    def test_mode_count_is_floor_duration_over_window(self):
        n = 1024  # 4000 ps
        tiles = windows_in_mode_order(window_tiling(n, 42.0))
        assert len(tiles) == math.floor(n * DT_PS / 42.0) == 95

    def test_windows_abut_without_overlap(self):
        tiles = windows_in_mode_order(window_tiling(512, 42.0))
        seen = np.concatenate([idx for idx, _ in tiles])
        assert np.array_equal(seen, np.arange(seen.size))

    def test_weights_unit_power(self):
        for idx, w in windows_in_mode_order(window_tiling(512, 42.0)):
            assert w @ w == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("window_ps", [42.0, 10.0])
    def test_matches_per_window_construction(self, window_ps):
        tiles = windows_in_mode_order(window_tiling(2048, window_ps))
        reference = reference_tiling(2048, window_ps)
        assert len(tiles) == len(reference)
        for (idx, w), (ref_idx, ref_w) in zip(tiles, reference):
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(w, ref_w)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            window_tiling(8, 42.0)

    @pytest.mark.parametrize("window_ps", [42.0, 10.0])
    def test_mean_mode_variance_matches_per_window_sum(self, window_ps):
        # the noise scale of every trace hangs on this value's last bits
        f = np.fft.rfftfreq(2048, d=1.0 / SAMPLE_RATE_GSPS)
        power = np.exp(-np.log(2.0) * (f / 70.0) ** 2)
        r = np.fft.irfft(power, n=2048)
        total = 0.0
        reference = reference_tiling(2048, window_ps)
        for idx, w in reference:
            total += float(w @ r[np.abs(idx[:, None] - idx[None, :])] @ w)
        tiles = window_tiling(2048, window_ps)
        assert _mean_mode_variance(power, 2048, tiles) == total / len(reference)

    def test_mean_mode_variance_memory_independent_of_mode_count(self):
        # 100 windows of 256 samples: one (L, L) covariance per window group
        # is 0.5 MB, a covariance per window would be 52 MB
        n = 25_600
        f = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_GSPS)
        power = np.exp(-np.log(2.0) * (f / 70.0) ** 2)
        tiles = window_tiling(n, 1000.0)
        assert [w.shape for _, _, w in tiles] == [(100, 256)]
        tracemalloc.start()
        try:
            _mean_mode_variance(power, n, tiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSourceSynthesis:
    def test_zero_ensemble_variance_gives_zero_tracks(self):
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 2.0, seed=1)
        assert not np.any(tracks.mean_x)
        assert not np.any(tracks.mean_p)

    def test_autocorrelation_decays_by_42ps_raised_cosine(self):
        spec = SldSourceSpec(baseband_bandwidth_ghz=55.0,
                            filter_shape="raised_cosine")
        tracks = synth_random_coherent(spec, 500.0, seed=2)
        lag = int(round(42.0 / DT_PS))
        x = tracks.mean_x
        rho = np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert abs(rho) < 0.02

    def test_autocorrelation_decays_by_42ps_calibrated_gaussian(self):
        tracks = synth_random_coherent(SOURCE, 500.0, seed=3)
        lag = int(round(42.0 / DT_PS))
        x = tracks.mean_x
        assert abs(np.corrcoef(x[:-lag], x[lag:])[0, 1]) < 0.02

    def test_mode_mean_variance_hits_ensemble_target(self):
        tracks = synth_random_coherent(SOURCE, 500.0, seed=4)  # ~11900 modes
        modes = modes_of_tracks(tracks)
        assert modes.n_modes >= 10_000
        for vals in (modes.x_k, modes.p_k):
            var = np.var(vals, ddof=1)
            assert var == pytest.approx(SOURCE.ensemble_var_shot, rel=0.05)

    def test_deterministic_per_seed(self):
        a = synth_random_coherent(SOURCE, 2.0, seed=7)
        b = synth_random_coherent(SOURCE, 2.0, seed=7)
        assert np.array_equal(a.mean_x, b.mean_x)
        c = synth_random_coherent(SOURCE, 2.0, seed=8)
        assert not np.array_equal(a.mean_x, c.mean_x)

    def test_short_duration_rejected(self):
        with pytest.raises(ValueError):
            synth_random_coherent(SOURCE, 0.5, seed=1)


class TestModeIndependence:
    def test_42ps_uncorrelated_10ps_correlated(self):
        # the window length is exactly the input decorrelation length:
        # adjacent 42 ps modes are independent, 10 ps modes are not
        tracks = synth_random_coherent(SOURCE, 500.0, seed=12)
        wide = modes_of_tracks(tracks, 42.0)
        narrow = modes_of_tracks(tracks, 10.0)
        assert wide.n_modes >= 10_000
        rho_wide = np.mean(np.abs(adjacent_mode_correlation(wide)))
        rho_narrow = np.mean(np.abs(adjacent_mode_correlation(narrow)))
        assert rho_wide < 0.05
        assert rho_narrow > 0.2


class TestSimulateTraces:
    def test_classical_mode_variance(self):
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 4.0, seed=21)
        cfg = TeleporterConfig(**REFERENCE, regime=Regime.CLASSICAL)
        traces = simulate_traces(cfg, tracks, n_traces=64, seed=22)
        modes = extract_modes(traces)
        var = 0.5 * (np.var(modes.x_k, ddof=1) + np.var(modes.p_k, ddof=1))
        rel_se = math.sqrt(2.0 / modes.n_modes)
        assert var == pytest.approx(3.0, rel=4 * rel_se)

    def test_quantum_mode_variance(self):
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 4.0, seed=23)
        cfg = TeleporterConfig(**REFERENCE)
        traces = simulate_traces(cfg, tracks, n_traces=64, seed=24)
        modes = extract_modes(traces)
        var = 0.5 * (np.var(modes.x_k, ddof=1) + np.var(modes.p_k, ddof=1))
        rel_se = math.sqrt(2.0 / modes.n_modes)
        assert var == pytest.approx(1.52, rel=4 * rel_se)

    def test_ideal_config_reproduces_input_means(self):
        tracks = synth_random_coherent(SOURCE, 4.0, seed=25)
        traces = simulate_traces(near_ideal_config(), tracks, n_traces=32,
                                 seed=26)
        modes = extract_modes(traces)
        resid = modes.x_k - modes.in_x_k
        assert np.var(resid, ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_independent_noise_per_trace(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=27)
        traces = simulate_traces(near_ideal_config(), tracks, n_traces=2,
                                 seed=28)
        assert traces.x_samples.shape == (2, tracks.n_samples)
        assert not np.array_equal(traces.x_samples[0], traces.x_samples[1])
        # one shared input track: the source's own
        assert np.array_equal(traces.input_mean_x, tracks.mean_x)

    def test_uncalibrated_config_rejected(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=29)
        cfg = TeleporterConfig(**REFERENCE, tap_reflectivity=0.3)
        with pytest.raises(CalibrationError):
            simulate_traces(cfg, tracks, n_traces=1, seed=1)

    def test_determinism(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=30)
        cfg = TeleporterConfig(**REFERENCE)
        a = simulate_traces(cfg, tracks, n_traces=3, seed=31)
        b = simulate_traces(cfg, tracks, n_traces=3, seed=31)
        assert np.array_equal(a.x_samples, b.x_samples)
        assert np.array_equal(a.p_samples, b.p_samples)

    def test_rows_keyed_by_seed_and_trace_id(self):
        # trace i of a batch is the same whatever the batch size
        tracks = synth_random_coherent(SOURCE, 2.0, seed=32)
        cfg = TeleporterConfig(**REFERENCE)
        small = simulate_traces(cfg, tracks, n_traces=2, seed=33)
        large = simulate_traces(cfg, tracks, n_traces=5, seed=33)
        assert np.array_equal(small.x_samples, large.x_samples[:2])
        assert np.array_equal(small.p_samples, large.p_samples[:2])


class TestQuantize:
    def test_fine_quantization_negligible(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=41)
        trace = simulate_traces(near_ideal_config(), tracks, 1, seed=42)
        q = quantize_trace(trace, enob=24)
        r = 5.0 * np.std(trace.x_samples)
        assert np.max(np.abs(q.x_samples - trace.x_samples)) < 1e-5 * r

    def test_five_bit_noise_matches_uniform_model(self):
        tracks = synth_random_coherent(SOURCE, 64.0, seed=43)
        trace = simulate_traces(near_ideal_config(), tracks, 1, seed=44)
        q = quantize_trace(trace, enob=5)
        err = q.x_samples - trace.x_samples
        step = 2 * 5.0 * np.std(trace.x_samples) / 2 ** 5
        assert np.var(err) == pytest.approx(step ** 2 / 12.0, rel=0.2)

    def test_batch_matches_per_trace_quantization(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=45)
        traces = simulate_traces(near_ideal_config(), tracks, 4, seed=46)
        q = quantize_trace(traces, enob=5)
        for row, q_row in zip(traces.x_samples, q.x_samples):
            r = 5.0 * float(np.std(row))
            step = 2.0 * r / 2 ** 5
            ref = np.clip(step * (np.floor(row / step) + 0.5),
                          -r + 0.5 * step, r - 0.5 * step)
            assert np.array_equal(q_row, ref)

    def test_zero_trace_unchanged(self):
        zeros = np.zeros(512)
        trace = TimeTrace(zeros, zeros, zeros, zeros)
        q = quantize_trace(trace, enob=5)
        assert not np.any(q.x_samples)

    def test_enob_validated(self):
        zeros = np.zeros(64)
        with pytest.raises(ValueError):
            quantize_trace(TimeTrace(zeros, zeros, zeros, zeros), enob=0)

    def test_enob_above_mantissa_rejected(self):
        zeros = np.zeros(64)
        for enob in (53, 2000):
            with pytest.raises(ValueError, match="enob must be between 1 and 52"):
                quantize_trace(TimeTrace(zeros, zeros, zeros, zeros), enob=enob)

    def test_enob_at_bound_is_finite_and_fine(self):
        tracks = synth_random_coherent(SOURCE, 2.0, seed=41)
        trace = simulate_traces(near_ideal_config(), tracks, 1, seed=42)
        q = quantize_trace(trace, enob=52)
        r = 5.0 * np.std(trace.x_samples)
        assert np.all(np.isfinite(q.x_samples))
        assert np.max(np.abs(q.x_samples - trace.x_samples)) <= 2.0 ** -51 * r


class TestExtractModes:
    def test_vacuum_trace_unit_variance(self):
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 8.0, seed=51)
        traces = simulate_traces(near_ideal_config(), tracks, n_traces=40,
                                 seed=52)
        modes = extract_modes(traces)
        se = math.sqrt(2.0 / modes.n_modes)
        assert np.var(modes.x_k, ddof=1) == pytest.approx(1.0, rel=3 * se * 1.5)

    def test_vacuum_anchor_other_windows(self):
        # 0 dB anchor holds for any window of at least 10 samples
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 8.0, seed=53)
        traces = simulate_traces(near_ideal_config(), tracks, n_traces=20,
                                 seed=54, window_ps=DT_PS * 10)
        modes = extract_modes(traces, DT_PS * 10)
        se = math.sqrt(2.0 / modes.n_modes)
        assert np.var(modes.x_k, ddof=1) == pytest.approx(1.0, rel=3 * se * 1.5)

    def test_constant_mean_transfers_with_weight_sum(self):
        n = 512
        const = np.full(n, 2.5)
        noiseless = TimeTrace(const, const, const, const)
        modes = extract_modes(noiseless)
        w_sums = np.empty(modes.n_modes)
        for k, _, w in window_tiling(n, 42.0):
            w_sums[k] = np.sum(w, axis=1)
        assert np.allclose(modes.x_k, 2.5 * w_sums, rtol=1e-12)
        assert np.all(w_sums > 1.0)

    @pytest.mark.parametrize("window_ps,enob", [(42.0, 0), (10.0, 0), (42.0, 5)])
    def test_batch_matches_per_window_loop_bit_for_bit(self, window_ps, enob):
        tracks = synth_random_coherent(SOURCE, 8.0, seed=55)
        cfg = TeleporterConfig(**REFERENCE)
        traces = simulate_traces(cfg, tracks, n_traces=5, seed=56,
                                 window_ps=window_ps)
        if enob:
            traces = quantize_trace(traces, enob)
        modes = extract_modes(traces, window_ps)
        x_k, p_k, in_x_k, in_p_k = reference_modes(traces, window_ps)
        assert modes.n_modes == 5 * int(8000.0 // window_ps)
        assert np.array_equal(modes.k, np.arange(modes.n_modes))
        assert np.array_equal(modes.x_k, x_k)
        assert np.array_equal(modes.p_k, p_k)
        assert np.array_equal(modes.in_x_k, in_x_k)
        assert np.array_equal(modes.in_p_k, in_p_k)

    def test_window_longer_than_trace_rejected(self):
        zeros = np.zeros(8)
        with pytest.raises(ValueError):
            extract_modes(TimeTrace(zeros, zeros, zeros, zeros), 42.0)


class TestEstimateReport:
    def test_requires_enough_modes(self):
        z = np.zeros(10)
        modes = WavepacketModes(42.0, np.arange(10), z, z, z, z)
        with pytest.raises(ValueError):
            estimate_report(modes, 0.9)

    def test_degenerate_modes_rejected(self):
        z = np.zeros(200)
        modes = WavepacketModes(42.0, np.arange(200), z, z, z, z)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_report(modes, 0.9)

    def test_error_bar_formula(self):
        assert variance_se_db(10_480) == pytest.approx(0.060, abs=0.002)

    def test_pipeline_report_consistency(self):
        tracks = synth_random_coherent(SOURCE, 4.0, seed=61)
        cfg = TeleporterConfig(**REFERENCE)
        traces = simulate_traces(cfg, tracks, n_traces=96, seed=62)
        modes = extract_modes(traces)
        report = estimate_report(modes, REFERENCE["eta_meas"])
        analytic_int_db = 10 * math.log10((1.5204 - 0.1) / 0.9)
        assert report.vx_int_db == pytest.approx(analytic_int_db,
                                                 abs=3 * report.se_db)
        assert report.vp_int_db == pytest.approx(analytic_int_db,
                                                 abs=3 * report.se_db)
        assert 0.75 < report.f_int < 0.79
        assert report.n_modes == modes.n_modes

    def test_loss_correction_round_trip(self):
        # running with detection loss and correcting intrinsically recovers
        # the lossless variances within statistics
        spec = SldSourceSpec(ensemble_var_shot=0.0)
        tracks = synth_random_coherent(spec, 4.0, seed=65)
        lossy_cfg = TeleporterConfig(n_sq=0.3, eta_bell=1.0, eta_meas=0.8)
        free_cfg = TeleporterConfig(n_sq=0.3, eta_bell=1.0, eta_meas=1.0)
        lossy = extract_modes(simulate_traces(lossy_cfg, tracks, 64, seed=66))
        free = extract_modes(simulate_traces(free_cfg, tracks, 64, seed=67))
        lossy_rep = estimate_report(lossy, 0.8)
        free_rep = estimate_report(free, 1.0)
        tol = 3 * math.hypot(lossy_rep.se_db * 1.6, free_rep.se_db)
        assert lossy_rep.vx_int_db == pytest.approx(free_rep.vx_raw_db, abs=tol)


class TestAverageFidelityClosedForm:
    """Ensemble-averaged fidelity: ``fidelity_from_variances`` with the mean
    mismatch variance (1 - g)^2 sigma_ens that ``estimate_report`` passes."""

    def test_reduces_at_unit_gain(self):
        f = fidelity_from_variances(1.5, 1.6, (1.0 - 1.0) ** 2 * 25.0)
        assert f == pytest.approx(2 / math.sqrt(2.5 * 2.6), rel=1e-12)

    def test_reduces_at_zero_ensemble_variance(self):
        f = fidelity_from_variances(1.5, 1.6, (1.0 - 0.9) ** 2 * 0.0)
        assert f == pytest.approx(2 / math.sqrt(2.5 * 2.6), rel=1e-12)

    def test_matches_monte_carlo(self):
        # Monte-Carlo oracle: average the per-mode Gaussian fidelity over
        # normally distributed target amplitudes
        g, sigma, vx, vp = 0.949, 29.0, 1.50, 1.58
        rng = np.random.default_rng(99)
        mus = rng.normal(0.0, math.sqrt(sigma), size=(120_000, 2))
        d = (g - 1.0) * mus
        f = (2 / math.sqrt((1 + vx) * (1 + vp))
             * np.exp(-0.5 * (d[:, 0] ** 2 / (1 + vx)
                              + d[:, 1] ** 2 / (1 + vp))))
        mc = float(np.mean(f))
        se = float(np.std(f, ddof=1) / math.sqrt(f.size))
        closed = fidelity_from_variances(vx, vp, (1.0 - g) ** 2 * sigma)
        assert abs(mc - closed) < 3 * se

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            fidelity_from_variances(0.0, 1.0, 0.01)
        with pytest.raises(ValueError):
            fidelity_from_variances(1.0, 1.0, -1e-12)
        # an out-of-range eta_meas (g = sqrt(eta_meas) outside (0, 1]) is
        # still rejected on the way in, by the loss inversion
        for eta in (0.0, 1.2):
            with pytest.raises(ValueError):
                intrinsic_from_raw(1.5, eta)

    def test_report_penalty_order(self):
        # estimate_report's f_raw is the closed form built as
        # 2/sqrt((1+vx)(1+vp)) * (1.0 * p_x * p_p), bit for bit
        vx, vp, m = 1.5, 1.58, (1.0 - 0.949) ** 2 * 29.0
        penalty = 1.0
        for v in (vx, vp):
            penalty *= (1.0 + m / (1.0 + v)) ** -0.5
        assert fidelity_from_variances(vx, vp, m) == \
            2.0 / math.sqrt((1.0 + vx) * (1.0 + vp)) * penalty


class TestQuantumBeatsClassical:
    def test_every_seed(self):
        spec = SldSourceSpec(baseband_bandwidth_ghz=16.0,
                             filter_shape="gaussian", ensemble_var_shot=29.0)
        for seed in (1, 2, 3):
            tracks = synth_random_coherent(spec, 4.0, seed=seed)
            q_cfg = TeleporterConfig(**REFERENCE)
            c_cfg = TeleporterConfig(**REFERENCE, regime=Regime.CLASSICAL)
            q_modes = extract_modes(
                simulate_traces(q_cfg, tracks, 32, seed=seed + 100))
            c_modes = extract_modes(
                simulate_traces(c_cfg, tracks, 32, seed=seed + 200))
            fq = estimate_report(q_modes, 0.9).f_raw
            fc = estimate_report(c_modes, 0.9).f_raw
            assert fq > fc


class TestValidation:
    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeTrace(np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(7))

    def test_batch_shapes_checked(self):
        with pytest.raises(ValueError):
            TimeTrace(np.zeros((2, 8)), np.zeros((3, 8)), np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            TimeTrace(np.zeros((2, 8)), np.zeros((2, 8)), np.zeros(7), np.zeros(7))
        zeros = np.zeros((2, 8))
        batch = TimeTrace(zeros, zeros, zeros[0], zeros[0])
        assert (batch.n_traces, batch.n_samples) == (2, 8)
        single = TimeTrace(np.zeros(8), np.zeros(8), np.zeros(8), np.zeros(8))
        assert (single.n_traces, single.n_samples) == (1, 8)

    def test_non_finite_rejected(self):
        bad = np.array([0.0, np.nan])
        with pytest.raises(ValueError):
            TimeTrace(bad, np.zeros(2), np.zeros(2), np.zeros(2))

    def test_source_spec_validation(self):
        with pytest.raises(ValueError):
            SldSourceSpec(baseband_bandwidth_ghz=0.0)
        with pytest.raises(ValueError):
            SldSourceSpec(filter_shape="brick")

    def test_concatenate_requires_matching_windows(self):
        z = np.zeros(4)
        a = WavepacketModes(42.0, np.arange(4), z, z, z, z)
        b = WavepacketModes(10.0, np.arange(4), z, z, z, z)
        with pytest.raises(ValueError):
            concatenate_modes([a, b])
