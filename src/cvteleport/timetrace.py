"""Time-domain harness: homodyne traces and temporal-mode statistics.

Synthesizes random coherent amplitude tracks (broadband thermal-source light
attenuated into the quantum regime), simulates sampled homodyne voltages of
the teleported output at 256 GSa/s, extracts non-overlapping Gaussian-window
temporal modes, and estimates raw/intrinsic variances and fidelities.

Noise synthesis is variance targeted: white Gaussian noise is shaped by the
detector/scope responses and rescaled so the extracted temporal-mode variance
matches the analytic noise budget, since the experiment reports mode-level
variances rather than a detector noise spectral shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import to_db
from .teleporter import (
    CalibrationError,
    EstimatorReport,
    TeleporterConfig,
    analytic_noise_budget,
    fidelity_from_variances,
    intrinsic_from_raw,
)

SAMPLE_RATE_GSPS = 256.0
DT_PS = 1000.0 / SAMPLE_RATE_GSPS
# half-power bandwidths of the scope front end and the homodyne detector
ANALOG_BW_GHZ = 110.0
DETECTOR_BW_GHZ = 70.0

FILTER_SHAPES = ("gaussian", "raised_cosine")

# Quantization finer than the float64 mantissa is no quantization at all, and
# 2 ** enob stops being a float beyond 1023.
MAX_ENOB = 52

# simulate_traces fills two (n_traces, n_samples) float64 arrays, which later
# steps copy: 2 ** 23 samples (the reference run has 2 ** 18) keep each at 64 MB
MAX_BATCH_SAMPLES = 2 ** 23
MAX_DURATION_NS = MAX_BATCH_SAMPLES / SAMPLE_RATE_GSPS
# _mean_mode_variance builds (L, L) lag arrays for windows of L samples:
# 4000 ps is 1024 samples, 8 MB per array
MAX_WINDOW_PS = 4000.0


@dataclass(frozen=True)
class SldSourceSpec:
    """Random coherent-state source: filtered broadband emission, heavily
    attenuated so the per-mode amplitude variance lands in the quantum regime.

    ``ensemble_var_shot`` is the per-quadrature variance of the windowed mode
    means after attenuation, in shot-noise units; ``attenuation_db`` is kept
    as metadata relating it to the macroscopic level before attenuation.
    """

    baseband_bandwidth_ghz: float = 55.0
    attenuation_db: float = 25.0
    ensemble_var_shot: float = 29.0
    filter_shape: str = "gaussian"

    def __post_init__(self):
        if self.baseband_bandwidth_ghz <= 0:
            raise ValueError("baseband_bandwidth_ghz must be positive")
        if self.attenuation_db < 0:
            raise ValueError("attenuation_db must be >= 0")
        if self.ensemble_var_shot < 0:
            raise ValueError("ensemble_var_shot must be >= 0")
        if self.filter_shape not in FILTER_SHAPES:
            raise ValueError(f"filter_shape must be one of {FILTER_SHAPES}")


@dataclass(frozen=True)
class AmplitudeTracks:
    """Clean coherent amplitude tracks (mean_x(t), mean_p(t)) in shot units."""

    mean_x: np.ndarray
    mean_p: np.ndarray

    def __post_init__(self):
        mx = np.asarray(self.mean_x, dtype=float)
        mp = np.asarray(self.mean_p, dtype=float)
        if mx.shape != mp.shape or mx.ndim != 1:
            raise ValueError("mean tracks must be 1-d and equal length")
        mx.setflags(write=False)
        mp.setflags(write=False)
        object.__setattr__(self, "mean_x", mx)
        object.__setattr__(self, "mean_p", mp)

    @property
    def n_samples(self) -> int:
        return self.mean_x.size


@dataclass(frozen=True)
class TimeTrace:
    """A batch of sampled homodyne records (both quadratures, shot-noise
    normalized): (n_traces, n_samples) ``x_samples``/``p_samples`` whose row
    i is trace i (a 1-d array is one trace), and the 1-d clean input tracks
    ``input_mean_x``/``input_mean_p`` that every trace shares."""

    x_samples: np.ndarray
    p_samples: np.ndarray
    input_mean_x: np.ndarray
    input_mean_p: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x_samples, dtype=float))
        p = np.atleast_2d(np.asarray(self.p_samples, dtype=float))
        in_x = np.asarray(self.input_mean_x, dtype=float)
        in_p = np.asarray(self.input_mean_p, dtype=float)
        shapes = {in_x.shape, in_p.shape}
        if x.ndim != 2 or p.shape != x.shape or shapes != {x.shape[1:]}:
            raise ValueError("need (n_traces, n_samples) x/p samples and 1-d "
                             "input tracks of n_samples")
        arrays = {"x_samples": x, "p_samples": p,
                  "input_mean_x": in_x, "input_mean_p": in_p}
        for name, arr in arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_traces(self) -> int:
        return self.x_samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.x_samples.shape[1]


@dataclass(frozen=True)
class WavepacketModes:
    """Quadrature pairs of consecutive non-overlapping temporal modes."""

    window_ps: float
    k: np.ndarray
    x_k: np.ndarray
    p_k: np.ndarray
    in_x_k: np.ndarray
    in_p_k: np.ndarray

    def __post_init__(self):
        n = self.k.size
        for name in ("k", "x_k", "p_k", "in_x_k", "in_p_k"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValueError("all mode arrays must have equal length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.k.size


def window_tiling(n_samples: int, window_ps: float):
    """Non-overlapping Gaussian extraction windows tiling the trace.

    Window k covers sample times in [k*window_ps, (k+1)*window_ps); weights
    are a Gaussian of sigma = window_ps / 6 centered on the window,
    normalized so sum(w^2) = 1 (uncorrelated unit-variance samples then give
    unit mode variance). Returns one (k, idx, w) group per window length L:
    window numbers k (m,), sample indices idx and weights w (m, L).
    """
    duration_ps = n_samples * DT_PS
    n_modes = int(math.floor(duration_ps / window_ps))
    if n_modes < 1:
        raise ValueError("trace shorter than one extraction window")
    sigma = window_ps / 6.0
    t = np.arange(n_samples) * DT_PS
    lo = np.arange(n_modes) * window_ps
    hi = lo + window_ps
    start = np.searchsorted(t, lo, side="left")
    size = np.searchsorted(t, hi, side="left") - start
    if np.any(size == 0):
        raise ValueError("window too short for the sample rate")
    groups = []
    for length in np.unique(size):
        k = np.flatnonzero(size == length)
        idx = start[k, None] + np.arange(length)
        center = 0.5 * (lo[k] + hi[k])
        w = np.exp(-0.5 * ((t[idx] - center[:, None]) / sigma) ** 2)
        w = w / np.sqrt(_rowdot(w, w))[:, None]
        groups.append((k, idx, w))
    return groups


def max_traces(duration_ns: float) -> int:
    """Most traces of ``duration_ns`` that one batch of MAX_BATCH_SAMPLES holds."""
    return MAX_BATCH_SAMPLES // max(1, round(duration_ns * SAMPLE_RATE_GSPS))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Last-axis row dots, each the same 1-d BLAS dot as ``a_row @ b_row``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _power_response(f_ghz: np.ndarray, shape: str, bw_ghz: float) -> np.ndarray:
    """Power response with half-power point at ``bw_ghz``."""
    if shape == "gaussian":
        return np.exp(-np.log(2.0) * (f_ghz / bw_ghz) ** 2)
    if shape == "raised_cosine":
        # full-rolloff raised cosine in power, zero beyond 2*bw
        out = np.where(f_ghz < 2.0 * bw_ghz,
                       np.cos(np.pi * f_ghz / (4.0 * bw_ghz)) ** 2, 0.0)
        return out
    raise ValueError(f"unknown filter shape {shape!r}")


def _filtered_white(rng, n: int, amplitude_response: np.ndarray) -> np.ndarray:
    w = rng.standard_normal(n)
    return np.fft.irfft(np.fft.rfft(w) * amplitude_response, n=n)


def _mean_mode_variance(power_response, n_samples, tiles) -> float:
    """Expected temporal-mode variance of filtered unit white noise."""
    r = np.fft.irfft(power_response, n=n_samples)  # autocovariance
    per_mode = np.empty(sum(k.size for k, _, _ in tiles))
    for k, _, w in tiles:
        a = np.arange(w.shape[1])  # every window of the group has lags 0..L-1
        cov = r[np.abs(a[:, None] - a)]
        per_mode[k] = _rowdot((w[:, None, :] @ cov)[:, 0], w)
    # a running sum in mode order: np.sum's pairwise order would move the
    # last bits of the noise scale and with them every output file
    return float(np.cumsum(per_mode)[-1]) / per_mode.size


def synth_random_coherent(spec: SldSourceSpec, duration_ns: float,
                          seed: int | tuple,
                          window_ps: float = 42.0) -> AmplitudeTracks:
    """Stationary bandlimited Gaussian amplitude tracks for both quadratures.

    Scaled analytically so the expected per-quadrature variance of the
    windowed mode means equals ``spec.ensemble_var_shot``; deterministic for
    a given seed.
    """
    if duration_ns < 1.0:
        raise ValueError("duration must be at least 1 ns")
    n = int(round(duration_ns * SAMPLE_RATE_GSPS))
    if n * DT_PS < window_ps:
        raise ValueError("duration too short for a single temporal mode")
    f = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_GSPS)  # GHz
    power = _power_response(f, spec.filter_shape, spec.baseband_bandwidth_ghz)
    amp = np.sqrt(power)
    if spec.ensemble_var_shot == 0.0:
        zero = np.zeros(n)
        return AmplitudeTracks(zero, zero.copy())
    tiles = window_tiling(n, window_ps)
    q = _mean_mode_variance(power, n, tiles)
    scale = math.sqrt(spec.ensemble_var_shot / q)
    rng = np.random.default_rng(seed)
    mean_x = scale * _filtered_white(rng, n, amp)
    mean_p = scale * _filtered_white(rng, n, amp)
    return AmplitudeTracks(mean_x, mean_p)


def simulate_traces(config: TeleporterConfig, tracks: AmplitudeTracks,
                    n_traces: int = 128, seed: int = 0,
                    window_ps: float = 42.0) -> TimeTrace:
    """Sampled homodyne traces of the teleported output, as one batch.

    Each trace shares the clean input amplitude tracks and draws independent
    detection noise from a stream keyed by (seed, trace_id = row). Per sample,
    x(t) = sqrt(eta_meas) mean_x(t) + noise(t), with the noise shaped by the
    detector and scope responses and rescaled so the variance of the
    ``window_ps`` temporal modes equals the analytic noise budget.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    if not config.is_unity_gain(rel_tol=1e-6):
        raise CalibrationError("simulate_traces requires a unity-gain config")
    n = tracks.n_samples
    f = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_GSPS)
    power = (_power_response(f, "gaussian", ANALOG_BW_GHZ)
             * _power_response(f, "gaussian", DETECTOR_BW_GHZ))
    amp = np.sqrt(power)
    tiles = window_tiling(n, window_ps)
    n_out = analytic_noise_budget(config).n_out
    noise_scale = math.sqrt(n_out / _mean_mode_variance(power, n, tiles))
    g = math.sqrt(config.eta_meas)

    x = np.empty((n_traces, n))
    p = np.empty((n_traces, n))
    for trace_id in range(n_traces):
        rng = np.random.default_rng((seed, trace_id))
        x[trace_id] = g * tracks.mean_x + noise_scale * _filtered_white(rng, n, amp)
        p[trace_id] = g * tracks.mean_p + noise_scale * _filtered_white(rng, n, amp)
    return TimeTrace(x, p, tracks.mean_x, tracks.mean_p)


def quantize_trace(traces: TimeTrace, enob: int = 5) -> TimeTrace:
    """Mid-rise uniform quantization over [-R, R] with R = 5x each trace's std.

    Models the scope's effective number of bits; optional (the pipeline
    leaves it off by default). Constant-zero traces pass through unchanged.
    """
    if not 1 <= enob <= MAX_ENOB:
        raise ValueError(f"enob must be between 1 and {MAX_ENOB}, got {enob}")

    def quantize(v):
        r = 5.0 * np.std(v, axis=1, keepdims=True)
        step = np.where(r > 0.0, 2.0 * r / (2 ** enob), 1.0)
        q = step * (np.floor(v / step) + 0.5)
        return np.where(r > 0.0, np.clip(q, -r + 0.5 * step, r - 0.5 * step), v)

    return replace(traces, x_samples=quantize(traces.x_samples),
                   p_samples=quantize(traces.p_samples))


def extract_modes(traces: TimeTrace, window_ps: float = 42.0) -> WavepacketModes:
    """Weighted integration of consecutive non-overlapping temporal modes.

    x_k = sum_t w(t - t_k) x(t) with the Gaussian windows of
    :func:`window_tiling`, for every trace of the batch; the input references
    use the same windows applied to the clean amplitude tracks. Modes are
    pooled trace-major: trace i holds k = i*n, ..., (i+1)*n - 1 for n windows
    per trace.
    """
    tiles = window_tiling(traces.n_samples, window_ps)
    n_modes = sum(k.size for k, _, _ in tiles)
    x_k, p_k = np.empty((2, traces.n_traces, n_modes))
    in_x, in_p = np.empty((2, n_modes))
    # np.take gives unit-stride rows, so the modes match w @ x[idx] bit for bit
    for k, idx, w in tiles:
        x_k[:, k] = _rowdot(np.take(traces.x_samples, idx, axis=1), w)
        p_k[:, k] = _rowdot(np.take(traces.p_samples, idx, axis=1), w)
        in_x[k] = _rowdot(traces.input_mean_x[idx], w)
        in_p[k] = _rowdot(traces.input_mean_p[idx], w)
    tile = lambda v: np.tile(v, traces.n_traces)
    return WavepacketModes(window_ps=window_ps, k=np.arange(x_k.size),
                           x_k=x_k.ravel(), p_k=p_k.ravel(), in_x_k=tile(in_x),
                           in_p_k=tile(in_p))


def concatenate_modes(parts: list[WavepacketModes]) -> WavepacketModes:
    """Pool modes from several batches (k reindexed globally)."""
    if not parts:
        raise ValueError("no mode sets to concatenate")
    window = parts[0].window_ps
    if any(p.window_ps != window for p in parts):
        raise ValueError("mode sets use different windows")
    cat = lambda name: np.concatenate([getattr(p, name) for p in parts])
    x, p, ix, ip = (cat(n) for n in ("x_k", "p_k", "in_x_k", "in_p_k"))
    return WavepacketModes(window_ps=window, k=np.arange(x.size),
                           x_k=x, p_k=p, in_x_k=ix, in_p_k=ip)


def adjacent_mode_correlation(modes: WavepacketModes):
    """Correlation coefficients (rho_x, rho_p) between neighboring modes."""

    def rho(v):
        a = v[:-1] - np.mean(v[:-1])
        b = v[1:] - np.mean(v[1:])
        denom = math.sqrt(float(np.mean(a * a)) * float(np.mean(b * b)))
        if denom == 0.0:
            return 0.0
        return float(np.mean(a * b)) / denom

    return rho(modes.x_k), rho(modes.p_k)


def variance_se_db(n_modes: int) -> float:
    """Standard error in dB of a variance estimated from n independent modes."""
    return 10.0 / math.log(10.0) * math.sqrt(2.0 / n_modes)


def estimate_report(modes: WavepacketModes, eta_meas: float) -> EstimatorReport:
    """Raw and intrinsic mode-variance and fidelity estimates.

    Raw residual variances are Var(x_k - sqrt(eta_meas) in_x_k); intrinsic
    values invert the detection loss. ``f_raw`` averages the per-mode
    coherent-state fidelity over the input ensemble in closed form (mean
    mismatch variance (1 - g)^2 sigma_ens with g = sqrt(eta_meas)).
    """
    n = modes.n_modes
    if n < 100:
        raise ValueError("need at least 100 modes for a stable estimate")
    g = math.sqrt(eta_meas)
    rx = modes.x_k - g * modes.in_x_k
    rp = modes.p_k - g * modes.in_p_k
    vx_raw = float(np.var(rx, ddof=1))
    vp_raw = float(np.var(rp, ddof=1))
    if vx_raw == 0.0 or vp_raw == 0.0:
        raise ValueError("degenerate modes: zero residual variance")
    vx_int = intrinsic_from_raw(vx_raw, eta_meas)
    vp_int = intrinsic_from_raw(vp_raw, eta_meas)
    sigma_ens = 0.5 * (float(np.var(modes.in_x_k, ddof=1))
                       + float(np.var(modes.in_p_k, ddof=1)))
    f_raw = fidelity_from_variances(vx_raw, vp_raw, (1.0 - g) ** 2 * sigma_ens)
    return EstimatorReport(
        vx_raw_db=float(to_db(vx_raw)),
        vp_raw_db=float(to_db(vp_raw)),
        vx_int_db=float(to_db(vx_int)),
        vp_int_db=float(to_db(vp_int)),
        f_raw=f_raw,
        f_int=fidelity_from_variances(vx_int, vp_int),
        se_db=variance_se_db(n),
        n_modes=n,
    )
