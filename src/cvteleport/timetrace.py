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

import collections
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import freeze_arrays
from .teleporter import EstimatorReport, TeleporterConfig, analytic_noise_budget

SAMPLE_RATE_GSPS = 256.0
DT_PS = 1000.0 / SAMPLE_RATE_GSPS
# half-power bandwidths of the scope front end and the homodyne detector
ANALOG_BW_GHZ = 110.0
DETECTOR_BW_GHZ = 70.0

FILTER_SHAPES = ("gaussian", "raised_cosine")

# Quantization finer than the float64 mantissa is no quantization at all, and
# 2 ** enob stops being a float beyond 1023.
MAX_ENOB = 52

# simulate_traces fills one (2, n_traces, n_samples) float64 array, which later
# steps copy: 2 ** 23 samples per quadrature (the reference run has 2 ** 18)
# keep each quadrature at 64 MB
MAX_BATCH_SAMPLES = 2 ** 23
MAX_DURATION_NS = MAX_BATCH_SAMPLES / SAMPLE_RATE_GSPS
# simulate_traces filters whole traces in pieces that together hold at most
# this many samples (but each at least one trace) across the threads filling
# at once: 16 reference traces in all, and FFT scratch of about 1 MB
NOISE_PIECE_SAMPLES = 2 ** 15
# _mean_mode_variance builds (L, L) lag arrays for windows of L samples:
# 4000 ps is 1024 samples, 8 MB per array
MAX_WINDOW_PS = 4000.0
# The residual x - sqrt(eta_meas) in_x of modes of variance var carries a
# float64 rounding error of about sqrt(var) * eps; at 1e20 its variance,
# var * eps ** 2 ~ 5e-12, stays far below the shot noise of 1.
MAX_ENSEMBLE_VAR_SHOT = 1e20


@dataclass(frozen=True)
class SldSourceSpec:
    """Random coherent-state source: filtered broadband emission, heavily
    attenuated so the per-mode amplitude variance lands in the quantum regime.

    ``ensemble_var_shot`` is the per-quadrature variance of the windowed mode
    means after attenuation, in shot-noise units.
    """

    baseband_bandwidth_ghz: float = 55.0
    ensemble_var_shot: float = 29.0
    filter_shape: str = "gaussian"

    def __post_init__(self):
        if not self.baseband_bandwidth_ghz > 0:  # NaN fails too
            raise ValueError("baseband_bandwidth_ghz must be positive")
        if self.ensemble_var_shot < 0:
            raise ValueError("ensemble_var_shot must be >= 0")
        if not self.ensemble_var_shot <= MAX_ENSEMBLE_VAR_SHOT:
            raise ValueError(
                f"ensemble_var_shot must be at most {MAX_ENSEMBLE_VAR_SHOT:g}")
        if self.filter_shape not in FILTER_SHAPES:
            raise ValueError(f"filter_shape must be one of {FILTER_SHAPES}")


@dataclass(frozen=True)
class AmplitudeTracks:
    """Clean coherent amplitude tracks (mean_x(t), mean_p(t)) in shot units."""

    mean_x: np.ndarray
    mean_p: np.ndarray

    def __post_init__(self):
        mx, mp = freeze_arrays(self, ("mean_x", "mean_p"))
        if mx.shape != mp.shape or mx.ndim != 1:
            raise ValueError("mean tracks must be 1-d and equal length")

    @property
    def n_samples(self) -> int:
        return self.mean_x.size


def _set_batch(record, names, n: str) -> None:
    """Store ``record``'s arrays ``names`` = (x, p, in_x, in_p) through
    :func:`freeze_arrays`: x and p of shape (n_traces, n) (1-d: one trace),
    in_x and in_p of shape (n,)."""
    x, p, in_x, in_p = freeze_arrays(record, names)
    x, p = np.atleast_2d(x), np.atleast_2d(p)
    if x.ndim != 2 or p.shape != x.shape or {in_x.shape, in_p.shape} != {x.shape[1:]}:
        raise ValueError(f"need (n_traces, {n}) x/p and ({n},) inputs")
    object.__setattr__(record, names[0], x)
    object.__setattr__(record, names[1], p)


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
        _set_batch(self, ("x_samples", "p_samples", "input_mean_x",
                          "input_mean_p"), "n_samples")

    @property
    def n_traces(self) -> int:
        return self.x_samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.x_samples.shape[1]


@dataclass(frozen=True)
class WavepacketModes:
    """Temporal modes of a batch: (n_traces, n_windows) ``x``/``p``, row i
    trace i, and the (n_windows,) input modes ``in_x``/``in_p`` every trace
    shares. Trace i, window j is pooled mode i * n_windows + j of x.ravel()."""

    window_ps: float
    x: np.ndarray
    p: np.ndarray
    in_x: np.ndarray
    in_p: np.ndarray

    def __post_init__(self):
        _set_batch(self, ("x", "p", "in_x", "in_p"), "n_windows")

    @property
    def n_modes(self) -> int:
        return self.x.size


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
        with np.errstate(over="ignore"):  # inf far beyond bw_ghz gives exp -> 0
            return np.exp(-np.log(2.0) * (f_ghz / bw_ghz) ** 2)
    if shape == "raised_cosine":
        # full-rolloff raised cosine in power, zero beyond 2*bw, where the
        # cosine of an overflowed phase is not used
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(f_ghz < 2.0 * bw_ghz,
                            np.cos(np.pi * f_ghz / (4.0 * bw_ghz)) ** 2, 0.0)
    raise ValueError(f"unknown filter shape {shape!r}")


def _filtered_white(white: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Each last-axis row of ``white`` shaped by the amplitude response
    ``amp``; pocketfft runs its 1-d plan row by row, so a row gets the bits
    it gets alone."""
    return np.fft.irfft(np.fft.rfft(white) * amp, n=white.shape[-1])


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
        return AmplitudeTracks(zero, zero)
    q = _mean_mode_variance(power, n, window_tiling(n, window_ps))
    scale = math.sqrt(spec.ensemble_var_shot / q)
    white = np.random.default_rng(seed).standard_normal((2, n))
    mean_x, mean_p = scale * _filtered_white(white, amp)
    return AmplitudeTracks(mean_x, mean_p)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_traces(config: TeleporterConfig, tracks: AmplitudeTracks,
                    n_traces: int = 128, seed: int = 0,
                    window_ps: float = 42.0) -> TimeTrace:
    """Sampled homodyne traces of the teleported output, as one batch.

    Each trace shares the clean input amplitude tracks and draws independent
    detection noise from a stream keyed by (seed, trace_id = row), x then p.
    Per sample, x(t) = sqrt(eta_meas) mean_x(t) + noise(t), with the noise
    shaped by the detector and scope responses and rescaled so the variance
    of the ``window_ps`` temporal modes equals the analytic noise budget.

    The noise is drawn and filtered in pieces of whole traces from one
    shared queue: the calling thread takes pieces until none is left, and at
    most one helper thread takes them alongside it. No helper starts on one
    usable CPU, for a single piece, or for traces of more than half of
    ``NOISE_PIECE_SAMPLES`` samples; under a CPU quota, a helper that gets
    no CPU takes no piece. The pieces in flight hold at most
    ``NOISE_PIECE_SAMPLES`` samples in all (each at least one trace). Every
    row gets the bits of the trace filtered alone, whichever thread takes
    it. An error on either thread is raised once both have stopped.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    n = tracks.n_samples
    f = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_GSPS)
    power = (_power_response(f, "gaussian", ANALOG_BW_GHZ)
             * _power_response(f, "gaussian", DETECTOR_BW_GHZ))
    amp = np.sqrt(power)
    n_out = analytic_noise_budget(config).n_out
    # no name holds the tiles, so they are freed before the noise is drawn
    noise_scale = math.sqrt(
        n_out / _mean_mode_variance(power, n, window_tiling(n, window_ps)))
    g = math.sqrt(config.eta_meas)

    xp = np.empty((2, n_traces, n))
    # a helper only where two one-trace pieces fit in NOISE_PIECE_SAMPLES
    threads = min(2, _usable_cpus(), max(1, NOISE_PIECE_SAMPLES // n))
    rows = max(1, NOISE_PIECE_SAMPLES // (n * threads))
    # the first row of each piece, then an end mark for each thread
    pieces = collections.deque([*range(0, n_traces, rows), None, None])

    def fill():
        for first in iter(pieces.popleft, None):
            stop = min(first + rows, n_traces)
            for trace_id in range(first, stop):
                rng = np.random.default_rng((seed, trace_id))
                rng.standard_normal(out=xp[0, trace_id])
                rng.standard_normal(out=xp[1, trace_id])
            for piece, mean in zip(xp[:, first:stop],
                                   (tracks.mean_x, tracks.mean_p)):
                # noise * scale + signal: the bits of signal + scale * noise
                np.multiply(_filtered_white(piece, amp), noise_scale, out=piece)
                piece += g * mean

    if threads > 1 and n_traces > rows:  # two pieces or more
        # imported here: the pool's modules cost every start-up a few ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(1) as pool:  # joins the helper on any exit
            helper = pool.submit(fill)
            fill()
        helper.result()
    else:
        fill()
    return TimeTrace(xp[0], xp[1], tracks.mean_x, tracks.mean_p)


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

    x[i, j] = sum_t w_j(t) x_i(t) with the Gaussian window j of
    :func:`window_tiling`, for every trace i of the batch; the input modes
    apply the same windows to the clean amplitude tracks. Each window group
    gathers from blocks of at most ``NOISE_PIECE_SAMPLES`` samples of traces
    (but at least one trace) at a time."""
    tiles = window_tiling(traces.n_samples, window_ps)
    n_windows = sum(k.size for k, _, _ in tiles)
    x, p = np.empty((2, traces.n_traces, n_windows))
    in_x, in_p = np.empty((2, n_windows))
    block = max(1, NOISE_PIECE_SAMPLES // traces.n_samples)
    # np.take gives unit-stride rows, so the modes match w @ x[idx] bit for bit
    for k, idx, w in tiles:
        for i in range(0, traces.n_traces, block):
            rows = slice(i, i + block)
            x[rows, k] = _rowdot(np.take(traces.x_samples[rows], idx, axis=1), w)
            p[rows, k] = _rowdot(np.take(traces.p_samples[rows], idx, axis=1), w)
        in_x[k] = _rowdot(traces.input_mean_x[idx], w)
        in_p[k] = _rowdot(traces.input_mean_p[idx], w)
    return WavepacketModes(window_ps, x, p, in_x, in_p)


def concatenate_modes(parts: list[WavepacketModes]) -> WavepacketModes:
    """Trace rows of batches with the same windows and input modes, stacked."""
    if not parts:
        raise ValueError("no mode sets to concatenate")
    key = lambda m: (m.window_ps, m.in_x.tobytes(), m.in_p.tobytes())
    if any(key(m) != key(parts[0]) for m in parts):
        raise ValueError("mode sets use different windows or input modes")
    return replace(parts[0], x=np.vstack([m.x for m in parts]),
                   p=np.vstack([m.p for m in parts]))


def adjacent_mode_correlation(modes: WavepacketModes):
    """Correlations (rho_x, rho_p) of windows j and j + 1 of every trace;
    ValueError when a trace has fewer than two windows."""
    if modes.x.shape[1] < 2:
        raise ValueError("need at least two windows per trace")

    def rho(v):
        a = v[:, :-1] - np.mean(v[:, :-1])
        b = v[:, 1:] - np.mean(v[:, 1:])
        denom = math.sqrt(float(np.mean(a * a)) * float(np.mean(b * b)))
        if denom == 0.0:
            return 0.0
        return float(np.mean(a * b)) / denom

    return rho(modes.x), rho(modes.p)


def variance_se_db(n_modes: int) -> float:
    """Standard error in dB of a variance estimated from n independent modes."""
    return 10.0 / math.log(10.0) * math.sqrt(2.0 / n_modes)


def estimate_report(modes: WavepacketModes, eta_meas: float) -> EstimatorReport:
    """Raw and intrinsic mode-variance and fidelity estimates.

    Raw residual variances are Var(x - sqrt(eta_meas) in_x) over all modes;
    intrinsic values invert the detection loss. ``f_raw`` averages the
    per-mode coherent-state fidelity over the input ensemble in closed form
    (mean mismatch variance (1 - g)^2 sigma_ens with g = sqrt(eta_meas)).

    Raises ValueError when a variance is zero or not finite (mode amplitudes
    too large for a double to square and sum).
    """
    n = modes.n_modes
    if n < 100:
        raise ValueError("need at least 100 modes for a stable estimate")
    g = math.sqrt(eta_meas)
    # an overflow here shows as a non-finite variance, refused by from_raw
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (float(np.var(modes.x - g * modes.in_x, ddof=1)),
               float(np.var(modes.p - g * modes.in_p, ddof=1)))
        # each input mode counts once per trace: bit for bit the variance of
        # the input modes tiled trace by trace
        ens = lambda v: float(np.var(np.broadcast_to(v, modes.x.shape), ddof=1))
        sigma_ens = 0.5 * (ens(modes.in_x) + ens(modes.in_p))
    return EstimatorReport.from_raw(raw, eta_meas, variance_se_db(n), n,
                                    mismatch_var=(1.0 - g) ** 2 * sigma_ens)
