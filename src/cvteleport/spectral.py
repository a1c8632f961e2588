"""Frequency-domain harness: sideband spectra of the teleported vacuum.

Under high phase-sensitive gain the optical power spectrum of the output is
proportional to the quadrature variance at each sideband frequency, and the
proportionality constant cancels once spectra are normalized to the shot
noise level; the harness therefore works directly in variance-dB space.
Spectra span +-1 THz around the carrier, measurement gain jitter is modeled
as per-bin Gaussian offsets in dB, and band averages exclude the
low-frequency region contaminated by technical noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import from_db, to_db
from .teleporter import (
    EstimatorReport,
    TeleporterConfig,
    analytic_noise_budget,
    fidelity_from_variances,
    intrinsic_from_raw,
)

# each spectrum array holds one float64 per grid point: 2 ** 20 keep it at 8 MB
MAX_GRID_POINTS = 2 ** 20


@dataclass(frozen=True)
class LowFreqExcess:
    """Technical excess noise below ``cutoff_thz``: amplitude_db at DC decaying
    to zero at the cutoff as (1 - |omega|/cutoff)^exponent, added in dB."""

    cutoff_thz: float = 0.0
    amplitude_db: float = 0.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.cutoff_thz < 0:
            raise ValueError("cutoff_thz must be >= 0")

    def excess_db(self, omega_thz):
        omega = np.abs(np.asarray(omega_thz, dtype=float))
        if self.cutoff_thz == 0.0 or self.amplitude_db == 0.0:
            return np.zeros_like(omega)
        frac = np.clip(1.0 - omega / self.cutoff_thz, 0.0, None)
        return self.amplitude_db * frac ** self.exponent


@dataclass(frozen=True)
class SqueezingProfile:
    """Sideband dependence of the effective squeezing noise N_sq(omega).

    ``rolloff_bandwidth_thz`` of None means flat across the band; otherwise
    the squeezing level in dB rolls off as a Lorentzian of that half-width,
    so N_sq relaxes toward 1 at high sideband frequencies.
    """

    n_sq_center: float
    rolloff_bandwidth_thz: float | None = None
    low_freq_excess: LowFreqExcess = LowFreqExcess()

    def __post_init__(self):
        if not 0.0 < self.n_sq_center <= 1.0:
            raise ValueError("n_sq_center must lie in (0, 1]")
        if self.rolloff_bandwidth_thz is not None and self.rolloff_bandwidth_thz <= 0:
            raise ValueError("rolloff_bandwidth_thz must be positive or None")

    def n_sq(self, omega_thz):
        omega = np.asarray(omega_thz, dtype=float)
        if self.rolloff_bandwidth_thz is None:
            return np.full_like(omega, self.n_sq_center)
        sq_db = -to_db(self.n_sq_center)
        sq_db = sq_db / (1.0 + (omega / self.rolloff_bandwidth_thz) ** 2)
        return from_db(-sq_db)


@dataclass(frozen=True)
class SpectrumRecord:
    """Per-sideband quadrature variances in dB."""

    omega_thz: np.ndarray
    vx_db: np.ndarray
    vp_db: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega_thz, dtype=float)
        vx = np.asarray(self.vx_db, dtype=float)
        vp = np.asarray(self.vp_db, dtype=float)
        if not (omega.shape == vx.shape == vp.shape) or omega.ndim != 1:
            raise ValueError("omega_thz, vx_db, vp_db must be 1-d and equal length")
        if omega.size and np.any(np.diff(omega) <= 0):
            raise ValueError("omega bins must be strictly increasing")
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vp))):
            raise ValueError("variances must be finite")
        for name, arr in (("omega_thz", omega), ("vx_db", vx), ("vp_db", vp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def default_grid(points: int = 401, band_edge_thz: float = 1.0) -> np.ndarray:
    """Sideband grid over +-band_edge_thz, exactly symmetric bin by bin."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if points % 2:
        positive = np.linspace(0.0, band_edge_thz, points // 2 + 1)
        return np.concatenate([-positive[:0:-1], positive])
    positive = np.linspace(band_edge_thz / points, band_edge_thz, points // 2)
    return np.concatenate([-positive[::-1], positive])


def synthesize_spectrum(config: TeleporterConfig, profile: SqueezingProfile,
                        grid=None) -> SpectrumRecord:
    """Noise-model spectrum of the teleported vacuum on the given grid.

    One call evaluates the analytic budget on a batch config holding the
    array N_sq(omega) from the profile (the classical regime pins N_sq = 1),
    then the low-frequency excess is added.
    Symmetric profiles give exactly symmetric spectra.
    """
    if grid is None:
        grid = default_grid()
    omega = np.asarray(grid, dtype=float)
    if omega.size == 0:
        raise ValueError("frequency grid must not be empty")
    if np.max(np.abs(omega)) > 1.0 + 1e-12:
        warnings.warn("grid extends beyond the modeled +-1 THz band",
                      stacklevel=2)

    # evaluate the budget on |omega| so symmetry is exact by construction
    n_sq = profile.n_sq(np.abs(omega))
    budget = analytic_noise_budget(replace(config, n_sq=n_sq))
    v_db = budget.n_out_db + profile.low_freq_excess.excess_db(omega)
    return SpectrumRecord(omega, v_db, v_db.copy())


def apply_measurement_jitter(record: SpectrumRecord, sigma_gain_db: float = 0.06,
                             seed: int = 0) -> SpectrumRecord:
    """Add i.i.d. Gaussian dB offsets per bin and quadrature (gain jitter)."""
    if sigma_gain_db < 0:
        raise ValueError("sigma_gain_db must be >= 0")
    if sigma_gain_db == 0.0:
        return record
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, sigma_gain_db, size=(2, record.omega_thz.size))
    return SpectrumRecord(record.omega_thz, record.vx_db + offsets[0],
                          record.vp_db + offsets[1])


def band_average(record: SpectrumRecord, exclude_below_thz: float = 0.2,
                 band_edge_thz: float = 1.0):
    """Mean dB level over the flat sidebands exclude <= |omega| <= edge.

    Returns a dict with mean_vx_db, mean_vp_db, se_db (sample std / sqrt(n))
    and the bin count n.
    """
    omega = np.abs(record.omega_thz)
    mask = (omega >= exclude_below_thz) & (omega <= band_edge_thz)
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise ValueError("no bins inside the requested sideband bands")
    vx = record.vx_db[mask]
    vp = record.vp_db[mask]
    if n > 1:
        se = float(np.sqrt((np.var(vx, ddof=1) + np.var(vp, ddof=1)) / 2.0 / n))
    else:
        se = 0.0
    return {"mean_vx_db": float(np.mean(vx)), "mean_vp_db": float(np.mean(vp)),
            "se_db": se, "n_bins": n}


def spectrum_report(record: SpectrumRecord, eta_meas: float,
                    exclude_below_thz: float = 0.2,
                    band_edge_thz: float = 1.0) -> EstimatorReport:
    """Band-averaged raw and intrinsic variances and fidelities."""
    avg = band_average(record, exclude_below_thz, band_edge_thz)
    vx_raw = from_db(avg["mean_vx_db"])
    vp_raw = from_db(avg["mean_vp_db"])
    vx_int = intrinsic_from_raw(vx_raw, eta_meas)
    vp_int = intrinsic_from_raw(vp_raw, eta_meas)
    return EstimatorReport(
        vx_raw_db=avg["mean_vx_db"],
        vp_raw_db=avg["mean_vp_db"],
        vx_int_db=float(to_db(vx_int)),
        vp_int_db=float(to_db(vp_int)),
        f_raw=fidelity_from_variances(vx_raw, vp_raw),
        f_int=fidelity_from_variances(vx_int, vp_int),
        se_db=avg["se_db"],
        n_modes=avg["n_bins"],
    )
