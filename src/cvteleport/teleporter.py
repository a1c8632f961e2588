"""All-optical teleporter circuit and its analytic noise budget.

The circuit teleports one optical mode using an EPR resource, a joint
(Bell) measurement realized on a 50:50 splitter, and feedforward applied
entirely in the optical domain: each Bell arm is amplified by a high-gain
phase-sensitive amplifier and coupled into the output mode through a weak
asymmetric tap. In the ideal limit the output quadratures satisfy

    x_out = x_in - x_1 + x_2,    p_out = p_in + p_1 + p_2,

where modes 1 and 2 are the ancillas; with an EPR pair the noise terms
cancel, with independent vacua ("classical" regime) they add three shot
noise units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .gaussian import (
    GaussianState,
    QuadAxis,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    freeze_arrays,
    make_vacuum,
    partial_trace,
    pointwise,
    psa_transform,
    squeezer,
    tensor,
    to_db,
)


class Regime(enum.Enum):
    QUANTUM = "quantum"      # EPR resource present
    CLASSICAL = "classical"  # shutters closed: ancillas are vacua


class GainTooLowError(ValueError):
    """Requested feedforward gain cannot reach unity gain with a physical tap."""


# Above this gain the tap's 1 - eps rounds toward 1: at eta_bell = eta_meas =
# 0.9 and any n_sq down to MIN_N_SQ the circuit's relative error from the
# budget is at most 7.7e-8 at 120 dB and 2.8e-6 at 60 dB, but 4e-3 at 130 dB.
MAX_FF_GAIN_DB = 120.0
# Configs and sweeps refuse n_sq below this (60 dB): the circuit's covariances,
# about 1/n_sq, cancel, and at 5e-324 overflow. The best reported squeezing is
# 15 dB (Vahlbruch et al., PRL 117, 110801, 2016).
MIN_N_SQ = 1e-6


def calibrate_unity_gain(ff_gain_db: float, eta_bell: float) -> float:
    """Tap reflectivity giving unit signal transfer through the feedforward.

    The chain tap * PSA * Bell-arm loss applies sqrt(eps) * g * sqrt(eta_bell)
    to the Bell arm, and the 50:50 Bell splitter contributes 1/sqrt(2), so
    unity gain requires eps = 2 / (eta_bell * 10^(ff_gain_db / 10)). The gain
    must lie above the floor 10 log10(2 / eta_bell) dB, where eps < 1, and at
    most ``MAX_FF_GAIN_DB``; the range is checked before any power is taken.
    """
    if not 0.0 < eta_bell <= 1.0:
        raise ValueError("eta_bell must lie in (0, 1]")
    if ff_gain_db > MAX_FF_GAIN_DB:
        raise ValueError(f"feedforward gain {ff_gain_db} dB exceeds "
                         f"MAX_FF_GAIN_DB = {MAX_FF_GAIN_DB} dB")
    floor_db = 10.0 * math.log10(2.0 / eta_bell)
    eps = (2.0 / (eta_bell * 10.0 ** (ff_gain_db / 10.0))
           if ff_gain_db > floor_db else 1.0)
    if eps >= 1.0:
        raise GainTooLowError(
            f"feedforward gain {ff_gain_db} dB too low for a physical tap "
            f"(needs more than {floor_db:.3g} dB for eps < 1)")
    return eps


@dataclass(frozen=True)
class TeleporterConfig:
    """Physical parameters of one teleporter run, or of a batch of runs.

    ``n_sq`` is the effective squeezing noise of the EPR resource (1 = none),
    ``eta_bell`` the readout efficiency of the Bell measurement arms,
    ``eta_meas`` the final readout efficiency, ``ff_gain_db`` the feedforward
    amplifier power gain; ``tap_reflectivity``, the feedforward coupling, is
    derived for unity gain by :func:`calibrate_unity_gain` (which checks the
    gain range) and is not an argument. Arrays of ``n_sq``, ``eta_bell``,
    ``eta_meas`` and ``ff_gain_db`` make the config a batch.
    """

    n_sq: float
    eta_bell: float
    eta_meas: float
    ff_gain_db: float = 60.0
    regime: Regime = Regime.QUANTUM
    tap_reflectivity: float = field(init=False)

    def __post_init__(self):
        # scalars stay Python floats: pointwise takes their powers as such
        names = ("ff_gain_db", "n_sq", "eta_bell", "eta_meas")
        freeze_arrays(self, [n for n in names if np.ndim(getattr(self, n))])
        for name in names[1:]:
            value = getattr(self, name)
            if not np.all((0 < value) & (value <= 1)):
                raise ValueError(f"{name} must lie in (0, 1]")
        object.__setattr__(self, "tap_reflectivity", pointwise(
            calibrate_unity_gain, self.ff_gain_db, self.eta_bell))
        if np.ndim(self.tap_reflectivity):
            freeze_arrays(self, ("tap_reflectivity",))


@dataclass(frozen=True)
class NoiseBudget:
    """Closed-form output noise of vacuum teleportation."""

    n_out: float
    n_out_db: float
    fidelity_vacuum: float


@dataclass(frozen=True)
class EstimatorReport:
    """Raw and loss-corrected variance/fidelity estimates with standard errors.

    Shared by the frequency-domain and time-domain harnesses; ``n_modes`` is
    the number of averaged temporal modes or spectral bins.
    """

    vx_raw_db: float
    vp_raw_db: float
    vx_int_db: float
    vp_int_db: float
    f_raw: float
    f_int: float
    se_db: float
    n_modes: int

    @classmethod
    def from_raw(cls, raw, eta_meas: float, se_db: float, n_modes: int,
                 mismatch_var: float = 0.0, raw_db=None) -> "EstimatorReport":
        """Report from the raw variance pair ``raw`` = (vx, vp) in shot-noise units.

        Inverts the readout loss ``eta_meas`` with :func:`intrinsic_from_raw`
        and applies :func:`fidelity_from_variances` to both pairs; ``f_raw``
        carries ``mismatch_var``. ``raw_db`` gives the raw dB levels when the
        harness measured them in dB (``to_db(raw)`` otherwise). Sampled
        variances may fall below vacuum, so ``f_raw`` and ``f_int`` may
        exceed 1: the estimate is honest and is not clipped.

        Raises ValueError, in this order, when ``raw`` or ``mismatch_var`` is
        not finite, when a raw variance is zero (degenerate), when a raw
        variance lies at or below the loss floor 1 - eta_meas, and when a
        field overflows (or ``se_db``/``raw_db`` is not finite).
        """
        if not np.all(np.isfinite([*raw, mismatch_var])):
            raise ValueError("raw variances are not finite")
        if 0.0 in raw:
            raise ValueError("degenerate estimate: zero raw variance")
        vx_raw, vp_raw = raw
        if raw_db is None:
            raw_db = float(to_db(vx_raw)), float(to_db(vp_raw))
        with np.errstate(over="ignore"):  # an overflow is refused below
            vx_int = intrinsic_from_raw(vx_raw, eta_meas)
            vp_int = intrinsic_from_raw(vp_raw, eta_meas)
        report = cls(*raw_db, float(to_db(vx_int)), float(to_db(vp_int)),
                     fidelity_from_variances(vx_raw, vp_raw, mismatch_var),
                     fidelity_from_variances(vx_int, vp_int), se_db, n_modes)
        if not np.all(np.isfinite(astuple(report))):
            raise ValueError("report fields are not finite")
        return report


def build_epr(n_sq: float) -> GaussianState:
    """Two-mode EPR resource from orthogonally squeezed vacua on a 50:50 splitter.

    Each input is a pure squeezed vacuum with squeezed variance ``n_sq``
    (array: a batch); the outputs satisfy Var(x1 - x2) = Var(p1 + p2) = 2 n_sq.
    """
    if not np.all((0.0 < np.asarray(n_sq)) & (np.asarray(n_sq) <= 1.0)):
        raise ValueError("n_sq must lie in (0, 1]")
    squeezing_db = -to_db(n_sq)
    state = make_vacuum(2)
    state = apply_symplectic(state, squeezer(2, 0, squeezing_db, QuadAxis.X))
    state = apply_symplectic(state, squeezer(2, 1, squeezing_db, QuadAxis.P))
    return apply_symplectic(state, beamsplitter(2, 0, 1, 0.5))


def teleport_circuit(state: GaussianState, config: TeleporterConfig) -> GaussianState:
    """Run the optical circuit on an assembled 3-mode state.

    Mode 0 is the input, mode 1 the ancilla routed to the Bell measurement,
    mode 2 the ancilla that becomes the output. Exposed separately from
    :func:`run_teleport` so tests can inject displaced or otherwise modified
    ancillas. A batch config runs the same steps as stacked products.
    """
    if state.n_modes != 3:
        raise ValueError("teleport_circuit expects a 3-mode state")
    eps = config.tap_reflectivity

    # Bell splitter: mode 0 becomes (x_in - x_1)/sqrt(2), mode 1 (p_in + p_1)/sqrt(2)
    state = apply_symplectic(state, beamsplitter(3, 1, 0, 0.5))
    state = apply_loss(state, 0, config.eta_bell)
    state = apply_loss(state, 1, config.eta_bell)
    # arm 0 carries the x-difference, arm 1 the p-sum
    state = apply_symplectic(state, psa_transform(3, 0, QuadAxis.X, config.ff_gain_db))
    state = apply_symplectic(state, psa_transform(3, 1, QuadAxis.P, config.ff_gain_db))
    # weak taps couple each amplified arm into the output mode
    state = apply_symplectic(state, beamsplitter(3, 2, 0, 1.0 - eps))
    state = apply_symplectic(state, beamsplitter(3, 2, 1, 1.0 - eps))
    state = apply_loss(state, 2, config.eta_meas)
    return partial_trace(state, [2])


def run_teleport(config: TeleporterConfig, input_state: GaussianState) -> GaussianState:
    """Teleport a single-mode Gaussian state through the configured circuit.

    The tap is calibrated for unity gain, so the output mean is
    sqrt(eta_meas) times the input mean and the added noise converges to the
    analytic budget as the feedforward gain grows. Measured in float64 at
    eta_bell = eta_meas = 0.9, the larger relative deviation of the two
    output quadrature variances from the budget is about
    0.6 eps + 0.12 eps^2 / n_sq (eps = tap_reflectivity; within 30% for
    n_sq <= 0.2 and gains of 10 to 60 dB), about 1.27 eps without squeezing
    (n_sq = 1 or the classical regime), and about 7e-8 from 100 to 120 dB,
    where rounding dominates. A batch config gives a batch.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    quantum = config.regime is Regime.QUANTUM
    ancillas = build_epr(config.n_sq) if quantum else make_vacuum(2)
    return teleport_circuit(tensor(input_state, ancillas), config)


def analytic_noise_budget(config: TeleporterConfig) -> NoiseBudget:
    """Closed-form output noise for vacuum teleportation.

    N_out = eta_meas (1 + 2 N_sq + 2 (1 - eta_bell)/eta_bell) + (1 - eta_meas),
    with N_sq = 1 in the classical regime. The vacuum fidelity of the
    symmetric output is fidelity_from_variances(N_out, N_out) = 2 / (1 + N_out).
    For a batch config the budget's fields are arrays broadcast over n_sq,
    eta_bell and eta_meas.

    This is the infinite-gain limit: ``ff_gain_db`` is not read. The
    ``budget``, ``spectrum`` and ``timetrace`` commands model that limit
    through this function; ``sweep --param ff_gain_db`` runs the circuit at
    a finite gain (:func:`run_teleport`).
    """
    n_sq = 1.0 if config.regime is Regime.CLASSICAL else config.n_sq
    n_out = (config.eta_meas
             * (1.0 + 2.0 * n_sq + 2.0 * (1.0 - config.eta_bell) / config.eta_bell)
             + (1.0 - config.eta_meas))
    return NoiseBudget(n_out=n_out, n_out_db=to_db(n_out),
                       fidelity_vacuum=fidelity_from_variances(n_out, n_out))


def intrinsic_from_raw(v_raw: float, eta: float) -> float:
    """Invert a known detection loss on a measured variance.

    V_int = (V_raw - (1 - eta)) / eta, the inverse of the loss channel's
    action on variances.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if not v_raw > 1.0 - eta:
        raise ValueError(f"raw variance {v_raw} is unphysical for eta = {eta}")
    return (v_raw - (1.0 - eta)) / eta


def fidelity_from_variances(vx: float, vp: float,
                            mismatch_var: float = 0.0) -> float:
    """Coherent-state transfer fidelity from the output quadrature variances.

    F = 2/sqrt((1+vx)(1+vp)) * prod_q (1 + mismatch_var/(1+v_q))^(-1/2), where
    ``mismatch_var`` is the variance per quadrature of the output-minus-target
    mean over a Gaussian input ensemble (0 at matched means). For output mean
    gain g and ensemble variance sigma it is (1 - g)^2 sigma. Arrays give
    an array.
    """
    if not (np.all(vx > 0) and np.all(vp > 0)):
        raise ValueError("variances must be positive")
    if not mismatch_var >= 0:
        raise ValueError("mismatch_var must be >= 0")
    penalty = 1.0
    for v in (vx, vp):
        penalty *= (1.0 + mismatch_var / (1.0 + v)) ** -0.5
    with np.errstate(over="ignore"):  # a product beyond the doubles: F -> 0
        return 2.0 / np.sqrt((1.0 + vx) * (1.0 + vp)) * penalty
