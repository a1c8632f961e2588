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
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    _as_readonly,
    QuadAxis,
    apply_loss,
    apply_symplectic,
    beamsplitter,
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


class CalibrationError(Exception):
    """Feedforward tap does not satisfy the unity-gain condition."""


class GainTooLowError(ValueError):
    """Requested feedforward gain cannot reach unity gain with a physical tap."""


# Above this gain the tap's transmission 1 - eps rounds toward 1 and the
# circuit drifts from the budget (relative error 7e-8 at 120 dB, 2e-4 at
# 130 dB, order 1 at 170 dB).
MAX_FF_GAIN_DB = 120.0


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
    amplifier power gain and ``tap_reflectivity`` the feedforward coupling.
    Leave ``tap_reflectivity`` as None to calibrate it for unity gain; the
    gain range is checked for an explicit tap too. Arrays of ``n_sq``,
    ``eta_bell``, ``eta_meas`` and ``ff_gain_db`` make the config a batch.
    """

    n_sq: float
    eta_bell: float
    eta_meas: float
    ff_gain_db: float = 60.0
    regime: Regime = Regime.QUANTUM
    tap_reflectivity: float | None = None

    def __post_init__(self):
        for name in ("ff_gain_db", "n_sq", "eta_bell", "eta_meas"):
            value = getattr(self, name)
            if np.ndim(value):
                value = _as_readonly(value)
                object.__setattr__(self, name, value)
            if name != "ff_gain_db" and not np.all((0 < value) & (value <= 1)):
                raise ValueError(f"{name} must lie in (0, 1]")
        calibrated = pointwise(calibrate_unity_gain, self.ff_gain_db, self.eta_bell)
        if self.tap_reflectivity is None:
            object.__setattr__(self, "tap_reflectivity", calibrated)
        elif not 0.0 < self.tap_reflectivity < 1.0:
            raise ValueError("tap_reflectivity must lie in (0, 1)")

    def is_unity_gain(self, rel_tol: float = 1e-9) -> bool:
        """Whether the tap is within ``rel_tol`` of unity gain at every point."""
        tap = self.tap_reflectivity  # both it and the target are positive
        target = pointwise(calibrate_unity_gain, self.ff_gain_db, self.eta_bell)
        return bool(np.all(np.abs(tap - target) <= rel_tol * np.maximum(tap, target)))


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

    At unity gain the output mean is sqrt(eta_meas) times the input mean and
    the added noise converges to the analytic budget as the feedforward gain
    grows (relative error O(tap_reflectivity)). A batch config gives a batch.
    An off-unity tap is refused; :func:`teleport_circuit` runs it anyway.
    """
    if input_state.n_modes != 1:
        raise ValueError("input must be a single-mode state")
    if not config.is_unity_gain(rel_tol=1e-6):
        raise CalibrationError(
            "tap_reflectivity does not satisfy the unity-gain condition")
    quantum = config.regime is Regime.QUANTUM
    ancillas = build_epr(config.n_sq) if quantum else make_vacuum(2)
    return teleport_circuit(tensor(input_state, ancillas), config)


def analytic_noise_budget(config: TeleporterConfig) -> NoiseBudget:
    """Closed-form output noise for vacuum teleportation.

    N_out = eta_meas (1 + 2 N_sq + 2 (1 - eta_bell)/eta_bell) + (1 - eta_meas),
    with N_sq = 1 in the classical regime. The vacuum fidelity of the
    symmetric output is 2 / (1 + N_out). For a batch config the budget's
    fields are arrays broadcast over n_sq, eta_bell and eta_meas.
    """
    n_sq = 1.0 if config.regime is Regime.CLASSICAL else config.n_sq
    n_out = (config.eta_meas
             * (1.0 + 2.0 * n_sq + 2.0 * (1.0 - config.eta_bell) / config.eta_bell)
             + (1.0 - config.eta_meas))
    return NoiseBudget(n_out=n_out, n_out_db=to_db(n_out),
                       fidelity_vacuum=2.0 / (1.0 + n_out))


def intrinsic_from_raw(v_raw: float, eta: float) -> float:
    """Invert a known detection loss on a measured variance.

    V_int = (V_raw - (1 - eta)) / eta, the inverse of the loss channel's
    action on variances.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if v_raw <= 1.0 - eta:
        raise ValueError(f"raw variance {v_raw} is unphysical for eta = {eta}")
    return (v_raw - (1.0 - eta)) / eta


def fidelity_from_variances(vx: float, vp: float,
                            mismatch_var: float = 0.0) -> float:
    """Coherent-state transfer fidelity from the output quadrature variances.

    F = 2/sqrt((1+vx)(1+vp)) * prod_q (1 + mismatch_var/(1+v_q))^(-1/2), where
    ``mismatch_var`` is the variance per quadrature of the output-minus-target
    mean over a Gaussian input ensemble (0 at matched means). For output mean
    gain g and ensemble variance sigma it is (1 - g)^2 sigma.
    """
    if vx <= 0 or vp <= 0:
        raise ValueError("variances must be positive")
    if mismatch_var < 0:
        raise ValueError("mismatch_var must be >= 0")
    penalty = 1.0
    for v in (vx, vp):
        penalty *= (1.0 + mismatch_var / (1.0 + v)) ** -0.5
    return 2.0 / math.sqrt((1.0 + vx) * (1.0 + vp)) * penalty
