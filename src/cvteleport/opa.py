"""Lumped-equivalent models of waveguide optical parametric amplifiers.

Two effects are captured:

* distributed phase-sensitive gain competing with propagation loss along the
  waveguide, summarized as an equivalent loss-then-ideal-amplifier channel
  with effective efficiency ``eta_eff``;
* optical pre-amplification ahead of a lossy detector, which suppresses the
  impact of the detector's intrinsic quantum efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WaveguideSpec:
    """Distributed amplifier: total power gain and total passive loss."""

    total_gain_db: float
    internal_loss_db: float

    def __post_init__(self):
        if self.total_gain_db < 0:
            raise ValueError("total_gain_db must be >= 0")
        if self.internal_loss_db < 0:
            raise ValueError("internal_loss_db must be >= 0")


@dataclass(frozen=True)
class PreampDetectorSpec:
    """Optical pre-amplifier followed by a detector of finite quantum efficiency."""

    preamp_gain_db: float
    detector_qe: float

    def __post_init__(self):
        if not 0.0 < self.detector_qe <= 1.0:
            raise ValueError("detector_qe must lie in (0, 1]")


def distributed_psa_equivalent(spec: WaveguideSpec):
    """Equivalent (total amplitude gain, effective efficiency) of the waveguide.

    Gain and loss spread evenly along the guide act on the amplified-quadrature
    variance as dv/dz = (g - l) v + l, with g and l the total gain and loss in
    power nepers (dB ln10/10). Over the guide this is the affine map
    v -> A v + B with A = e^(g-l) and B = l expm1(g-l)/(g-l) (B = l at g = l),
    the limit of interleaved gain and loss segments as they become fine. The
    unique loss-then-ideal-amplifier channel with the same map has
    eta_eff = A / (A + B) and ideal amplitude gain g_id = sqrt(A + B); it
    reproduces the signal gain and added noise for every input variance.
    """
    gain = spec.total_gain_db * math.log(10.0) / 10.0
    loss = spec.internal_loss_db * math.log(10.0) / 10.0
    net = gain - loss
    a = math.exp(net)
    b = loss * math.expm1(net) / net if net != 0.0 else loss
    g_total = 10.0 ** ((spec.total_gain_db - spec.internal_loss_db) / 20.0)
    return g_total, a / (a + b)


def preamp_detection_efficiency(spec: PreampDetectorSpec) -> float:
    """Effective detection efficiency of pre-amplified readout.

    eta_eff = G eta / (G eta + 1 - eta) with power gain G = 10^(gain/10):
    the detector's vacuum penalty (1 - eta)/eta is referred back through the
    gain, so eta_eff -> 1 as G -> infinity.
    """
    g = 10.0 ** (spec.preamp_gain_db / 10.0)
    eta = spec.detector_qe
    return g * eta / (g * eta + 1.0 - eta)
