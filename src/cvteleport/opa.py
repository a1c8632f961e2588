"""Lumped-equivalent model of a waveguide optical parametric amplifier.

Distributed phase-sensitive gain competing with propagation loss along the
waveguide is summarized as an equivalent loss-then-ideal-amplifier channel
with effective efficiency ``eta_eff``.
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
        if not 0 <= self.total_gain_db < math.inf:
            raise ValueError("total_gain_db must be >= 0")
        if not 0 <= self.internal_loss_db < math.inf:
            raise ValueError("internal_loss_db must be >= 0")


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
    if not net + math.log1p(loss) < 709.0:  # A + B <= (1 + l) e^(g-l) < e^709
        raise ValueError(f"total_gain_db = {spec.total_gain_db} exceeds the float "
                         f"range at internal_loss_db = {spec.internal_loss_db}")
    a = math.exp(net)
    b = loss * math.expm1(net) / net if net != 0.0 else loss
    g_total = 10.0 ** ((spec.total_gain_db - spec.internal_loss_db) / 20.0)
    return g_total, a / (a + b)

