"""Effective efficiencies of the waveguide amplifiers.

Two mechanisms keep the all-optical processing efficient despite real
propagation loss and a 30% detector:

1. gain/loss competition along the waveguide: internal loss interleaved with
   distributed phase-sensitive gain is strongly suppressed, summarized as a
   loss-then-ideal-amplifier channel with effective efficiency eta_eff (in
   closed form: the continuum limit of finely interleaved gain and loss);
2. optical pre-amplification before a lossy detector refers the detector's
   vacuum penalty back through the gain.

Run:  python demos/05_opa_efficiency.py
"""

import numpy as np

from cvteleport import (
    PreampDetectorSpec,
    WaveguideSpec,
    distributed_psa_equivalent,
    preamp_detection_efficiency,
)

# Calibrate the internal loss so a 30 dB amplifier reaches 98.8% effective
# efficiency, then look at the 25 dB measurement amplifier with the same
# loss density. eta_eff falls as the loss grows, so bisection finds it.
lo, hi = 1e-6, 5.0
for _ in range(60):
    mid = 0.5 * (lo + hi)
    if distributed_psa_equivalent(WaveguideSpec(30.0, mid))[1] > 0.988:
        lo = mid
    else:
        hi = mid
loss_db = 0.5 * (lo + hi)
print(f"internal loss reproducing 98.8% at 30 dB: {loss_db:.3f} dB")
for gain in (30.0, 25.0):
    _, eta = distributed_psa_equivalent(WaveguideSpec(gain, loss_db))
    print(f"  {gain:.0f} dB amplifier: eta_eff = {eta:.4f}")

# Without the distributed gain the same waveguide would simply lose
# 10^(-loss/10) of the signal:
print(f"  passive transmission at that loss: {10 ** (-loss_db / 10):.4f}")

# Pre-amplified homodyne readout: a 25 dB amplifier in front of a detector
# with 30% intrinsic quantum efficiency.
spec = PreampDetectorSpec(preamp_gain_db=25.0, detector_qe=0.30)
print(f"\npre-amplified detection: eta_eff = "
      f"{preamp_detection_efficiency(spec):.4f} from a 30% detector")
for gain in (0, 5, 10, 15, 20, 25, 30):
    eta = preamp_detection_efficiency(PreampDetectorSpec(float(gain), 0.30))
    print(f"  {gain:2d} dB pre-gain -> {eta:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.6))
gains = np.linspace(0, 35, 120)
for L, style in [(0.2, "-"), (loss_db, "--"), (1.0, ":")]:
    etas = [distributed_psa_equivalent(WaveguideSpec(float(g), L))[1]
            for g in gains]
    ax1.plot(gains, etas, style, label=f"loss {L:.2f} dB")
ax1.set_xlabel("parametric gain (dB)")
ax1.set_ylabel("effective efficiency")
ax1.set_title("distributed gain vs internal loss")
ax1.legend(fontsize=8)

qes = np.linspace(0.05, 1.0, 120)
for g, style in [(0.0, ":"), (10.0, "--"), (25.0, "-")]:
    etas = [preamp_detection_efficiency(PreampDetectorSpec(g, float(q)))
            for q in qes]
    ax2.plot(qes, etas, style, label=f"pre-gain {g:.0f} dB")
ax2.set_xlabel("detector quantum efficiency")
ax2.set_ylabel("effective detection efficiency")
ax2.set_title("pre-amplified readout")
ax2.legend(fontsize=8)
fig.tight_layout()
fig.savefig("demo_opa_efficiency.png", dpi=150)
print("\nsaved demo_opa_efficiency.png")
