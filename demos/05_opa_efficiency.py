"""Effective efficiency of the waveguide amplifiers.

Gain/loss competition along the waveguide keeps the all-optical processing
efficient despite real propagation loss: internal loss interleaved with
distributed phase-sensitive gain is strongly suppressed, summarized as a
loss-then-ideal-amplifier channel with effective efficiency eta_eff (in
closed form: the continuum limit of finely interleaved gain and loss).

Run:  python demos/05_opa_efficiency.py
"""

import numpy as np

from cvteleport.opa import WaveguideSpec, distributed_psa_equivalent

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

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(4.5, 3.6))
gains = np.linspace(0, 35, 120)
for L, style in [(0.2, "-"), (loss_db, "--"), (1.0, ":")]:
    etas = [distributed_psa_equivalent(WaveguideSpec(float(g), L))[1]
            for g in gains]
    ax.plot(gains, etas, style, label=f"loss {L:.2f} dB")
ax.set_xlabel("parametric gain (dB)")
ax.set_ylabel("effective efficiency")
ax.set_title("distributed gain vs internal loss")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("demo_opa_efficiency.png", dpi=150)
print("\nsaved demo_opa_efficiency.png")
