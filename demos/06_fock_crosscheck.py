"""Validate the Gaussian engine against the brute-force Fock-space oracle.

At unity gain, teleporting a coherent state is a random-displacement channel
with Gaussian-distributed kicks. The oracle builds that channel directly on
a truncated Fock basis and evaluates overlap fidelities, with no covariance
matrices anywhere, so agreement with the Gaussian formula is a genuine
cross-check.

Run:  python demos/06_fock_crosscheck.py
"""

import numpy as np

from cvteleport import GaussianState, coherent_vs_gaussian_fidelity
from cvteleport.fock import (
    classical_noise_channel,
    coherent_density,
    oracle_fidelity,
)

print("output variance x displacement grid, oracle vs Gaussian formula:")
print(f"{'V':>5} {'dx':>5} {'oracle':>10} {'formula':>10} {'gap':>9}")
for v in (1.2, 2.0, 3.0):
    rho = coherent_density(0.0, 25)
    out = classical_noise_channel(rho, (v - 1.0) * np.eye(2))
    for dx in (0.0, 0.5, 1.0):
        oracle = oracle_fidelity(out, dx / 2.0)
        state = GaussianState(1, np.zeros(2), v * np.eye(2))
        formula = coherent_vs_gaussian_fidelity([dx, 0.0], state)
        print(f"{v:5.1f} {dx:5.1f} {oracle:10.6f} {formula:10.6f} "
              f"{abs(oracle - formula):9.2e}")

# The two operating points every teleporter is judged against:
print("\nchannel landmarks (vacuum input, isotropic added noise):")
for added, name, bound in [(2.0, "classical limit", 0.5),
                           (1.0, "no-cloning bound", 2 / 3)]:
    rho = coherent_density(0.0, 25)
    out = classical_noise_channel(rho, added * np.eye(2))
    f = oracle_fidelity(out, 0.0)
    print(f"  added noise {added:.0f} per quadrature -> F = {f:.6f} "
          f"({name} {bound:.4f})")
