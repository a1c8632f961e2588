"""Brute-force truncated Fock-space oracle.

Validates the Gaussian engine's fidelity arithmetic on small instances by
direct density-matrix computation: coherent states, the unity-gain
displacement-noise channel (random Gaussian-distributed displacements, which
is what teleportation of a coherent state reduces to), and overlap
fidelities. Deliberately independent of the covariance-matrix code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Gauss-Hermite nodes per principal axis of the displacement distribution:
# 20 x 20 nodes put the channel within ~1e-9 of the Gaussian formulas at dim 25.
DEFAULT_GRID_POINTS = 20
# Norm a truncated coherent state may lose as an input and as a fidelity target.
MAX_INPUT_TRACE_DEFICIT = 1e-8
MAX_TARGET_TRACE_DEFICIT = 1e-6


class TruncationError(ValueError):
    """State not representable within the Fock-space cutoff."""


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the truncated Fock basis {|0>, ..., |dim-1>}."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))


def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n = 0, ..., dim - 1."""
    return np.array([math.lgamma(n + 1.0) for n in range(dim)])


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Fock-basis amplitudes e^(-|a|^2/2) a^n / sqrt(n!) of a coherent state."""
    n = np.arange(dim)
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return amp
    # log-domain magnitudes avoid overflow in |a|^n / sqrt(n!)
    log_mag = (n * np.log(np.abs(alpha)) - 0.5 * _log_factorials(dim)
               - 0.5 * np.abs(alpha) ** 2)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def coherent_density(alpha: complex, dim: int) -> FockDensityMatrix:
    """Truncated |alpha><alpha|; rejects cutoffs that lose too much norm."""
    c = coherent_amplitudes(alpha, dim)
    deficit = 1.0 - float(np.real(c @ c.conj()))
    if deficit > MAX_INPUT_TRACE_DEFICIT:
        raise TruncationError(
            f"coherent state |alpha|^2 = {abs(alpha) ** 2:.3g} loses trace "
            f"{deficit:.3g} at dim = {dim}")
    return FockDensityMatrix(dim, np.outer(c, c.conj()))


def _laguerre_table(x: np.ndarray, dim: int) -> np.ndarray:
    """Associated Laguerre values L_n^k(x) for 0 <= n, k < dim.

    Shape (dim, dim, len(x)) indexed [k, n]; standard three-term recurrence
    (n+1) L_{n+1}^k = (2n + 1 + k - x) L_n^k - (n + k) L_{n-1}^k, run over n
    for every k at once.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(dim, dtype=float).reshape((dim,) + (1,) * x.ndim)
    table = np.ones((dim, dim) + x.shape)
    if dim > 1:
        table[:, 1] = 1.0 + k - x
    for n in range(1, dim - 1):
        table[:, n + 1] = ((2 * n + 1 + k - x) * table[:, n]
                           - (n + k) * table[:, n - 1]) / (n + 1)
    return table


def displacement_matrices(betas: np.ndarray, dim: int) -> np.ndarray:
    """Fock-basis displacement operators D(beta) for a batch of amplitudes.

    Uses the closed form D_mn = sqrt(n!/m!) beta^(m-n) e^(-|b|^2/2)
    L_n^(m-n)(|b|^2) for m >= n and D(beta)^dag = D(-beta) above the
    diagonal. Returns shape (len(betas), dim, dim).
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    a2 = np.abs(betas) ** 2
    lag = _laguerre_table(a2, dim)
    env = np.exp(-0.5 * a2)
    log_fact = _log_factorials(dim)
    out = np.zeros((betas.size, dim, dim), dtype=complex)
    bpow = np.ones_like(betas)
    bneg = np.ones_like(betas)
    for k in range(dim):
        n = np.arange(dim - k)
        ratio = np.exp(0.5 * (log_fact[n] - log_fact[n + k]))
        block = ratio[None, :] * env[:, None] * lag[k, n, :].T
        out[:, n + k, n] = block * bpow[:, None]
        if k > 0:
            out[:, n, n + k] = block * bneg[:, None]
        bpow = bpow * betas
        bneg = bneg * (-np.conj(betas))
    return out


def _gaussian_grid(noise_cov: np.ndarray, points: int):
    """Tensor-product Gauss-Hermite rule along the covariance's principal axes.

    An axis of variance lam > 0 gets the nodes sqrt(lam) z_i of
    ``hermegauss(points)`` with weights w_i / sqrt(2 pi), which integrate
    polynomials of degree < 2 * points exactly against the Gaussian (Golub &
    Welsch, Math. Comp. 23, 1969); an axis of zero variance gets one node at
    0 with weight 1. Returns quadrature displacements (dx, dp) and weights.
    """
    evals, evecs = np.linalg.eigh(noise_cov)
    if np.min(evals) < -1e-12:
        raise ValueError("noise_cov must be positive semidefinite")
    z, wz = hermegauss(points)
    wz = wz / np.sqrt(2.0 * np.pi)
    (u0, w0), (u1, w1) = [(np.sqrt(lam) * z, wz) if lam > 0.0
                          else (np.zeros(1), np.ones(1)) for lam in evals]
    u, v = np.meshgrid(u0, u1, indexing="ij")
    dxdp = evecs @ np.stack([u.ravel(), v.ravel()])
    return dxdp[0], dxdp[1], np.outer(w0, w1).ravel()


def classical_noise_channel(rho: FockDensityMatrix, noise_cov,
                            grid_points: int = DEFAULT_GRID_POINTS
                            ) -> FockDensityMatrix:
    """Random-displacement channel: integral of P(beta) D(beta) rho D(beta)^dag.

    ``noise_cov`` is the 2x2 covariance of the quadrature displacements
    (dx, dp) in shot-noise units; beta = (dx + i dp)/2. This is the channel a
    unity-gain teleporter applies to its input, with noise_cov = (N_out - 1)
    per quadrature for vacuum teleportation. ``grid_points`` is the number of
    Gauss-Hermite nodes per principal axis; the displacement operators are
    built 4096 at a time so memory stays bounded for large grids.
    """
    noise_cov = np.asarray(noise_cov, dtype=float)
    if noise_cov.shape != (2, 2) or not np.all(np.isfinite(noise_cov)):
        raise ValueError("noise_cov must be a finite 2x2 matrix")
    if not np.allclose(noise_cov, noise_cov.T, rtol=1e-12, atol=0.0):
        raise ValueError("noise_cov must be symmetric")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    if np.max(np.abs(noise_cov)) == 0.0:
        return rho

    dx, dp, w = _gaussian_grid(noise_cov, grid_points)
    betas = (dx + 1j * dp) / 2.0
    chunk = 4096
    acc = np.zeros((rho.dim, rho.dim), dtype=complex)
    for lo in range(0, betas.size, chunk):
        d = displacement_matrices(betas[lo:lo + chunk], rho.dim)
        t = d @ rho.matrix
        acc += np.einsum("p,pmk,plk->ml", w[lo:lo + chunk], t, d.conj(),
                         optimize=True)
    acc = 0.5 * (acc + acc.conj().T)
    return FockDensityMatrix(rho.dim, acc)


def oracle_fidelity(rho: FockDensityMatrix, target_alpha: complex) -> float:
    """<alpha| rho |alpha> evaluated directly in the Fock basis."""
    c = coherent_amplitudes(target_alpha, rho.dim)
    deficit = 1.0 - float(np.real(c @ c.conj()))
    if deficit > MAX_TARGET_TRACE_DEFICIT:
        raise TruncationError(
            f"target coherent state not representable at dim = {rho.dim}")
    return float(np.real(c.conj() @ rho.matrix @ c))


def teleported_coherent_oracle(alpha: complex, added_noise_per_quadrature: float,
                               dim: int = 25,
                               grid_points: int = DEFAULT_GRID_POINTS) -> float:
    """Oracle fidelity of unity-gain teleportation of a coherent state.

    Applies the displacement-noise channel with isotropic quadrature noise to
    |alpha> and evaluates the overlap with the original state.
    """
    rho = coherent_density(alpha, dim)
    cov = added_noise_per_quadrature * np.eye(2)
    out = classical_noise_channel(rho, cov, grid_points=grid_points)
    return oracle_fidelity(out, alpha)
