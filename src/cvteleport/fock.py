"""Brute-force truncated Fock-space oracle.

Validates the Gaussian engine's fidelity arithmetic on small instances by
direct density-matrix computation: coherent states, the unity-gain
displacement-noise channel (random Gaussian-distributed displacements, which
is what teleportation of a coherent state reduces to), and overlap
fidelities. Deliberately independent of the covariance-matrix code paths.
The channel's grid is mirror-symmetric, so it builds the displacement
operators of half its nodes, CHANNEL_PIECE at a time, and gets the other
half by an exact sign flip. It applies each operator to a factor K of
rho = K K^dag, not to rho from both sides, keeps only V = D K (dim x nodes
x rank) and accumulates V diag(w) V^dag once over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Gauss-Hermite nodes per principal axis of the displacement distribution:
# 20 x 20 nodes put the channel within ~1e-9 of the Gaussian formulas at dim 25.
DEFAULT_GRID_POINTS = 20
# Operators built per piece in the channel, and the most alive at once; 128
# beat 64 on time and 256 on peak memory in ``validate --level full``.
CHANNEL_PIECE = 128
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
    """Associated Laguerre values L_n^k(x) for k + n < dim.

    Shape (dim, dim, len(x)) indexed [k, n], valid on the triangle a dim x dim
    displacement operator reads; three-term recurrence (n+1) L_{n+1}^k =
    (2n + 1 + k - x) L_n^k - (n + k) L_{n-1}^k, run over n for all its k at once.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(dim, dtype=float).reshape((dim,) + (1,) * x.ndim)
    table = np.ones((dim, dim) + x.shape)
    if dim > 1:
        table[:, 1] = 1.0 + k - x
    for n in range(1, dim - 1):
        top = dim - n - 1  # rows k with k + n + 1 < dim
        table[:top, n + 1] = ((2 * n + 1 + k[:top] - x) * table[:top, n]
                              - (n + k[:top]) * table[:top, n - 1]) / (n + 1)
    return table


def displacement_matrices(betas: np.ndarray, dim: int) -> np.ndarray:
    """Fock-basis displacement operators D(beta) for a batch of amplitudes.

    Uses the closed form D_mn = sqrt(n!/m!) beta^(m-n) e^(-|b|^2/2)
    L_n^(m-n)(|b|^2) for m >= n and D(beta)^dag = D(-beta) above the
    diagonal (Cahill & Glauber, Phys. Rev. 177, 1857, 1969). Only beta^(m-n)
    and its conjugate change sign with beta, so D(-beta)_mn equals
    (-1)^(m-n) D(beta)_mn exactly. Returns shape (len(betas), dim, dim), a
    view of an array laid out (dim, dim, len(betas)).
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    a2 = np.abs(betas) ** 2
    lag = _laguerre_table(a2, dim)
    env = np.exp(-0.5 * a2)
    log_fact = _log_factorials(dim)
    pw = np.ones((dim, betas.size), dtype=complex)  # beta^k
    nw = np.ones((dim, betas.size), dtype=complex)  # (-beta*)^k
    for k in range(1, dim):
        pw[k] = pw[k - 1] * betas
        nw[k] = nw[k - 1] * (-np.conj(betas))
    mm, nn = np.tril_indices(dim)
    kk = mm - nn
    ratio = np.exp(0.5 * (log_fact[nn] - log_fact[mm]))
    block = ratio[:, None] * env[None, :] * lag[kk, nn]
    out = np.empty((dim, dim, betas.size), dtype=complex)
    out[mm, nn] = block * pw[kk]
    out[nn, mm] = block * nw[kk]  # the diagonal again, times (-beta*)^0 = 1
    return out.transpose(2, 0, 1)


def _gaussian_grid(noise_cov: np.ndarray, points: int):
    """Tensor-product Gauss-Hermite rule along the covariance's principal axes.

    An axis of variance lam > 0 gets the nodes sqrt(lam) z_i of
    ``hermegauss(points)`` with weights w_i / sqrt(2 pi), which integrate
    polynomials of degree < 2 * points exactly against the Gaussian (Golub &
    Welsch, Math. Comp. 23, 1969); an axis of zero variance gets one node at
    0 with weight 1. Returns quadrature displacements (dx, dp) and weights.
    The rule is mirror-symmetric by construction: node P-1-p is the negated
    node p and carries the same weight.
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
    w = np.outer(w0, w1).ravel()
    half = w.size // 2
    np.negative(dxdp[:, :half][:, ::-1], out=dxdp[:, w.size - half:])
    w[w.size - half:] = w[:half][::-1]
    return dxdp[0], dxdp[1], w


def classical_noise_channel(rho: FockDensityMatrix, noise_cov,
                            grid_points: int = DEFAULT_GRID_POINTS
                            ) -> FockDensityMatrix:
    """Random-displacement channel: integral of P(beta) D(beta) rho D(beta)^dag.

    ``noise_cov`` is the 2x2 covariance of the quadrature displacements
    (dx, dp) in shot-noise units; beta = (dx + i dp)/2. This is the channel a
    unity-gain teleporter applies to its input, with noise_cov = (N_out - 1)
    per quadrature for vacuum teleportation. ``grid_points`` is the number of
    Gauss-Hermite nodes per principal axis. The grid is mirror-symmetric, so
    the operators are built for its first half only, ``CHANNEL_PIECE`` nodes
    at a time, and each mirror image D(-beta) is an exact sign flip of D(beta).

    rho must be positive semidefinite: it is factored once as rho = K K^dag
    from its eigenvalues above max|lambda| * dim * eps, so K has one column
    per such eigenvalue (rank r: 1 for a coherent state, dim for a full-rank
    mixed state). Each piece and its mirror store their rows of V = D K, and
    one product V diag(w) V^dag after the loop accumulates the whole grid in
    its own order, so the output does not depend on CHANNEL_PIECE. That costs
    about 2 dim^2 r per node where D rho D^dag costs 2 dim^3.
    """
    noise_cov = np.asarray(noise_cov, dtype=float)
    if noise_cov.shape != (2, 2) or not np.all(np.isfinite(noise_cov)):
        raise ValueError("noise_cov must be a finite 2x2 matrix")
    if not np.allclose(noise_cov, noise_cov.T, rtol=1e-12, atol=0.0):
        raise ValueError("noise_cov must be symmetric")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    lam, u = np.linalg.eigh(rho.matrix)
    tol = np.max(np.abs(lam)) * rho.dim * np.finfo(float).eps
    if lam[0] < -tol:
        raise ValueError("rho must be positive semidefinite")
    if np.max(np.abs(noise_cov)) == 0.0:
        return rho

    keep = lam > tol
    factor = u[:, keep] * np.sqrt(lam[keep])  # rho = factor factor^dag
    dx, dp, w = _gaussian_grid(noise_cov, grid_points)
    betas = (dx + 1j * dp) / 2.0
    size, half = betas.size, betas.size // 2  # node size-1-p mirrors node p
    sign = 1.0 - 2.0 * (np.indices((rho.dim,) * 2).sum(0) % 2)  # (-1)^(m-n)
    d = np.empty((min(size - half, CHANNEL_PIECE), rho.dim, rho.dim), dtype=complex)
    v = np.empty((size, rho.dim, factor.shape[1]), dtype=complex)  # V = D K
    for lo in range(0, size - half, CHANNEL_PIECE):
        hi = min(lo + CHANNEL_PIECE, size - half)
        n, m = hi - lo, max(0, min(hi, half) - lo)  # built, mirrored
        d[:n] = displacement_matrices(betas[lo:hi], rho.dim)
        v[lo:hi] = d[:n] @ factor
        d[:m] *= sign
        v[size - lo - m:size - lo][::-1] = d[:m] @ factor
    v = v.transpose(1, 0, 2).reshape(rho.dim, -1)
    acc = (v * np.repeat(w, factor.shape[1])) @ v.conj().T
    return FockDensityMatrix(rho.dim, 0.5 * (acc + acc.conj().T))


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
