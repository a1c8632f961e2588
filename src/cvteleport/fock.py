"""Brute-force truncated Fock-space oracle.

Validates the Gaussian engine's fidelity arithmetic on small instances by
direct density-matrix computation: coherent states, the unity-gain
displacement-noise channel (random Gaussian-distributed displacements, which
is what teleportation of a coherent state reduces to), and overlap
fidelities. Deliberately independent of the covariance-matrix code paths.
The channel applies each displacement operator D to a factor K of
rho = K K^dag, building only the leading columns of D that K reaches (one for
the vacuum) from one packed triangle of Laguerre values, and sums V diag(w)
V^dag with V = D K once. The teleporter adds its x and p noise independently,
so the grid runs along x and p, and D(-beta) = P D(beta) P, P = (-1)^m, and
D(beta*) = conj D(beta) let it build a quarter of the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# Gauss-Hermite nodes per quadrature axis of the displacement distribution:
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
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))


@functools.cache
def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n = 0, ..., dim - 1, read-only."""
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(dim)])
    log_fact.setflags(write=False)
    return log_fact


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Fock-basis amplitudes e^(-|a|^2/2) a^n / sqrt(n!) of a coherent state."""
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
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


@functools.cache
def _triangle(dim: int) -> tuple:
    """Per-dim constants of the packed triangle m >= n, arrays read-only.

    Row start[n] + k of a packed array is entry (m, n) = (n + k, n), k < dim - n.
    Returns start, sqrt(n!/m!) per row, and per row the coefficients a = 2n - 1
    + k and b = n - 1 + k of the recurrence n L_n^k = (a - x) L_{n-1}^k - b L_{n-2}^k.
    """
    n = np.repeat(np.arange(dim), np.arange(dim, 0, -1))
    start = np.concatenate([[0], np.cumsum(np.arange(dim, 0, -1))])
    k = np.arange(n.size) - start[n]
    log_fact = _log_factorials(dim)
    arrays = (np.exp(0.5 * (log_fact[n] - log_fact[n + k])),
              (2.0 * n - 1 + k)[:, None], (n - 1.0 + k)[:, None])
    for c in arrays:
        c.setflags(write=False)
    return (tuple(start.tolist()),) + arrays


def _laguerre_triangle(x: np.ndarray, dim: int, cols: int) -> np.ndarray:
    """Associated Laguerre values L_n^k(x) for k + n < dim and n < cols, shape
    (start[cols], len(x)) in the packed layout of ``_triangle``: row start[n] + k
    holds L_n^k, and the recurrence runs one column block n at a time."""
    (s, _, a, b), x = _triangle(dim), np.asarray(x, dtype=float)
    lag = np.empty((s[cols], x.size))
    lag[:dim] = 1.0  # L_0^k
    for n in range(1, cols):
        top = dim - n
        new = a[s[n]:s[n + 1]] - x  # L_1^k = 1 + k - x
        if n > 1:
            new = (new * lag[s[n - 1]:s[n - 1] + top]
                   - b[s[n]:s[n + 1]] * lag[s[n - 2]:s[n - 2] + top]) / n
        lag[s[n]:s[n + 1]] = new
    return lag


def displacement_matrices(betas: np.ndarray, dim: int | tuple) -> np.ndarray:
    """Fock-basis displacement operators D(beta) for a batch of amplitudes.

    Uses the closed form D_mn = sqrt(n!/m!) beta^(m-n) e^(-|b|^2/2)
    L_n^(m-n)(|b|^2) for m >= n and D(beta)^dag = D(-beta) above the
    diagonal (Cahill & Glauber, Phys. Rev. 177, 1857, 1969), column n below
    the diagonal and row n above it from block n of one packed Laguerre
    triangle. ``dim`` is the cutoff, or (dim, cols) for the leading ``cols``
    columns only, which need the blocks n < cols. Returns a fresh C-contiguous
    array of shape (len(betas), dim, cols), with cols = dim for an int dim.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=complex))
    dim, cols = (dim, dim) if np.ndim(dim) == 0 else dim
    start, ratio = _triangle(dim)[:2]
    a2 = np.abs(betas) ** 2
    block = (ratio[:start[cols], None] * np.exp(-0.5 * a2)
             * _laguerre_triangle(a2, dim, cols))
    powers = np.ones((dim, 2, betas.size), dtype=complex)  # beta^k, (-beta*)^k
    step = np.stack([betas, -np.conj(betas)])
    for k in range(1, dim):
        np.multiply(powers[k - 1], step, out=powers[k])
    out = np.empty((betas.size, dim, cols), dtype=complex)
    for n, lo, hi in zip(range(cols), start, start[1:]):
        col = block[lo:hi].T  # column n of the triangle, one row per node
        np.multiply(col, powers[:dim - n, 0].T, out=out[:, n:, n])  # D_mn, m >= n
        np.multiply(col[:, :cols - n], powers[:cols - n, 1].T,
                    out=out[:, n, n:])  # D_nm, cols > m >= n
    return out


@functools.cache
def _hermite_rule(points: int) -> np.ndarray:
    """Rows z_i and w_i / sqrt(2 pi) of ``hermegauss(points)``, read-only."""
    rule = np.stack(hermegauss(points))
    rule[1] /= np.sqrt(2.0 * np.pi)
    rule.setflags(write=False)
    return rule


def _gaussian_grid(variances, points: int):
    """Tensor-product Gauss-Hermite rule along x and p.

    An axis of variance var > 0 gets the nodes sqrt(var) z_i of
    ``hermegauss(points)`` with weights w_i / sqrt(2 pi), which integrate
    polynomials of degree < 2 * points exactly against the Gaussian (Golub &
    Welsch, Math. Comp. 23, 1969); an axis of zero variance gets one node at
    0 with weight 1. Returns the (P0, P1) grid of beta = (dx + i dp)/2 and its
    weights. hermegauss's nodes are exactly antisymmetric and its weights
    symmetric, so b[::-1, ::-1] = -b and b[:, ::-1] = conj(b) bit for bit.
    """
    z, wz = _hermite_rule(points)
    (dx, w0), (dp, w1) = [(np.sqrt(var) * z, wz) if var > 0.0
                          else (np.zeros(1), np.ones(1)) for var in variances]
    return (dx[:, None] + 1j * dp) / 2.0, np.outer(w0, w1)


def classical_noise_channel(rho: FockDensityMatrix, noise_cov,
                            grid_points: int = DEFAULT_GRID_POINTS
                            ) -> FockDensityMatrix:
    """Random-displacement channel: integral of P(beta) D(beta) rho D(beta)^dag.

    ``noise_cov`` is the 2x2 covariance of the quadrature displacements
    (dx, dp) in shot-noise units; beta = (dx + i dp)/2. This is the channel a
    unity-gain teleporter applies to its input, with noise_cov = (N_out - 1)
    per quadrature for vacuum teleportation. The teleporter adds its x and p
    noise independently, so noise_cov must be diagonal with nonnegative
    variances; correlated noise raises ValueError. ``grid_points`` is the
    number of Gauss-Hermite nodes per axis. The mirrors D(-beta) = P D(beta) P,
    P = diag((-1)^m), and D(beta*) = conj D(beta) quarter the operators built.
    A piece is the whole rows that fit in ``CHANNEL_PIECE``, or one.

    rho must be positive semidefinite: it is factored once as rho = K K^dag
    from its eigenvalues above max|lambda| * dim * eps (rank r: 1 for a coherent
    state), and D K reads only the leading c columns of D, c = 1 + the last
    nonzero row of K (1 for the vacuum), so only those are built. Each piece
    stores its rows of V = D K, and one product V diag(w) V^dag after the loop
    accumulates the whole grid in its own order, so the output does not depend
    on CHANNEL_PIECE. A node costs about 2 dim c r; D rho D^dag costs 2 dim^3.
    """
    noise_cov = np.asarray(noise_cov, dtype=float)
    if noise_cov.shape != (2, 2) or not np.all(np.isfinite(noise_cov)):
        raise ValueError("noise_cov must be a finite 2x2 matrix")
    variances = np.diag(noise_cov)
    if noise_cov[0, 1] != 0.0 or noise_cov[1, 0] != 0.0 or np.min(variances) < 0.0:
        raise ValueError("noise_cov must be diagonal with nonnegative variances")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    lam, u = np.linalg.eigh(rho.matrix)
    tol = np.max(np.abs(lam)) * rho.dim * np.finfo(float).eps
    if lam[0] < -tol:
        raise ValueError("rho must be positive semidefinite")
    if np.max(np.abs(noise_cov)) == 0.0:
        return rho

    keep = lam > tol
    cols = np.trim_zeros(np.any(u[:, keep], axis=1), "b").size  # rows K touches
    factor = u[:cols, keep] * np.sqrt(lam[keep])  # rho = factor factor^dag
    b, w = _gaussian_grid(variances, grid_points)
    parity = (1.0 - 2.0 * (np.arange(rho.dim) % 2))[:, None]  # P = diag((-1)^m)
    one = np.ones_like(parity)
    v = np.empty(b.shape + (rho.dim, factor.shape[1]), dtype=complex)  # V = D K
    # images R cj(D cj(R K)): P D (P K) at -beta, conjugated at beta* and -beta*;
    # the node itself last, so a node that is its own image keeps its own value
    images = [(v[::-1, ::-1], parity, np.asarray), (v[:, ::-1], one, np.conj),
              (v[::-1], parity, np.conj), (v, one, np.asarray)]
    h0, h1 = (-(-n // 2) for n in b.shape)  # the built nodes i < h0, j < h1
    for lo in range(0, h0, rows := max(1, CHANNEL_PIECE // h1)):  # whole rows
        piece = np.s_[lo:min(lo + rows, h0), :h1]
        d = displacement_matrices(b[piece].ravel(), (rho.dim, cols))
        for image, r, cj in images:
            image[piece] = (cj(d @ cj(r[:cols] * factor)) * r).reshape(
                image[piece].shape)
    v = v.reshape(w.size, rho.dim, -1).transpose(1, 0, 2).reshape(rho.dim, -1)
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
