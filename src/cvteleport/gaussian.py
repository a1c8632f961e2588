"""Exact Gaussian-state engine: states, symplectic transforms, loss channels.

Conventions used throughout the package:

* quadratures x = a + a^dag, p = -i (a - a^dag), so the vacuum state has
  unit variance in each quadrature and 0 dB is the shot-noise level;
* mean vectors and covariance matrices are ordered per mode as
  (x1, p1, x2, p2, ..., xn, pn);
* the symplectic form Omega is the block-diagonal stack of [[0, 1], [-1, 0]],
  scaled so the vacuum saturates the uncertainty relation cov + i*Omega >= 0.

States and transforms take an optional leading batch axis (one without it is
checked as a batch of one); parameter arrays build batched transforms. Values
are immutable and every operation returns a new state, so states can be shared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10
SYMPLECTIC_TOL = 1e-10


class QuadAxis(enum.Enum):
    """Which quadrature an operation acts on (amplifies, squeezes, measures)."""

    X = "x"
    P = "p"


def to_db(variance):
    """Variance in shot-noise units -> dB relative to vacuum (0 dB)."""
    return 10.0 * np.log10(variance)


def from_db(variance_db):
    """Inverse of :func:`to_db`."""
    return 10.0 ** (np.asarray(variance_db) / 10.0)


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for ``n_modes`` modes."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1], omega[2 * m + 1, 2 * m] = 1.0, -1.0
    return omega


def _as_readonly(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _reject(bad, message: str):
    """Raise ValueError naming the first batch index where ``bad`` holds."""
    if bad.any():
        raise ValueError(f"{message} (batch index {bad.argmax()})")


def pointwise(func, *args):
    """``func`` applied to each point of the broadcast ``args`` as scalars.

    The vectorised ``10.0 ** x`` differs from the scalar power in the last
    bit for about 5% of values, so powers are taken one point at a time.
    """
    shape = np.broadcast(*args).shape
    if not shape:
        return func(*args)
    columns = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
    return np.array([func(*point) for point in zip(*columns)]).reshape(shape)


@dataclass(frozen=True)
class GaussianState:
    """Means (b, 2n) and covariances (b, 2n, 2n) of a batch of n-mode Gaussian
    states, or (2n,) and (2n, 2n) for one, in shot-noise units."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        mean, cov = _as_readonly(self.mean), _as_readonly(self.cov)
        d = 2 * self.n_modes
        if mean.shape[-1:] != (d,) or cov.shape != mean.shape[:-1] + (d, d):
            raise ValueError(f"need mean (..., {d}) and cov (..., {d}, {d}) of one "
                             f"batch shape, got {mean.shape} and {cov.shape}")
        scale = np.maximum(1.0, np.abs(cov).reshape(-1, d * d).max(axis=1))
        asym = np.abs(cov - cov.swapaxes(-1, -2)).reshape(-1, d * d).max(axis=1)
        _reject(asym > SYMMETRY_TOL * scale, "covariance matrix is not symmetric")
        _reject((cov.diagonal(axis1=-2, axis2=-1) <= 0.0).reshape(-1, d).any(axis=1),
                "covariance diagonal entries must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class SymplecticTransform:
    """A symplectic matrix, or a (b, 2n, 2n) batch of them, acting on means
    as S @ mean and on cov as S cov S^T."""

    matrix: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        m = _as_readonly(self.matrix)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2:
            raise ValueError("symplectic matrix must be square with even size")
        omega = symplectic_form(m.shape[-1] // 2)
        err = np.abs(m @ omega @ m.swapaxes(-1, -2) - omega)
        _reject(err.reshape(-1, omega.size).max(axis=1) > SYMPLECTIC_TOL,
                f"matrix is not symplectic (label={self.label!r})")
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[-1] // 2


def make_vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    d = 2 * n_modes
    return GaussianState(n_modes, np.zeros(d), np.eye(d))


def _check_mode(n_modes: int, mode: int):
    if not 0 <= mode < n_modes:
        raise IndexError(f"mode {mode} out of range for {n_modes} modes")


def _transform(n_modes: int, label: str, entries: dict) -> SymplecticTransform:
    """The identity with ``entries`` {(row, col): value} set; array values
    make a batch of their broadcast shape."""
    d = 2 * n_modes
    m = np.eye(d) + np.zeros(np.broadcast(*entries.values()).shape + (d, d))
    for (row, col), value in entries.items():
        m[..., row, col] = value
    return SymplecticTransform(m, label=label)


def squeezer(n_modes: int, mode: int, squeezing_db,
             axis: QuadAxis = QuadAxis.X) -> SymplecticTransform:
    """Single-mode squeezer reducing the variance of ``axis`` by ``squeezing_db``:
    the phase-sensitive amplifier of gain -squeezing_db.

    Applied to vacuum with axis=X the result is a pure state with
    Var(x) = 10^(-squeezing_db/10) and Var(p) = 10^(+squeezing_db/10).
    """
    if (np.asarray(squeezing_db) < 0).any():
        raise ValueError("squeezing_db must be >= 0 (use psa_transform for gain)")
    return psa_transform(n_modes, mode, axis, np.negative(squeezing_db))


def psa_transform(n_modes: int, mode: int, axis: QuadAxis,
                  gain_db) -> SymplecticTransform:
    """Phase-sensitive amplifier: amplitude gain 10^(gain_db/20) on ``axis``,
    the reciprocal on the conjugate quadrature. Noiseless (pure symplectic)."""
    _check_mode(n_modes, mode)
    g = pointwise(lambda db: 10.0 ** (db / 20.0), gain_db)
    i = 2 * mode if axis is QuadAxis.X else 2 * mode + 1
    return _transform(n_modes, "psa", {(i, i): g, (i ^ 1, i ^ 1): 1.0 / g})


def beamsplitter(n_modes: int, mode_i: int, mode_j: int,
                 transmissivity) -> SymplecticTransform:
    """Two-mode beamsplitter with power transmissivity T.

    Acts identically on both quadratures of the pair:
    q_i' = sqrt(T) q_i + sqrt(1-T) q_j,  q_j' = -sqrt(1-T) q_i + sqrt(T) q_j.
    """
    transmissivity = np.asarray(transmissivity, dtype=float)
    if not ((0.0 <= transmissivity) & (transmissivity <= 1.0)).all():
        raise ValueError("transmissivity must lie in [0, 1]")
    if mode_i == mode_j:
        raise ValueError("beamsplitter requires two distinct modes")
    _check_mode(n_modes, mode_i)
    _check_mode(n_modes, mode_j)
    t = np.sqrt(transmissivity)
    r = np.sqrt(1.0 - transmissivity)
    entries = {}
    for a, b in ((2 * mode_i, 2 * mode_j), (2 * mode_i + 1, 2 * mode_j + 1)):
        entries.update({(a, a): t, (a, b): r, (b, a): -r, (b, b): t})
    return _transform(n_modes, "beamsplitter", entries)


def phase_rotation(n_modes: int, mode: int, theta) -> SymplecticTransform:
    """Rotate the (x, p) plane of one mode by ``theta`` radians."""
    _check_mode(n_modes, mode)
    c, s, i = np.cos(theta), np.sin(theta), 2 * mode
    return _transform(n_modes, "phase", {(i, i): c, (i, i + 1): s,
                                         (i + 1, i): -s, (i + 1, i + 1): c})


def apply_symplectic(state: GaussianState, s: SymplecticTransform) -> GaussianState:
    """Apply S to the state: mean -> S mean, cov -> S cov S^T (stacked)."""
    if s.n_modes != state.n_modes:
        raise ValueError("transform and state mode counts differ")
    m = s.matrix
    return GaussianState(state.n_modes, (m @ state.mean[..., None])[..., 0],
                         m @ state.cov @ m.swapaxes(-1, -2))


def apply_loss(state: GaussianState, mode: int, eta) -> GaussianState:
    """Pure loss channel of transmission ``eta`` on one mode.

    Per affected quadrature Var' = eta Var + (1 - eta), mean' = sqrt(eta) mean,
    cross covariances scale by sqrt(eta).
    """
    eta = np.asarray(eta, dtype=float)
    if not ((0.0 <= eta) & (eta <= 1.0)).all():
        raise ValueError("eta must lie in [0, 1]")
    _check_mode(state.n_modes, mode)
    shape = np.shape(eta) + (2 * state.n_modes,)
    x = np.ones(shape)
    x[..., 2 * mode] = x[..., 2 * mode + 1] = np.sqrt(eta)
    add = np.zeros(shape)
    add[..., 2 * mode] = add[..., 2 * mode + 1] = 1.0 - eta
    cov = (state.cov * (x[..., :, None] * x[..., None, :])
           + add[..., :, None] * np.eye(shape[-1]))
    return GaussianState(state.n_modes, x * state.mean, cov)


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Displace one mode's mean by (dx, dp); covariance unchanged."""
    _check_mode(state.n_modes, mode)
    mean = np.array(state.mean)
    mean[..., 2 * mode] += dx
    mean[..., 2 * mode + 1] += dp
    return GaussianState(state.n_modes, mean, state.cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product: modes of ``a`` first, then modes of ``b``; a single
    state pairs with each state of a batch."""
    d, k = 2 * (a.n_modes + b.n_modes), 2 * a.n_modes
    batch = np.broadcast_shapes(a.mean.shape[:-1], b.mean.shape[:-1])
    mean, cov = np.zeros(batch + (d,)), np.zeros(batch + (d, d))
    mean[..., :k], mean[..., k:] = a.mean, b.mean
    cov[..., :k, :k], cov[..., k:, k:] = a.cov, b.cov
    return GaussianState(d // 2, mean, cov)


def quad_statistics(state: GaussianState, mode: int):
    """(mean_x, mean_p, var_x, var_p) of one mode: numbers, or batch arrays."""
    _check_mode(state.n_modes, mode)
    i = 2 * mode
    mean, var = state.mean.T, np.diagonal(state.cov, axis1=-2, axis2=-1).T
    return mean[i], mean[i + 1], var[i], var[i + 1]


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Keep only the listed modes (ascending order); valid for Gaussian states."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep-set must not be empty")
    for m in keep:
        _check_mode(state.n_modes, m)
    idx = np.array([2 * m + q for m in keep for q in range(2)])
    return GaussianState(len(keep), state.mean[..., idx],
                         state.cov[..., idx[:, None], idx])


def min_uncertainty_eigenvalue(state: GaussianState):
    """Smallest eigenvalue of cov + i Omega per state; physical states: >= -1e-9."""
    omega = symplectic_form(state.n_modes)
    return np.min(np.linalg.eigvalsh(state.cov + 1j * omega), axis=-1)


def coherent_state(n_modes: int, mode: int, mean_x: float,
                   mean_p: float) -> GaussianState:
    """Vacuum displaced in one mode: the standard coherent input state."""
    return displace(make_vacuum(n_modes), mode, mean_x, mean_p)


def coherent_vs_gaussian_fidelity(target_mean, out: GaussianState) -> float:
    """Fidelity between a target coherent state and a single-mode Gaussian state.

    For covariance diagonal in the principal axes this reduces to
    F = 2/sqrt((1+Vx)(1+Vp)) * exp(-dx^2/(2(1+Vx)) - dp^2/(2(1+Vp)));
    the determinant/quadratic-form expression below is the same quantity and is
    invariant under the principal-axis rotation, so no explicit rotation is
    needed.
    """
    if out.n_modes != 1 or out.cov.ndim != 2:
        raise ValueError("fidelity is defined for one single-mode output state")
    v = out.cov
    if np.min(np.linalg.eigvalsh(v)) <= 0.0:
        raise ValueError("covariance matrix is not positive definite")
    target = np.asarray(target_mean, dtype=float)
    if target.shape != (2,):
        raise ValueError("target_mean must be a 2-vector (x, p)")
    m = v + np.eye(2)
    delta = out.mean - target
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    quad = delta @ np.linalg.solve(m, delta)
    return float(2.0 / np.sqrt(det) * np.exp(-0.5 * quad))
