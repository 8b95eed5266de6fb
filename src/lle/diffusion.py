"""VP diffusion schedule, analytic Gaussian-mixture score model, and
deterministic DDIM stepping (the solvers' stochastic DDIM noiser is
`canonical.noiser_ddim`).

The mixture replaces a neural noise predictor: its score, Jacobian-vector
products, and posterior mean are exact, so the solvers built on top can be
checked against closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import RngStream


@dataclass(frozen=True, repr=False, eq=False)
class DiffusionSchedule:
    """Cumulative signal-retention table alphabar[t], t = 0..T, alphabar[0] = 1."""

    T: int
    alphabar_table: np.ndarray

    def alphabar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise IndexError(f"timestep {t} outside [0, {self.T}]")
        return float(self.alphabar_table[t])

    def alphabars(self, ts) -> np.ndarray:
        """alphabar at each timestep of a list or tuple, checked like `alphabar`."""
        for t in (min(ts), max(ts)):
            if not 0 <= t <= self.T:
                raise IndexError(f"timestep {t} outside [0, {self.T}]")
        return self.alphabar_table[list(ts)]

    def sigma(self, t: int) -> float:
        """sqrt(1 - alphabar_t), the noise level at t."""
        return math.sqrt(1.0 - self.alphabar(t))


def linear_beta_schedule(
    T: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02
) -> DiffusionSchedule:
    """Standard DDPM linear-beta schedule; alphabar_T ~ 4e-5 for the defaults."""
    betas = np.linspace(beta_start, beta_end, T)
    table = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return DiffusionSchedule(T=T, alphabar_table=table)


@dataclass(frozen=True, repr=False, eq=False)
class TimeGrid:
    """Strictly decreasing timesteps t_S > ... > t_1 > t_0 = 0."""

    S: int
    timesteps: tuple[int, ...]


def make_time_grid(schedule: DiffusionSchedule, S: int) -> TimeGrid:
    """Evenly spaced grid t_i = round(i*T/S), i = S..0."""
    if not 1 <= S <= schedule.T:
        raise ConfigError(f"S={S} outside [1, {schedule.T}]")
    ts = [round(i * schedule.T / S) for i in range(S, -1, -1)]
    if len(set(ts)) != len(ts):
        raise ConfigError(f"rounded grid for S={S} collides: {ts}")
    return TimeGrid(S=S, timesteps=tuple(ts))


class GaussianMixturePrior:
    """Gaussian mixture q(x0) with exact noised-mixture score.

    At noise level t the marginal is
    q_t = sum_k w_k N(sqrt(ab)*mu_k, C_k), C_k = ab*Sigma_k + (1-ab)*I.
    Each Sigma_k = Q_k diag(lam_k) Q_k^T is diagonalized once, here; C_k has
    the same eigenvectors and eigenvalues ab*lam_k + 1 - ab, so at any t its
    inverse and log-determinant are a diagonal scaling in the eigenbasis.
    """

    def __init__(self, weights, means, covariances):
        self.weights = np.asarray(weights, dtype=float)
        self.means = np.asarray(means, dtype=float)
        self.covariances = np.asarray(covariances, dtype=float)
        self.K, self.d = self.means.shape
        if self.weights.shape != (self.K,) or self.covariances.shape != (self.K, self.d, self.d):
            raise ValueError(f"mixture shapes differ: weights {self.weights.shape}, means "
                             f"{self.means.shape}, covariances {self.covariances.shape}")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        # cholesky and eigh read the lower triangle only, the posterior oracle the whole matrix
        asym = np.max(np.abs(self.covariances - self.covariances.transpose(0, 2, 1)), axis=(1, 2))
        for k in np.flatnonzero(asym > 1e-12 * np.max(np.abs(self.covariances), axis=(1, 2))):
            raise ValueError(f"covariance {k} is not symmetric: max|S - S^T| = {asym[k]:.3g}")
        # raises LinAlgError if not positive definite
        self._chol = np.linalg.cholesky(self.covariances)
        self._lam, eigvecs = np.linalg.eigh(self.covariances)
        # column block k is Q_k, so x @ _basis is every Q_k^T x at once, (..., B, K*d)
        self._basis = np.ascontiguousarray(eigvecs.transpose(1, 0, 2).reshape(self.d, -1))
        self._basis_t = np.ascontiguousarray(self._basis.T)
        self._mean_coords = (self.means[:, None, :] @ eigvecs).reshape(-1)  # [Q_k^T m_k]
        # (K*d, K): sums each component's block of d coordinates
        self._block_sum = np.repeat(np.eye(self.K), self.d, axis=0)
        self._neg_half_block_sum = -0.5 * self._block_sum

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """The inline prior block, as a config's `prior.file` holds it."""
        return json.dumps(
            {
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
            }
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    # -- exact sampling ---------------------------------------------------

    def sample(self, stream: RngStream, n: int) -> np.ndarray:
        """n exact draws from the mixture, shape (n, d)."""
        u = stream.uniform(n)
        comp = np.searchsorted(np.cumsum(self.weights), u)
        comp = np.clip(comp, 0, self.K - 1)
        eps = stream.standard_normal((n, self.d))
        out = np.empty((n, self.d))
        for k in range(self.K):
            idx = comp == k
            if not np.any(idx):
                continue
            out[idx] = self.means[k] + eps[idx] @ self._chol[k].T
        return out

    # -- noised-mixture internals ----------------------------------------

    def _constants(self, ab: np.ndarray) -> tuple:
        """Per-timestep constants of the noised mixture at alphabar values ab (n,),
        as columns: sqrt(ab) and sigma = sqrt(1 - ab) (n,), the reciprocal
        eigenvalues w = 1/ev of each C_k (n, K*d), the per-component
        log-normalizer (n, K), and the projected means sqrt(ab) Q_k^T m_k
        (n, K*d).

        Every operation is elementwise or reduces a row's own last axis, so
        row i holds the bits a one-row table at ab[i] holds.
        """
        sqrt_ab = np.sqrt(ab)
        ab2 = ab[:, None]
        ev = ab2 * self._lam.reshape(-1) + (1.0 - ab2)
        lognorm = np.log(self.weights) - 0.5 * (
            np.log(ev).reshape(-1, self.K, self.d).sum(axis=-1) + self.d * math.log(2.0 * math.pi)
        )
        return sqrt_ab, np.sqrt(1.0 - ab), 1.0 / ev, lognorm, sqrt_ab[:, None] * self._mean_coords

    def _resp_and_whitened(self, row, x: np.ndarray):
        """Responsibilities r (..., B, K), reciprocal eigenvalues w (K*d,) of the
        C_k, and y = [Q_k^T C_k^-1 (x - m_k)] (..., B, K*d) for a batch x
        (..., B, d), the solves in each component's eigenbasis (so
        C_k^-1 (x - m_k) = Q_k y_k). row: a row of `step_rows`.

        Every product runs over the last two axes, so every (B, d) block of an
        (..., B, d) stack is multiplied and reduced as the same block alone:
        an (N, 1, d) stack gives each row the bits of its one-row call.
        """
        _, _, w, lognorm, mean_coords, _, _, _, _ = row
        z = x @ self._basis
        z -= mean_coords
        y = z * w
        z *= y
        logp = z @ self._neg_half_block_sum
        logp += lognorm
        logp -= logp.max(axis=-1, keepdims=True)
        r = np.exp(logp, out=logp)
        r /= r.sum(axis=-1, keepdims=True)
        return r, y, w

    def _blocks(self, c: np.ndarray) -> np.ndarray:
        """The (..., B, K, d) view of eigenbasis coordinates c (..., B, K*d)."""
        return c.reshape(c.shape[:-1] + (self.K, self.d))

    def _from_eigenbasis(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """sum_k r_k Q_k c_k for responsibilities r (..., B, K) and eigenbasis
        coordinates c (..., B, K*d), as one (..., B, K*d) @ (K*d, d) matmul."""
        return (self._blocks(c) * r[..., None]).reshape(c.shape) @ self._basis_t


def _rows(columns):
    """The rows of a table of columns, scalar columns as Python floats."""
    # a list, not a generator expression, inside zip(*...): with a generator,
    # 60 in-process `lle sweep` calls (d = 8) left ~0.35 MB more memory resident
    return zip(*[c.tolist() if c.ndim == 1 else c for c in columns])


def step_rows(prior, schedule, t_from, t_to) -> list:
    """The x-independent constants of the steps t_from[i] -> t_to[i] (two lists),
    one row per step, as the solver driver and every DDIM chain read them: the
    mixture's `_constants` at t_from (sqrt(ab), sigma, w, lognorm, mean_coords),
    then ab at t_from, ab_to at t_to, sqrt(ab_to) and sigma_to = sqrt(1 - ab_to),
    scalar columns as Python floats. Every operation is elementwise, so row i
    holds the bits a one-step call at (t_from[i], t_to[i]) gives."""
    ab, ab_to = schedule.alphabars(t_from), schedule.alphabars(t_to)
    return list(_rows(prior._constants(ab) + (ab, ab_to, np.sqrt(ab_to), np.sqrt(1.0 - ab_to))))


def _as_batch(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def whiten(prior, schedule, x, t: int):
    """The mixture's (responsibilities, whitened residuals, reciprocal
    eigenvalues) at (x, t), from the one `step_rows` row at t; pass it as
    `whitened=` to evaluate `gmm_eps` and `gmm_eps_jvp` at the same (x, t)
    without repeating the solves. Both call it when not given `whitened=`; the
    solver driver whitens from its run's rows (`canonical.RunTables`) instead."""
    return prior._resp_and_whitened(step_rows(prior, schedule, [t], [t])[0], _as_batch(x)[0])


def gmm_eps(prior, schedule, x, t: int, whitened=None) -> np.ndarray:
    """Noise-prediction surrogate: eps = -sqrt(1-ab_t) * grad log q_t, batched.

    whitened: `whiten(prior, schedule, x, t)`, when the caller already has it.
    """
    xb, squeeze = _as_batch(x)
    if whitened is None:
        whitened = whiten(prior, schedule, xb, t)
    r, y, _ = whitened
    eps = schedule.sigma(t) * prior._from_eigenbasis(r, y)
    return eps[0] if squeeze else eps


def gmm_eps_jvp(prior, schedule, x, t: int, v, whitened=None) -> np.ndarray:
    """Directional derivative (d eps/dx) v via the analytic mixture Hessian.

    The Hessian of log q_t is symmetric, so this doubles as the VJP.
    whitened: `whiten(prior, schedule, x, t)`, when the caller already has it.
    """
    xb, squeeze = _as_batch(x)
    vb, _ = _as_batch(np.asarray(v, dtype=float))
    if vb.shape != xb.shape:
        vb = np.broadcast_to(vb, xb.shape)
    if whitened is None:
        whitened = whiten(prior, schedule, xb, t)
    r, y, w = whitened
    # H = sum_k r_k (u_k u_k^T - C_k^-1) - s s^T with u_k = Q_k y_k, s = -sum_k r_k u_k;
    # with p_k = Q_k^T v: Hv = sum_k r_k Q_k (y_k (y_k.p_k + s.v) - w_k p_k)
    p = vb @ prior._basis
    yp = (y * p) @ prior._block_sum
    yp -= (r * yp).sum(axis=-1, keepdims=True)
    coords = (prior._blocks(y) * yp[..., None]).reshape(y.shape)
    p *= w
    coords -= p
    hv = prior._from_eigenbasis(r, coords)
    out = -schedule.sigma(t) * hv
    return out[0] if squeeze else out


def _ddim_step(prior, row, x: np.ndarray) -> np.ndarray:
    """One deterministic DDIM step of a batch x (..., B, d) with its row of
    `step_rows`."""
    sqrt_ab, sigma, _, _, _, _, _, sqrt_ab_to, sigma_to = row
    r, y, _ = prior._resp_and_whitened(row, x)
    # one eps serves both the Tweedie estimate x0 and the sigma_to term; the
    # step owns y, so it scales y and builds
    # sqrt_ab_to * ((x - sigma*eps) / sqrt_ab) + sigma_to*eps in place, in
    # that order: the bits of `gmm_eps` and the update
    scaled = prior._blocks(y)
    scaled *= r[..., None]
    eps = y @ prior._basis_t
    eps *= sigma
    out = sigma * eps
    np.subtract(x, out, out=out)
    out /= sqrt_ab
    out *= sqrt_ab_to
    if sigma_to != 0.0:
        eps *= sigma_to
        out += eps
    return out


# steps whose constants `_ddim_steps` builds at once: a long sub-grid holds
# (16, K*d) blocks, never a (steps, K*d) table, which would raise peak memory
_TABLE_BLOCK = 16


def _ddim_steps(prior, schedule, x: np.ndarray, t_from, t_to) -> np.ndarray:
    """The DDIM steps t_from[i] -> t_to[i] < t_from[i] (two lists) in turn
    from x; each block of _TABLE_BLOCK steps reads its constants from one
    `step_rows` call. This serves the references (`ddim_run`), DAPS's
    sampler and `ddim_step`."""
    out, squeeze = _as_batch(x)
    for i in range(0, len(t_from), _TABLE_BLOCK):
        block = slice(i, i + _TABLE_BLOCK)
        for row in step_rows(prior, schedule, t_from[block], t_to[block]):
            out = _ddim_step(prior, row, out)
    return out[0] if squeeze else out


def ddim_step(prior, schedule, x, t_from: int, t_to: int) -> np.ndarray:
    """One deterministic DDIM step from t_from down to t_to; t_from == t_to
    is identity."""
    x = np.asarray(x, dtype=float)
    if t_from == t_to:
        return x.copy()
    if t_from < t_to:
        raise ConfigError(f"t_from={t_from} must exceed t_to={t_to}")
    return _ddim_steps(prior, schedule, x, [t_from], [t_to])


def ddim_run(prior, schedule, x, t_start: int, k_steps: int) -> np.ndarray:
    """k_steps deterministic DDIM steps along an even sub-grid from t_start to 0.

    Equal to the chain of `ddim_step` calls bit for bit, with the constants
    of the whole sub-grid built in blocks; the identity steps where rounded
    grid points collide are skipped.
    """
    if k_steps < 1:
        raise ConfigError("k_steps must be >= 1")
    x = np.asarray(x, dtype=float)
    if t_start == 0:
        return x.copy()
    if t_start < 0:
        raise ConfigError(f"t_start={t_start} must not be negative")
    ts = [round(i * t_start / k_steps) for i in range(k_steps, -1, -1)]
    t_from = [a for a, b in zip(ts, ts[1:]) if a != b]
    t_to = [b for a, b in zip(ts, ts[1:]) if a != b]
    return _ddim_steps(prior, schedule, x, t_from, t_to)
