"""VP diffusion schedule, analytic Gaussian-mixture score model, and DDIM stepping.

The mixture replaces a neural noise predictor: its score, Jacobian-vector
products, and posterior mean are exact, so the solvers built on top can be
checked against closed forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream


class BoundsError(IndexError):
    pass


class InvalidGridError(ValueError):
    pass


@dataclass(frozen=True)
class DiffusionSchedule:
    """Cumulative signal-retention table alphabar[t], t = 0..T, alphabar[0] = 1."""

    T: int
    alphabar_table: np.ndarray

    def alphabar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise BoundsError(f"timestep {t} outside [0, {self.T}]")
        return float(self.alphabar_table[t])

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


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing timesteps t_S > ... > t_1 > t_0 = 0."""

    S: int
    timesteps: tuple[int, ...]


def make_time_grid(schedule: DiffusionSchedule, S: int) -> TimeGrid:
    """Evenly spaced grid t_i = round(i*T/S), i = S..0."""
    if not 1 <= S <= schedule.T:
        raise InvalidGridError(f"S={S} outside [1, {schedule.T}]")
    ts = [round(i * schedule.T / S) for i in range(S, -1, -1)]
    if len(set(ts)) != len(ts):
        raise InvalidGridError(f"rounded grid for S={S} collides: {ts}")
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
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.weights <= 0):
            raise ValueError("mixture weights must be positive")
        # raises LinAlgError if not positive definite
        self._chol = np.linalg.cholesky(self.covariances)
        self._lam, self._eigvecs = np.linalg.eigh(self.covariances)
        # rows (k, j) hold eigenvector j of component k: maps (B, K*d) back to (B, d)
        self._eigvecs_rows = self._eigvecs.transpose(0, 2, 1).reshape(self.K * self.d, self.d)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "weights": self.weights.tolist(),
                "means": self.means.tolist(),
                "covariances": self.covariances.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GaussianMixturePrior":
        obj = json.loads(text)
        return cls(obj["weights"], obj["means"], obj["covariances"])

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "GaussianMixturePrior":
        with open(path) as f:
            return cls.from_json(f.read())

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

    def _resp_and_whitened(self, schedule, x: np.ndarray, t: int):
        """Responsibilities r (B,K), reciprocal eigenvalues w (K,d) of C_k, and
        y_k = Q_k^T C_k^-1 (x - m_k) (K,B,d), the solves in each component's
        eigenbasis (so C_k^-1 (x - m_k) = Q_k y_k)."""
        ab = schedule.alphabar(t)
        ev = ab * self._lam + (1.0 - ab)
        w = 1.0 / ev
        z = (x - math.sqrt(ab) * self.means[:, None, :]) @ self._eigvecs
        y = z * w[:, None, :]
        lognorm = np.log(self.weights) - 0.5 * (
            np.log(ev).sum(axis=1) + self.d * math.log(2.0 * math.pi)
        )
        logp = lognorm - 0.5 * np.einsum("kbd,kbd->bk", z, y)
        r = np.exp(logp - logp.max(axis=1, keepdims=True))
        r /= r.sum(axis=1, keepdims=True)
        return r, y, w

    def _from_eigenbasis(self, c: np.ndarray) -> np.ndarray:
        """sum_k Q_k c_k for eigenbasis coordinates c (K,B,d), as one (B,d) matmul."""
        return c.transpose(1, 0, 2).reshape(c.shape[1], -1) @ self._eigvecs_rows


def _as_batch(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def gmm_score(prior, schedule, x, t: int) -> np.ndarray:
    """Exact gradient of log q_t at x (batched over leading axis)."""
    xb, squeeze = _as_batch(x)
    r, y, _ = prior._resp_and_whitened(schedule, xb, t)
    score = -prior._from_eigenbasis(r.T[:, :, None] * y)
    return score[0] if squeeze else score


def gmm_eps(prior, schedule, x, t: int) -> np.ndarray:
    """Noise-prediction surrogate: eps = -sqrt(1-ab_t) * grad log q_t."""
    sig = schedule.sigma(t)
    return -sig * gmm_score(prior, schedule, x, t)


def gmm_eps_jvp(prior, schedule, x, t: int, v) -> np.ndarray:
    """Directional derivative (d eps/dx) v via the analytic mixture Hessian.

    The Hessian of log q_t is symmetric, so this doubles as the VJP.
    """
    xb, squeeze = _as_batch(x)
    vb, _ = _as_batch(np.asarray(v, dtype=float))
    if vb.shape[0] == 1 and xb.shape[0] > 1:
        vb = np.broadcast_to(vb, xb.shape)
    r, y, w = prior._resp_and_whitened(schedule, xb, t)
    # H = sum_k r_k (u_k u_k^T - C_k^-1) - s s^T with u_k = Q_k y_k, s = -sum_k r_k u_k;
    # with p_k = Q_k^T v: Hv = sum_k r_k Q_k (y_k (y_k.p_k + s.v) - w_k p_k)
    p = vb @ prior._eigvecs
    yp = np.einsum("kbd,kbd->kb", y, p)
    sv = -np.einsum("bk,kb->b", r, yp)
    coords = y * (yp + sv)[:, :, None] - w[:, None, :] * p
    hv = prior._from_eigenbasis(r.T[:, :, None] * coords)
    out = -schedule.sigma(t) * hv
    return out[0] if squeeze else out


def tweedie(prior, schedule, x, t: int) -> np.ndarray:
    """Posterior mean E[x0 | x_t] = (x_t - sqrt(1-ab)*eps) / sqrt(ab)."""
    x = np.asarray(x, dtype=float)
    if t == 0:
        return x.copy()
    ab = schedule.alphabar(t)
    return (x - schedule.sigma(t) * gmm_eps(prior, schedule, x, t)) / math.sqrt(ab)


def ddim_coeffs(schedule, t_from: int, t_to: int, eta: float) -> tuple[float, float]:
    """DDIM noiser coefficients (c1, c2); c1^2 + c2^2 = 1 - alphabar_to."""
    ab_f = schedule.alphabar(t_from)
    ab_t = schedule.alphabar(t_to)
    c1 = eta * math.sqrt(max(0.0, 1.0 - ab_f / ab_t)) * math.sqrt(
        (1.0 - ab_t) / (1.0 - ab_f)
    )
    rad = 1.0 - ab_t - c1 * c1
    if rad < -1e-12:
        raise FloatingPointError(f"negative c2 radicand {rad} at ({t_from},{t_to})")
    c2 = math.sqrt(max(0.0, rad))
    return c1, c2


def ddim_step(
    prior,
    schedule,
    x,
    t_from: int,
    t_to: int,
    eta: float = 0.0,
    noise=None,
    stream: RngStream | None = None,
) -> np.ndarray:
    """One DDIM step from t_from down to t_to; t_from == t_to is identity."""
    x = np.asarray(x, dtype=float)
    if t_from == t_to:
        return x.copy()
    if t_from < t_to:
        raise InvalidGridError(f"t_from={t_from} must exceed t_to={t_to}")
    # one eps serves both the Tweedie estimate x0 and the c2 term
    eps = gmm_eps(prior, schedule, x, t_from)
    x0 = (x - schedule.sigma(t_from) * eps) / math.sqrt(schedule.alphabar(t_from))
    ab_t = schedule.alphabar(t_to)
    c1, c2 = ddim_coeffs(schedule, t_from, t_to, eta)
    out = math.sqrt(ab_t) * x0
    if c2 != 0.0:
        out = out + c2 * eps
    if c1 != 0.0:
        if noise is None:
            noise = stream.standard_normal(x.shape)
        out = out + c1 * noise
    return out


def ddim_run(
    prior,
    schedule,
    x,
    t_start: int,
    k_steps: int,
    eta: float = 0.0,
    stream: RngStream | None = None,
) -> np.ndarray:
    """k_steps DDIM steps along an even sub-grid from t_start to 0."""
    if k_steps < 1:
        raise InvalidGridError("k_steps must be >= 1")
    x = np.asarray(x, dtype=float)
    if t_start == 0:
        return x.copy()
    ts = [round(i * t_start / k_steps) for i in range(k_steps, -1, -1)]
    out = x
    for t_from, t_to in zip(ts[:-1], ts[1:]):
        out = ddim_step(prior, schedule, out, t_from, t_to, eta=eta, stream=stream)
    return out
