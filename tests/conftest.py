import math

import numpy as np
import pytest

from lle import diffusion as dif
from lle.numerics import RngStream


@pytest.fixture(scope="session")
def schedule():
    return dif.linear_beta_schedule()


def random_spd(stream: RngStream, d: int, scale: float = 0.3) -> np.ndarray:
    W = stream.standard_normal((d, d))
    return scale * (W @ W.T) / d + 0.1 * np.eye(d)


def scalar_ddim_coeffs(schedule, t_from, t_to, eta):
    """The DDIM (c1, c2) in Python scalar arithmetic, step by step."""
    ab_f, ab_t = schedule.alphabar(t_from), schedule.alphabar(t_to)
    c1 = eta * math.sqrt(max(0.0, 1.0 - ab_f / ab_t)) * math.sqrt((1.0 - ab_t) / (1.0 - ab_f))
    return c1, math.sqrt(max(0.0, 1.0 - ab_t - c1 * c1))


def tweedie(prior, schedule, x, t: int) -> np.ndarray:
    """Reference posterior mean E[x0 | x_t] = (x_t - sqrt(1-ab)*eps) / sqrt(ab)."""
    x = np.asarray(x, dtype=float)
    if t == 0:
        return x.copy()
    ab = schedule.alphabar(t)
    return (x - schedule.sigma(t) * dif.gmm_eps(prior, schedule, x, t)) / math.sqrt(ab)


def random_mixture(seed: int, d: int, K: int) -> dif.GaussianMixturePrior:
    stream = RngStream(seed, stream_id=5)
    means = 2.0 * stream.standard_normal((K, d))
    covs = np.stack([random_spd(stream, d) for _ in range(K)])
    w = stream.uniform(K) + 0.5
    return dif.GaussianMixturePrior(w / w.sum(), means, covs)


@pytest.fixture
def small_prior():
    return random_mixture(3, 6, 2)
