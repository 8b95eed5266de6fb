import copy
import json
import math
import os
import tempfile

import numpy as np
import pytest

from lle import canonical as canon
from lle import diffusion as dif
from lle import harness
from lle import operators as ops
from lle.extrapolation import LLECoefficients
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


def run_tables(prior, schedule, ts, obs=None, params=None) -> canon.RunTables:
    """The `RunTables` of a run of (prior, schedule, obs, params) down the timesteps ts;
    obs None is the identity mask with y = 0 and params None DPS's preset, for a test
    of a stage that reads neither."""
    if obs is None:
        obs = ops.Observation(y=np.zeros(prior.d), op=ops.mask_operator(prior.d, range(prior.d)),
                              sigma_y=0.0)
    return canon.RunTables(prior, schedule, ts, obs,
                           canon.default_params("DPS") if params is None else params)


def step_context(x_t, t_i, t_prev, prior, schedule, stream, obs, params, history=(),
                 x0_sampled=None, run=None) -> canon.StepContext:
    """The `StepContext` of step (t_i, t_prev) of run, or, with run None, of a one-step
    run of (prior, schedule, obs, params) built for it (see `run_tables`); history is
    copied."""
    if run is None:
        run = run_tables(prior, schedule, (t_i, t_prev), obs, params)
    step = run.t_i.index(t_i)
    assert run.t_prev[step] == t_prev
    return canon.StepContext(run, step, x_t, stream, list(history), x0_sampled=x0_sampled)


def identity_coeffs(grid: dif.TimeGrid) -> LLECoefficients:
    """Coupled identity coefficients on grid: each step's vector one-hot on xhat,
    with which inference must reproduce the base solver bit for bit."""
    return LLECoefficients.from_theta(grid.timesteps[: grid.S],
                                      [np.eye(idx + 1)[idx] for idx in range(grid.S)], False)


def field_values(block) -> dict:
    """Every field of a config block under its JSON key, None values too, a nested block
    as a dict of its own fields."""
    return {key: field_values(getattr(block, r.attr)) if r.nested else getattr(block, r.attr)
            for key, r in block.rules.items()}


def preset_lists(algorithm: str, path: str) -> bool:
    """Whether the algorithm's `SOLVERS` preset lists the `algorithm` key at a
    dotted path such as daps.eta0: the key itself, or its block as {}."""
    preset = canon.SOLVERS[algorithm].preset
    for key in path.split("."):
        if key not in preset:
            return False
        preset = preset[key]
        if preset == {}:
            return True
    return True


# ---- the read probe: a key a config may set is read, one it may not is rejected ----


def loaded(cfg: dict) -> harness.ExperimentConfig:
    """`harness.load_config` of a config dict, written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        return harness.load_config(path)


def with_value(cfg: dict, path: str, value) -> dict:
    """A copy of cfg with the dotted path set to value, blocks made on the way."""
    cfg = copy.deepcopy(cfg)
    *parents, key = path.split(".")
    block = cfg
    for p in parents:
        block = block.setdefault(p, {})
    block[key] = value
    return cfg


def says_unread(exc: Exception, path: str) -> bool:
    """Whether a load error says that the key at path, or its block, is not read."""
    named, sep, _ = str(exc).partition(" is not read")
    return bool(sep) and (path == named or path.startswith(named + "."))
