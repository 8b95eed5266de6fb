"""Learnable linear extrapolation over the corrected estimates of earlier steps.

Training and inference are both combiners on the shared driver
`canonical.run_with_combiner`, called as combiner(ctx, xhat) with the step's
`StepContext`, as the noiser is: ctx.history holds the earlier steps' combined
estimates, and its length is the step's index; ctx.obs and ctx.params are the
run's, and `make_ground_truth` reads its (t_i, t_prev), obs and params there.
Training walks the time grid once over the reference batch: at each step it
freezes the corrected batch, optimizes a per-timestep coefficient vector so
the linear combination of all previous estimates best matches the ground
truth at ctx.t_i, and hands the combined estimate back to the driver's
noiser. Inference replays the same data flow with the coefficients fixed.

Each step's coefficient vector theta weights one stacked basis
(`stack_bases`): the J estimates, or, decoupled, their J range and J null
projections, so the decoupled fit is the coupled fit over 2J projected
bases and theta holds gamma, then gamma_perp. The fitting loss is squared
error plus omega times a gradient-domain term. It is linear least squares in
theta, so each step reduces it once to J-space (`LeastSquares`): the
initialization, the optimizer's epochs and the minimum-norm closed form all
work there.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import canonical as canon
from . import diffusion as dif
from . import operators as ops
from .errors import ConfigError, ConvergenceError
from .config import ConfigBlock, parse_json, read_json, rule
from .numerics import RngStream, RowStreams
from .optim import Adam, ScheduleFreeAdamW


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def _is_identity(gamma) -> bool:
    return gamma[-1] == 1.0 and (gamma.size == 1 or not np.any(gamma[:-1]))


def combine(
    theta: np.ndarray,
    history: list[np.ndarray],
    xhat: np.ndarray,
    op: ops.LinearOperator | None = None,
    decoupled: bool = False,
) -> np.ndarray:
    """theta's combination of the `stack_bases` of history (oldest first) and xhat.

    Coupled, theta has one entry per estimate; decoupled, gamma weights the
    range projections and gamma_perp the null projections. Identity
    coefficients (the last one-hot, in both parts) return a copy of xhat.
    """
    theta = np.asarray(theta, dtype=float)
    J = len(history) + 1
    if theta.size != (2 * J if decoupled else J):
        raise ValueError(
            f"coefficient vector has {theta.size} entries for {len(history)} history terms"
        )
    if decoupled and op is None:
        raise ValueError("decoupled combination requires the linear operator")
    if _is_identity(theta[:J]) and (not decoupled or _is_identity(theta[J:])):
        return np.array(xhat, copy=True)
    return _combined(stack_bases(list(history) + [xhat], op, decoupled), theta)


class LLECoefficients(ConfigBlock):
    """Per-timestep coefficient vectors, one block as the coefficients file
    holds them: one vector per step, t_S first, each entry j oldest first and
    xhat last; gamma coupled, gamma_par (range part) and gamma_perp (null
    part) decoupled. theta[idx] joins them into J = idx + 1 entries, or 2J
    when decoupled (gamma_par, then gamma_perp)."""

    S: int = rule(key="steps")
    decoupled: bool = rule()
    timesteps: list[int] = rule()  # t_S .. t_1
    gamma: list[list[float]] | None = rule(None, optional=True)
    gamma_par: list[list[float]] | None = rule(None, optional=True)
    gamma_perp: list[list[float]] | None = rule(None, optional=True)
    unread_when = {("decoupled", True): ("gamma",),
                   ("decoupled", False): ("gamma_par", "gamma_perp")}

    def __init__(self, **values):
        super().__init__(**values)
        for key in self._parts():
            if getattr(self, key) is None:
                raise ConfigError(f"missing config key {key}")
        for key in ("timesteps",) + self._parts():
            if len(getattr(self, key)) != self.S:
                raise ConfigError(f"{key} must have {self.S} entries, one per step,"
                                  f" got {len(getattr(self, key))}")
        for key in self._parts():
            for idx, v in enumerate(getattr(self, key)):
                if len(v) != idx + 1:
                    raise ConfigError(f"{key}[{idx}] must have {idx + 1} entries, got {len(v)}")

    def _parts(self) -> tuple:
        return ("gamma_par", "gamma_perp") if self.decoupled else ("gamma",)

    @property
    def theta(self) -> list:
        """One vector per step, its parts joined: gamma, or gamma_par then gamma_perp."""
        return [np.array(sum(v, []), dtype=float)
                for v in zip(*(getattr(self, key) for key in self._parts()))]

    @classmethod
    def from_theta(cls, timesteps, theta, decoupled: bool) -> "LLECoefficients":
        """The coefficients whose theta is the given vectors, one per timestep."""
        vectors = [np.asarray(t, dtype=float).tolist() for t in theta]
        if decoupled:
            parts = {"gamma_par": [v[: idx + 1] for idx, v in enumerate(vectors)],
                     "gamma_perp": [v[idx + 1 :] for idx, v in enumerate(vectors)]}
        else:
            parts = {"gamma": vectors}
        return cls(S=len(vectors), decoupled=decoupled, timesteps=list(timesteps), **parts)

    @classmethod
    def identity(cls, grid: dif.TimeGrid) -> "LLECoefficients":
        return cls.from_theta(grid.timesteps[: grid.S],
                              [np.eye(idx + 1)[idx] for idx in range(grid.S)], False)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LLECoefficients":
        """Parse a coefficients file; a bad, missing or unknown key is a
        ConfigError naming it."""
        return cls.from_dict(parse_json(text, "the coefficients file"))

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "LLECoefficients":
        """Read a coefficients file; every error names the file, a bad key's as
        `<path>: <error>`."""
        obj = read_json(path)
        try:
            return cls.from_dict(obj)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# objective pieces over theta
# ---------------------------------------------------------------------------


def stack_bases(bases, op=None, decoupled=False) -> np.ndarray:
    """The fit's basis at one timestep, built once: the (J, N, d) estimates,
    oldest first with xhat last; decoupled, the (2J, N, d) stack of their range
    projections followed by their null projections, zero when op has full rank.

    (N, 1, d) row batches stack to (J, N, 1, d); each row's J estimates are
    projected as one (J, d) product, as a one-row run's (J, d) stack is.
    """
    stacked = np.asarray(bases, dtype=float)
    if not decoupled:
        return stacked
    if stacked.ndim == 4:  # (J, N, 1, d) -> (1, N, J, d) and back
        rng = np.swapaxes(ops.project(op, np.swapaxes(stacked, 0, 2), "range"), 0, 2)
    else:
        rng = ops.project(op, stacked, "range")
    # at full rank x - x V V^T is rounding alone, which a fit would weight
    null = np.zeros_like(rng) if op.r == op.n else stacked - rng
    return np.concatenate([rng, null])


def _combined(stacked, theta):
    """theta's combination of the stacked bases: the last (xhat's) first, then the
    rest oldest first, zero coefficients skipped. Each step's combined estimate
    feeds the next step's fit, so another order would move every trained output."""
    out = theta[-1] * stacked[-1]
    for g, b in zip(theta[:-1], stacked[:-1]):
        if g != 0.0:
            out = out + g * b
    return out


class LeastSquares:
    """One timestep's fit in J-space: the loss over theta is (||R theta - q||^2 + c) / n,
    the mean over the batch's n rows of ||x - x_gt||^2 + omega * ||D x - D x_gt||^2 for
    theta's combination x, D the first difference along a row (a gradient-domain
    term, invariant to constant shifts: the stand-in for a perceptual term).

    R, q = Q^T x and c, the squared residual outside F's range, come from one
    QR of [F, x]: F = [B; sqrt(omega) D B], x = [x_gt; sqrt(omega) D x_gt] and B the
    flattened stack.
    """

    def __init__(self, stacked, x_gt, omega: float = 0.0):
        cols = np.concatenate([np.asarray(stacked, dtype=float), [x_gt]])
        J = len(cols) - 1
        rows = cols.reshape(J + 1, -1)
        if omega != 0.0:
            rows = np.hstack([rows, math.sqrt(omega) * np.diff(cols, axis=-1).reshape(J + 1, -1)])
        r = np.zeros((J + 1, J + 1))  # with fewer rows than J + 1 the rest are zero
        r[: rows.shape[1]] = np.linalg.qr(rows.T, mode="r")
        self.R, self.q, self.c, self.n = r[:J, :J], r[:J, J], float(r[J, J] ** 2), cols.shape[1]

    def loss(self, theta) -> float:
        res = self.R @ theta - self.q
        return float(res @ res + self.c) / self.n

    def losses(self, thetas) -> np.ndarray:
        """`loss` of each row of the (E, J) thetas, bit for bit: one stacked product
        makes each row's R theta as `loss` does, and one stacked dot its square."""
        res = np.asarray(thetas, dtype=float)[:, None, :] @ self.R.T - self.q
        return ((res @ res.transpose(0, 2, 1))[:, 0, 0] + self.c) / self.n

    def grad(self, theta) -> list:
        """The gradient at theta as Python floats, for the float optimizers."""
        n = self.n
        return [2.0 * g / n for g in (self.R.T @ (self.R @ theta - self.q)).tolist()]

    def solve(self) -> np.ndarray:
        """The minimum-norm minimizer, so coefficients the loss cannot tell apart split equally."""
        return np.linalg.lstsq(self.R, self.q, rcond=None)[0]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TrainConfig(ConfigBlock):
    block = "lle"
    n_refs: int = rule(50, minimum=1)
    ref_steps: int = rule(999, minimum=1)
    omega: float = rule(0.1, minimum=0.0)  # read with a plugin only
    plugin: str = rule("none", choices=("none", "gradient-domain"))
    epochs: int = rule(100, minimum=0)
    warmup: int = rule(50, minimum=0)
    # constant 0.04/S | dynamic 0.2*ab_{t_{i+1}}/S
    lr_rule: str = rule("constant", choices=("constant", "dynamic"))
    init_mode: str = rule("adaptive-linear", choices=("adaptive-linear", "soft-nonlinear"))
    noisy_gt: bool = rule(False)  # a noisy_gt solver only (canonical.SOLVERS), checked at load
    decoupled: bool = rule(False)  # linear operators only; `load_config` rejects "nonlinear"
    closed_form: bool = rule(False)  # minimum-norm solve instead of the optimizer
    optimizer: str = rule("schedule-free", choices=("schedule-free", "adam"))
    base_seed: int = rule(0)
    unread_when = {("plugin", "none"): ("omega",),
                   ("closed_form", True): ("epochs", "warmup", "lr_rule", "optimizer"),
                   ("optimizer", "adam"): ("warmup",),
                   ("epochs", 0): ("warmup", "lr_rule", "optimizer")}

    def resolved_omega(self) -> float:
        return 0.0 if self.plugin == "none" else self.omega


def make_ground_truth(ctx: canon.StepContext, x0: np.ndarray,
                      noisy_gt: bool = False) -> np.ndarray:
    """Training target at ctx.t_i: x0, or the algorithm's own corrector applied to
    x0 on a fresh context at ctx's (t_i, t_prev), obs, params and run tables."""
    algorithm = ctx.params.algorithm
    if not noisy_gt:
        return np.array(x0, copy=True)
    if not canon.SOLVERS[algorithm].noisy_gt:
        raise ConfigError(f"noisy ground truth is not defined for {algorithm}")
    # the DDRM/DDNM correctors draw nothing and read no history; a fresh context
    # shares neither the run's stream nor its eps and whitening, which are at x_t,
    # but reads its step's row of the run's x-independent tables
    fresh = canon.StepContext(x_t=x0, t_i=ctx.t_i, t_prev=ctx.t_prev, prior=ctx.prior,
                              schedule=ctx.schedule, stream=RngStream(0, 0), obs=ctx.obs,
                              params=ctx.params, x0_sampled=np.array(x0, copy=True),
                              run=ctx.run)
    return canon.CORRECTORS[algorithm](fresh)


def init_coeffs(
    ls: LeastSquares,
    mode: str,
    alphabar_ti: float,
    stream: RngStream,
    decoupled: bool = False,
) -> np.ndarray:
    """Adaptive initialization: one-hot on whichever of the two latest
    estimates has the smaller `ls.loss` (decoupled, the one-hot doubled, which
    weights the estimate's range and null parts alike); other entries ~ N(0, 1e-6).
    """
    reps = 2 if decoupled else 1  # gamma, then gamma_perp alike
    J = len(ls.q) // reps
    gamma = 1e-3 * stream.standard_normal(J) if J > 1 else np.zeros(1)
    if J == 1:
        gamma[0] = 1.0
    else:
        onehot = np.tile(np.eye(J), reps)
        if ls.loss(onehot[J - 2]) >= ls.loss(onehot[J - 1]):
            gamma[J - 1] = 1.0
        elif mode == "soft-nonlinear":
            gamma[J - 2] = alphabar_ti
            gamma[J - 1] = 1.0 - alphabar_ti
        else:  # adaptive-linear
            gamma[J - 2] = 1.0
    return np.tile(gamma, reps)


# epochs per `LeastSquares.losses` call: the fit holds one block's parameters at most
_EPOCH_BLOCK = 64


def train_timestep(ls: LeastSquares, init_theta, config: TrainConfig, lr_t: float, t_i: int):
    """Optimize the coefficient vector over one timestep's fit `ls`.

    Returns (best theta, per-epoch loss trace). The best-by-training-loss
    snapshot guarantees final loss <= initial loss. Each block of epochs is
    scored by one `ls.losses` call, then read in epoch order: the first
    non-finite loss raises, and a later epoch replaces the best only when lower.
    """
    theta = np.asarray(init_theta, dtype=float)
    best = theta.copy()
    best_loss = ls.loss(theta)
    trace = [best_loss]
    if not math.isfinite(best_loss):
        raise ConvergenceError(f"non-finite loss at timestep {t_i}")
    if config.closed_form:
        cand = ls.solve()
        cand_loss = ls.loss(cand)
        if cand_loss <= best_loss:
            best, best_loss = cand, cand_loss
        trace.append(best_loss)
        return best, trace
    opt = (Adam(theta, lr=lr_t) if config.optimizer == "adam"
           else ScheduleFreeAdamW(theta, lr=lr_t, warmup=config.warmup))
    for start in range(0, config.epochs, _EPOCH_BLOCK):
        block = [opt.step(ls.grad(opt.eval_point()))
                 for _ in range(min(_EPOCH_BLOCK, config.epochs - start))]
        for theta, cur in zip(block, ls.losses(block).tolist()):
            if not math.isfinite(cur):
                raise ConvergenceError(f"training diverged at timestep {t_i}")
            trace.append(cur)
            if cur < best_loss:
                best_loss, best = cur, theta
    return np.asarray(best, dtype=float), trace


def generate_references(prior, schedule, config: TrainConfig):
    """N reference samples via a ref_steps-step deterministic DDIM run, from
    child stream 11 of config.base_seed. The result does not depend on the
    step count, so one set serves a sweep.
    """
    x = RngStream(config.base_seed).child(11).standard_normal((config.n_refs, prior.d))
    return dif.ddim_run(prior, schedule, x, schedule.T, config.ref_steps)


def _learning_rate(config: TrainConfig, schedule, grid: dif.TimeGrid, idx: int) -> float:
    if config.lr_rule == "constant":
        return 0.04 / grid.S
    t_next = grid.timesteps[max(idx - 1, 0)]  # dynamic
    return 0.2 * schedule.alphabar(t_next) / grid.S


def train(
    params: canon.AlgoParams,
    prior,
    schedule,
    op,
    sigma_y: float,
    grid: dif.TimeGrid,
    config: TrainConfig,
    refs: np.ndarray | None = None,
):
    """Walk the grid once, optimizing coefficients per timestep.

    The references are observed through op (linear or nonlinear) with noise
    sigma_y from child stream 12 of config.base_seed, one row of y each.
    refs, when given, must be what `generate_references(prior, schedule,
    config)` returns; it is read, never written.
    Returns (LLECoefficients, loss traces keyed by timestep).
    """
    base = RngStream(config.base_seed)
    if refs is None:
        refs = generate_references(prior, schedule, config)
    y = ops.observe(op, refs, sigma_y, base.child(12))
    observation = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    op = op if observation.is_linear else None  # the projections' operator
    if config.decoupled and op is None:
        raise ConfigError("decoupled coefficients require a linear operator")
    init_stream = base.child(14)
    thetas: list[np.ndarray] = []
    traces: dict[int, list[float]] = {}

    def fit(ctx, xhat):
        x_gt = make_ground_truth(ctx, refs, config.noisy_gt)
        ls = LeastSquares(stack_bases(ctx.history + [xhat], op, config.decoupled), x_gt,
                          config.resolved_omega())
        theta0 = init_coeffs(ls, config.init_mode, ctx.ab, init_stream, config.decoupled)
        lr_t = _learning_rate(config, schedule, grid, len(ctx.history))
        theta, traces[ctx.t_i] = train_timestep(ls, theta0, config, lr_t, ctx.t_i)
        thetas.append(theta)
        return combine(theta, ctx.history, xhat, op, config.decoupled)

    canon.run_with_combiner(params, prior, schedule, observation, grid, base.child(13),
                            combiner=fit)
    return LLECoefficients.from_theta(grid.timesteps[: grid.S], thetas, config.decoupled), traces


def infer(
    params: canon.AlgoParams,
    prior,
    schedule,
    obs: ops.Observation,
    grid: dif.TimeGrid,
    coeffs: LLECoefficients | None,
    seed: int,
    stream: RngStream | RowStreams | None = None,
) -> np.ndarray:
    """Fixed-coefficient inference; identity coefficients reproduce the base run,
    which coeffs None runs with no combiner at all.

    With (N, 1, m) rows of obs.y and a `RowStreams` stream, row i equals a
    one-row inference on obs.y[i, 0] with row i's stream, bit for bit (see
    `canonical.run_with_combiner`).
    """
    if stream is None:
        stream = RngStream(seed, stream_id=0)
    if coeffs is None:
        return canon.run_with_combiner(params, prior, schedule, obs, grid, stream)
    if tuple(coeffs.timesteps) != grid.timesteps[: grid.S]:
        raise ConfigError(
            f"coefficients trained on timesteps {list(coeffs.timesteps)}, the config's"
            f" grid has {list(grid.timesteps[: grid.S])}"
        )
    op = obs.op if obs.is_linear else None
    if coeffs.decoupled and op is None:
        raise ConfigError("decoupled coefficients require a linear operator")

    theta = coeffs.theta

    def combiner(ctx, xhat):
        return combine(theta[len(ctx.history)], ctx.history, xhat, op, coeffs.decoupled)

    return canon.run_with_combiner(params, prior, schedule, obs, grid, stream, combiner=combiner)
