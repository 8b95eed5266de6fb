"""Learnable linear extrapolation over the corrected estimates of earlier steps.

Training and inference are both combiners on the shared driver
`canonical.run_with_combiner`. Training walks the time grid once over the
reference batch: at each step it freezes the corrected batch, optimizes a
per-timestep coefficient vector so the linear combination of all previous
estimates best matches the ground truth, and hands the combined estimate
back to the driver's noiser. Inference replays the same data flow with the
coefficients fixed.

Each step's fit runs over one stacked basis (`stack_bases`): the J
estimates, or, decoupled, their J range and J null projections, so the
decoupled fit is the coupled fit over 2J projected bases. The fitting loss
is evaluated batch-wise: one array reduction over the (N, d) batch gives
every per-sample loss, and the single-sample `loss` is the one-row case of
the same kernel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import canonical as canon
from . import diffusion as dif
from . import operators as ops
from .canonical import rule
from .numerics import RngStream, RowStreams
from .optim import Adam, ScheduleFreeAdamW


class TrainingDivergedError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# perceptual-loss plugin interface
# ---------------------------------------------------------------------------


class GradientDomainPlugin:
    """Squared difference of first-order finite differences.

    Invariant to constant shifts; the default stand-in for a perceptual term.
    """

    tag = "gradient-domain"

    def value_and_grad(self, x: np.ndarray, ref: np.ndarray):
        """Per-row value and gradient over the last axis of (..., d) arrays."""
        r = np.diff(x, axis=-1) - np.diff(ref, axis=-1)
        val = np.sum(r * r, axis=-1)
        grad = np.zeros_like(x)
        grad[..., :-1] -= 2.0 * r
        grad[..., 1:] += 2.0 * r
        return val, grad


def make_plugin(tag: str):
    if tag in (None, "none"):
        return None
    if tag == "gradient-domain":
        return GradientDomainPlugin()
    raise ValueError(f"unknown perceptual plugin {tag!r}")


def _row_losses(x: np.ndarray, x_gt: np.ndarray, omega: float, plugin) -> np.ndarray:
    """||x - x_gt||^2 + omega * plugin(x, x_gt) per row of (..., d) arrays."""
    if x.shape != x_gt.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_gt.shape}")
    r = x - x_gt
    val = np.sum(r * r, axis=-1)
    if omega != 0.0 and plugin is not None:
        val = val + omega * plugin.value_and_grad(x, x_gt)[0]
    return val


def loss(x: np.ndarray, x_gt: np.ndarray, omega: float = 0.0, plugin=None) -> float:
    """||x - x_gt||^2 + omega * plugin(x, x_gt) for a single sample."""
    x = np.asarray(x, dtype=float)
    x_gt = np.asarray(x_gt, dtype=float)
    return float(_row_losses(x, x_gt, omega, plugin))


def batch_loss(xs: np.ndarray, gts: np.ndarray, omega: float = 0.0, plugin=None) -> float:
    """Mean per-sample loss over a (N, d) batch."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    gts = np.atleast_2d(np.asarray(gts, dtype=float))
    return float(np.mean(_row_losses(xs, gts, omega, plugin)))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


def _is_identity(gamma) -> bool:
    gamma = np.asarray(gamma)
    return gamma[-1] == 1.0 and (gamma.size == 1 or not np.any(gamma[:-1]))


def combine(
    gamma: np.ndarray,
    history: list[np.ndarray],
    xhat: np.ndarray,
    op: ops.LinearOperator | None = None,
    gamma_perp: np.ndarray | None = None,
) -> np.ndarray:
    """gamma[-1] * xhat + sum_j gamma[j] * history[j] (oldest first).

    With gamma_perp present the combination is applied separately to range
    projections (gamma) and null projections (gamma_perp), then summed.
    Identity coefficients (the last one-hot, in both parts) return xhat.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != len(history) + 1:
        raise ValueError(
            f"coefficient vector has {gamma.size} entries for {len(history)} history terms"
        )
    if gamma_perp is not None and op is None:
        raise ValueError("decoupled combination requires the linear operator")
    if _is_identity(gamma) and (gamma_perp is None or _is_identity(gamma_perp)):
        return np.array(xhat, copy=True)
    if gamma_perp is not None:
        theta = np.concatenate([gamma, np.asarray(gamma_perp, dtype=float)])
        return _combined(stack_bases(list(history) + [xhat], op, True), theta)
    # xhat first: `train` feeds this sum to the next step; `_combined`'s order moves fits
    out = gamma[-1] * xhat
    for g, h in zip(gamma[:-1], history):
        if g != 0.0:
            out = out + g * h
    return out


@dataclass
class LLECoefficients:
    """Per-timestep linear-combination coefficients, coupled or decoupled."""

    S: int
    decoupled: bool
    timesteps: tuple[int, ...]  # t_S .. t_1
    gamma: list[np.ndarray]  # coupled, or range-space part when decoupled
    gamma_perp: list[np.ndarray] | None = None

    def __post_init__(self):
        if len(self.gamma) != self.S:
            raise ValueError("need one coefficient vector per trained timestep")
        for idx, g in enumerate(self.gamma):
            if np.asarray(g).size != idx + 1:
                raise ValueError(f"vector at position {idx} must have {idx + 1} entries")
            if not np.all(np.isfinite(g)):
                raise ValueError("coefficients must be finite")

    @classmethod
    def identity(cls, grid: dif.TimeGrid) -> "LLECoefficients":
        gammas = [np.eye(idx + 1)[idx] for idx in range(grid.S)]
        return cls(
            S=grid.S,
            decoupled=False,
            timesteps=grid.timesteps[: grid.S],
            gamma=gammas,
        )

    def extrapolate(self, i: int, history, xhat, op=None) -> np.ndarray:
        """Combined estimate at step i (i = S..1)."""
        idx = self.S - i
        gp = self.gamma_perp[idx] if self.decoupled else None
        return combine(self.gamma[idx], history, xhat, op=op, gamma_perp=gp)

    def to_json(self) -> str:
        obj = {
            "steps": self.S,
            "decoupled": self.decoupled,
            "timesteps": list(self.timesteps),
        }
        if self.decoupled:
            obj["gamma_par"] = [g.tolist() for g in self.gamma]
            obj["gamma_perp"] = [g.tolist() for g in self.gamma_perp]
        else:
            obj["gamma"] = [g.tolist() for g in self.gamma]
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "LLECoefficients":
        obj = json.loads(text)
        decoupled = obj["decoupled"]
        if decoupled:
            gamma = [np.asarray(g, dtype=float) for g in obj["gamma_par"]]
            gperp = [np.asarray(g, dtype=float) for g in obj["gamma_perp"]]
        else:
            gamma = [np.asarray(g, dtype=float) for g in obj["gamma"]]
            gperp = None
        return cls(
            S=obj["steps"],
            decoupled=decoupled,
            timesteps=tuple(obj["timesteps"]),
            gamma=gamma,
            gamma_perp=gperp,
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "LLECoefficients":
        with open(path) as f:
            return cls.from_json(f.read())


# ---------------------------------------------------------------------------
# objective pieces over gamma
# ---------------------------------------------------------------------------


def stack_bases(bases, op=None, decoupled=False) -> np.ndarray:
    """The fit's basis at one timestep, built once: the (J, N, d) estimates,
    oldest first with xhat last; decoupled, the (2J, N, d) stack of their range
    projections followed by their null projections.

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
    return np.concatenate([rng, stacked - rng])


def _combined(stacked, theta):
    out = theta[0] * stacked[0]
    for g, b in zip(theta[1:], stacked[1:]):
        out = out + g * b
    return out


def gamma_objective(stacked, x_gt, theta, omega, plugin):
    """Mean training loss at coefficient vector theta (one entry per basis)."""
    return batch_loss(_combined(stacked, theta), x_gt, omega, plugin)


def loss_grad_gamma(stacked, x_gt, theta, omega, plugin=None):
    """Exact gradient of the mean loss over theta; fixed-order summation."""
    stacked = np.asarray(stacked, dtype=float)
    xt = _combined(stacked, theta)
    sens = 2.0 * (xt - x_gt)
    if omega != 0.0 and plugin is not None:
        sens = sens + omega * plugin.value_and_grad(xt, x_gt)[1]
    # each row summed over its N*d entries, as np.sum(sens * basis) is
    return np.sum((stacked * sens).reshape(len(stacked), -1), axis=1) / x_gt.shape[0]


def solve_ls_closed_form(stacked, x_gt, reg=1e-10):
    """Normal-equations minimizer of the batch MSE; valid only when omega = 0.

    Gram and right-hand side are per-row sums over the flattened stack, so each
    entry is np.sum(b_j * b_k) bit for bit (a gemm would reorder the sums); one
    Gram row at a time keeps the temporary at one stack's size.
    """
    F = np.asarray(stacked, dtype=float).reshape(len(stacked), -1)
    G = np.array([np.sum(f * F, axis=-1) for f in F])
    rhs = np.sum(F * np.ravel(x_gt), axis=-1)
    return np.linalg.solve(G + reg * np.eye(len(F)), rhs)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig(canon.ConfigBlock):
    block = "lle"
    n_refs: int = rule(50, minimum=1)
    ref_steps: int = rule(999, minimum=1)
    omega: float | None = rule(None, minimum=0.0, optional=True)  # 0.1 with a plugin, else 0
    plugin: str = rule("none", choices=("none", "gradient-domain"))
    epochs: int = rule(100, minimum=0)
    warmup: int = rule(50, minimum=0)
    # constant 0.04/S | dynamic 0.2*ab_{t_{i+1}}/S
    lr_rule: str = rule("constant", choices=("constant", "dynamic"))
    init_mode: str = rule("adaptive-linear", choices=("adaptive-linear", "soft-nonlinear"))
    noisy_gt: bool = rule(False)  # a noisy_gt solver only (canonical.SOLVERS), checked at load
    decoupled: bool = rule(False)  # linear operators only; `load_config` rejects "nonlinear"
    closed_form: bool = rule(False)  # fast path, requires omega = 0
    optimizer: str = rule("schedule-free", choices=("schedule-free", "adam"))
    base_seed: int = rule(0)

    def __post_init__(self):
        super().__post_init__()
        if self.omega is not None and self.omega != 0.0 and self.plugin == "none":
            raise canon.ConfigurationError("lle.omega is non-zero but lle.plugin is \"none\"")
        if self.closed_form and self.resolved_omega() != 0.0:
            raise canon.ConfigurationError(
                f"lle.closed_form needs omega = 0, got {self.resolved_omega()}"
                " (a plugin's default omega is 0.1)"
            )

    def resolved_omega(self) -> float:
        if self.omega is not None:
            return self.omega
        return 0.1 if self.plugin != "none" else 0.0


def make_ground_truth(
    params: canon.AlgoParams,
    prior,
    schedule,
    obs: ops.Observation,
    x0: np.ndarray,
    t_i: int,
    t_prev: int,
    noisy_gt: bool = False,
) -> np.ndarray:
    """Training target at t_i: x0, or the algorithm's own corrector applied to x0."""
    if not noisy_gt:
        return np.array(x0, copy=True)
    if not canon.SOLVERS[params.algorithm].noisy_gt:
        raise canon.ConfigurationError(
            f"noisy ground truth is not defined for {params.algorithm}"
        )
    ctx = canon.StepContext(
        x_t=x0,
        t_i=t_i,
        t_prev=t_prev,
        prior=prior,
        schedule=schedule,
        stream=RngStream(0, 0),  # the DDRM/DDNM correctors draw nothing
        x0_sampled=np.array(x0, copy=True),
    )
    return canon.CORRECTORS[params.algorithm](ctx, obs, params)


def init_coeffs(
    idx: int,
    history,
    xhat,
    x_gt,
    mode: str,
    alphabar_ti: float,
    stream: RngStream,
    omega: float = 0.0,
    plugin=None,
    decoupled: bool = False,
) -> np.ndarray:
    """Adaptive initialization: one-hot on whichever of the two latest
    estimates has the smaller batch loss; other entries ~ N(0, 1e-6).
    """
    J = idx + 1
    gamma = 1e-3 * stream.standard_normal(J) if J > 1 else np.zeros(1)
    if J == 1:
        gamma[0] = 1.0
    else:
        loss_prev = batch_loss(history[-1], x_gt, omega, plugin)
        loss_hat = batch_loss(xhat, x_gt, omega, plugin)
        if loss_prev >= loss_hat:
            gamma[J - 1] = 1.0
        elif mode == "soft-nonlinear":
            gamma[J - 2] = alphabar_ti
            gamma[J - 1] = 1.0 - alphabar_ti
        elif mode == "adaptive-linear":
            gamma[J - 2] = 1.0
        else:
            raise ValueError(f"unknown init mode {mode!r}")
    if decoupled:
        return np.concatenate([gamma, gamma.copy()])
    return gamma


def train_timestep(stacked, x_gt, init_theta, config: TrainConfig, lr_t: float, t_i: int):
    """Optimize the coefficient vector over one timestep's `stack_bases`.

    Returns (best theta, per-epoch loss trace). The best-by-training-loss
    snapshot guarantees final loss <= initial loss.
    """
    stacked = np.asarray(stacked, dtype=float)
    omega = config.resolved_omega()
    plugin = make_plugin(config.plugin)

    def obj(theta):
        return gamma_objective(stacked, x_gt, theta, omega, plugin)

    theta = np.asarray(init_theta, dtype=float)
    best = theta.copy()
    best_loss = obj(theta)
    trace = [best_loss]
    if not math.isfinite(best_loss):
        raise TrainingDivergedError(f"non-finite loss at timestep {t_i}")
    if config.closed_form and omega == 0.0:
        cand = solve_ls_closed_form(stacked, x_gt)
        cand_loss = obj(cand)
        if cand_loss <= best_loss:
            best, best_loss = cand, cand_loss
        trace.append(best_loss)
        return best, trace
    if config.optimizer == "adam":
        opt = Adam(theta, lr=lr_t)
    else:
        opt = ScheduleFreeAdamW(theta, lr=lr_t, warmup=config.warmup)
    for _ in range(config.epochs):
        g = loss_grad_gamma(stacked, x_gt, opt.eval_point(), omega, plugin)
        cur = obj(opt.step(g))
        if not math.isfinite(cur):
            raise TrainingDivergedError(f"training diverged at timestep {t_i}")
        trace.append(cur)
        if cur < best_loss:
            best_loss = cur
            best = opt.params()
    return best, trace


def generate_references(prior, schedule, config: TrainConfig, stream: RngStream | None = None):
    """N reference samples via a ref_steps-step deterministic DDIM run.

    The stream defaults to the one `train` uses for config.base_seed. The
    result does not depend on the step count, so one set serves a sweep.
    """
    if stream is None:
        stream = RngStream(config.base_seed).child(11)
    x = stream.standard_normal((config.n_refs, prior.d))
    return dif.ddim_run(prior, schedule, x, schedule.T, config.ref_steps, eta=0.0)


def _learning_rate(config: TrainConfig, schedule, grid: dif.TimeGrid, idx: int) -> float:
    if config.lr_rule == "constant":
        return 0.04 / grid.S
    if config.lr_rule == "dynamic":
        t_next = grid.timesteps[max(idx - 1, 0)]
        return 0.2 * schedule.alphabar(t_next) / grid.S
    raise ValueError(f"unknown lr rule {config.lr_rule!r}")


def train(
    params: canon.AlgoParams,
    prior,
    schedule,
    obs_builder,
    grid: dif.TimeGrid,
    config: TrainConfig,
    refs: np.ndarray | None = None,
):
    """Walk the grid once, optimizing coefficients per timestep.

    obs_builder(x0_batch, stream) -> Observation with per-sample rows of y.
    refs, when given, must be what `generate_references(prior, schedule,
    config)` returns; it is read, never written.
    Returns (LLECoefficients, loss traces keyed by timestep).
    """
    base = RngStream(config.base_seed)
    if refs is None:
        refs = generate_references(prior, schedule, config)
    observation = obs_builder(refs, base.child(12))
    op = observation.op if observation.is_linear else None
    if config.decoupled and op is None:
        raise canon.ConfigurationError("decoupled coefficients require a linear operator")
    omega = config.resolved_omega()
    plugin = make_plugin(config.plugin)
    init_stream = base.child(14)
    ts = grid.timesteps
    gammas: list[np.ndarray] = []
    gammas_perp: list[np.ndarray] = []
    traces: dict[int, list[float]] = {}

    def fit(i, history, xhat):
        idx = grid.S - i
        t_i = ts[idx]
        x_gt = make_ground_truth(
            params, prior, schedule, observation, refs, t_i, ts[idx + 1], config.noisy_gt
        )
        theta0 = init_coeffs(
            idx,
            history,
            xhat,
            x_gt,
            config.init_mode,
            schedule.alphabar(t_i),
            init_stream,
            omega,
            plugin,
            config.decoupled,
        )
        lr_t = _learning_rate(config, schedule, grid, idx)
        stacked = stack_bases(history + [xhat], op, config.decoupled)
        theta, traces[t_i] = train_timestep(stacked, x_gt, theta0, config, lr_t, t_i)
        J = idx + 1  # theta is gamma, then gamma_perp when decoupled
        gammas.append(theta[:J])
        gammas_perp.append(theta[J:])
        gamma_perp = theta[J:] if config.decoupled else None
        return combine(theta[:J], history, xhat, op=op, gamma_perp=gamma_perp)

    canon.run_with_combiner(
        params, prior, schedule, observation, grid, base.child(13), combiner=fit
    )
    coeffs = LLECoefficients(
        S=grid.S,
        decoupled=config.decoupled,
        timesteps=ts[: grid.S],
        gamma=gammas,
        gamma_perp=gammas_perp if config.decoupled else None,
    )
    return coeffs, traces


def infer(
    params: canon.AlgoParams,
    prior,
    schedule,
    obs: ops.Observation,
    grid: dif.TimeGrid,
    coeffs: LLECoefficients,
    seed: int,
    stream: RngStream | RowStreams | None = None,
) -> np.ndarray:
    """Fixed-coefficient inference; identity coefficients reproduce the base run.

    With (N, 1, m) rows of obs.y and a `RowStreams` stream, row i equals a
    one-row inference on obs.y[i, 0] with row i's stream, bit for bit (see
    `canonical.run_with_combiner`).
    """
    if coeffs.S != grid.S:
        raise canon.ConfigurationError(
            f"coefficients trained for S={coeffs.S}, grid has S={grid.S}"
        )
    op = obs.op if obs.is_linear else None
    if coeffs.decoupled and op is None:
        raise canon.ConfigurationError("decoupled coefficients require a linear operator")
    if stream is None:
        stream = RngStream(seed, stream_id=0)

    def combiner(i, history, xhat):
        return coeffs.extrapolate(i, history, xhat, op=op)

    return canon.run_with_combiner(
        params, prior, schedule, obs, grid, stream, combiner=combiner
    )
