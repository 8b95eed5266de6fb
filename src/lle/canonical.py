"""Canonical Sampler/Corrector/Noiser form of nine diffusion inverse solvers.

One iteration from t_i to t_{i-1} is: denoise (sampler), enforce observation
consistency (corrector), re-noise to the next level (noiser). Each
algorithm's whole canonical form is one `SOLVERS` entry: its sampler,
corrector and noiser, the preset of every key they read, whether it needs a
linear operator and whether its corrector defines a noisy training target.
DDNM is DDRM at eta_b = 1 and shares its spectral corrector and noiser; every
other noiser is the DDIM update sqrt(ab_prev) xhat + c2 eps + c1 z with its own (c1, c2, eps).

The driver `run` iterates the three steps down a time grid;
`run_with_combiner` additionally lets a callback replace the corrected
estimate before the noiser, which is how the learned extrapolation plugs in,
for training and inference alike, without duplicating the data flow.

Every config block, the parameter dataclasses here included, is a
`ConfigBlock` whose fields each carry one `rule`; construction checks them
all, `from_dict` builds a block from parsed JSON, naming any bad key's path,
and `parse_json` / `read_json` are the package's one JSON reader.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import diffusion as dif
from . import operators as ops
from .errors import ConfigError, ConvergenceError
from .numerics import RngStream, RowStreams
from .optim import ScheduleFreeAdamW


# annotation -> (accepted type, what an error asks for), "list[T]" checking each entry
# as T; other annotations (a nested block, "object") are not type-checked
_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "list": (list, "a list"), "dict": (dict, "an object")}
_BOUNDS = {"minimum": (operator.ge, ">="), "maximum": (operator.le, "<="),
           "above": (operator.gt, ">"), "below": (operator.lt, "<")}


def rule(default=MISSING, *, choices=None, optional=False, key=None, **bounds):
    """A config field, declared once as `name: type = rule(...)`: no default
    makes the key required; optional allows None; bounds are minimum, maximum
    (inclusive), above, below (exclusive); key is the JSON key, if not name."""
    return field(default=default, metadata={"rule": (choices, optional, bounds), "key": key})


def _check(name: str, value, kind: str, choices, optional: bool, bounds: dict) -> None:
    if value is None and optional:
        return
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {list(choices)}, got {value!r}")
    if kind.startswith("list["):  # a list whose every entry obeys the rule, bounds included
        _check(name, value, "list", None, False, {})
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", item, kind[5:-1], None, False, bounds)
        return
    if kind in _TYPES:
        accepted, what = _TYPES[kind]
        # a bool is no number; a float's magnitude is compared exactly with the
        # largest float, so NaN, inf and an int too large to convert all fail
        if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted)
                or kind == "float" and not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
    for bound, limit in bounds.items():
        holds, sign = _BOUNDS[bound]
        if not holds(value, limit):
            raise ConfigError(f"{name} must be {sign} {limit}, got {value!r}")


class ConfigBlock:
    """Base of the config dataclasses: construction checks each field's rule.
    `block` is the block's dotted path, which errors name keys from."""

    block = ""

    @classmethod
    def _path(cls, key: str) -> str:
        return f"{cls.block}.{key}" if cls.block else key

    def __post_init__(self):
        for f in fields(self):
            if "rule" in f.metadata:
                name = self._path(f.metadata["key"] or f.name)
                kind = f.type.split(" |")[0]  # "float | None" is checked as "float"
                _check(name, getattr(self, f.name), kind, *f.metadata["rule"])

    @classmethod
    def from_dict(cls, obj, base=None):
        """Build the block from a parsed JSON object; given keys override base
        (absent: the defaults) and nested blocks recurse. A non-object, an
        unknown key or a missing required key is an error naming its path."""
        if not isinstance(obj, dict):
            raise ConfigError(f"{cls.block or cls.__name__} must be an object, got {obj!r}")
        by_key = {f.metadata.get("key") or f.name: f for f in fields(cls) if f.init}
        unknown = [cls._path(key) for key in sorted(set(obj) - set(by_key))]
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
        values = {}
        for key, f in by_key.items():
            nested = vars(sys.modules[cls.__module__]).get(f.type)
            if key in obj and isinstance(nested, type) and issubclass(nested, ConfigBlock):
                values[f.name] = nested.from_dict(obj[key], getattr(base, f.name, None))
            elif key in obj:
                values[f.name] = obj[key]
            elif base is not None:
                values[f.name] = getattr(base, f.name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing config key {cls._path(key)}")
        return cls(**values)

    @classmethod
    def load(cls, path):
        """`from_dict` of the file at path (`read_json`)."""
        return cls.from_dict(read_json(path))


def parse_json(text: str, where: str):
    """The parsed JSON text; invalid JSON is an error naming where, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc.msg} at line {exc.lineno}"
                                 f" column {exc.colno}") from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ConfigError(f"{where} cannot be parsed: {str(exc).split(';')[0]}") from exc


def read_json(path):
    """The parsed JSON of the file at path; a file that cannot be read or parsed is an
    error naming it."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path} cannot be read: {reason}") from exc
    return parse_json(text, str(path))


@dataclass
class DAPSParams(ConfigBlock):
    block = "algorithm.daps"
    k_ddim: int = rule(5, minimum=1)
    n_langevin: int = rule(100, minimum=0)
    eta0: float = rule(1e-4, minimum=0.0)
    delta: float = rule(0.01, minimum=0.0)
    sigma_langevin: float | None = rule(None, minimum=0.0, optional=True)  # None: max(sigma_y, .02)
    noiseless_linear: bool = rule(False)

    def __post_init__(self):
        super().__post_init__()
        if self.sigma_langevin == 0.0 and not self.noiseless_linear:
            raise ConfigError(
                f"{self._path('sigma_langevin')} must be > 0 unless"
                f" {self._path('noiseless_linear')} is true"
            )


@dataclass
class InnerOptParams(ConfigBlock):
    block = "algorithm.inner_opt"
    lr: float = rule(0.01, minimum=0.0)
    momentum: float = rule(0.9, minimum=0.0, below=1.0)
    steps: int = rule(50, minimum=0)


@dataclass
class StepContext:
    """Per-step bundle, the one source of the step's schedule quantities: ab
    and sigma = sqrt(1 - ab) at t_i, ab_prev and sigma_prev at t_prev, read
    once when it is built. eps and the mixture whitening at (x_t, t_i) are
    evaluated once and shared by sampler, corrector and noiser."""

    x_t: np.ndarray
    t_i: int
    t_prev: int
    prior: object
    schedule: dif.DiffusionSchedule
    stream: RngStream | RowStreams
    prev_xhat: np.ndarray | None = None
    x0_sampled: np.ndarray | None = None
    _eps: np.ndarray | None = None
    _whitened: tuple | None = None
    ab: float = field(init=False)
    ab_prev: float = field(init=False)
    sigma: float = field(init=False)
    sigma_prev: float = field(init=False)

    def __post_init__(self):
        self.ab = self.schedule.alphabar(self.t_i)
        self.ab_prev = self.schedule.alphabar(self.t_prev)
        self.sigma = self.schedule.sigma(self.t_i)
        self.sigma_prev = self.schedule.sigma(self.t_prev)

    @property
    def whitened(self) -> tuple:
        if self._whitened is None:
            self._whitened = dif.whiten(self.prior, self.schedule, self.x_t, self.t_i)
        return self._whitened

    @property
    def eps_cached(self) -> np.ndarray:
        if self._eps is None:
            self._eps = dif.gmm_eps(
                self.prior, self.schedule, self.x_t, self.t_i, whitened=self.whitened
            )
        return self._eps

    def x0_vjp(self, v: np.ndarray) -> np.ndarray:
        """v^T (d x0/d x_t) for the Tweedie x0 = (x_t - sigma eps) / sqrt(ab);
        the Jacobian (I - sigma d eps/dx) / sqrt(ab) is symmetric, so this is
        also its product with v. The eps JVP reuses the step's whitening."""
        jvp = dif.gmm_eps_jvp(self.prior, self.schedule, self.x_t, self.t_i, v,
                              whitened=self.whitened)
        return (v - self.sigma * jvp) / math.sqrt(self.ab)


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def sampler_tweedie(params: AlgoParams, ctx: StepContext) -> np.ndarray:
    """Single-step DDIM (Tweedie) estimate from the step's shared eps."""
    return (ctx.x_t - ctx.sigma * ctx.eps_cached) / math.sqrt(ctx.ab)


def sampler_ddim_chain(params: AlgoParams, ctx: StepContext) -> np.ndarray:
    """Deterministic k_ddim-step DDIM chain from (x_t, t_i) down to 0 (DAPS)."""
    return dif.ddim_run(ctx.prior, ctx.schedule, ctx.x_t, ctx.t_i, params.daps.k_ddim)


# ---------------------------------------------------------------------------
# Correctors
# ---------------------------------------------------------------------------


def _residual_grad_x0(obs: ops.Observation, x0: np.ndarray) -> np.ndarray:
    """Gradient of ||y - A(x0)||^2 with respect to x0."""
    if obs.is_linear:
        return 2.0 * ops.apply_adjoint(obs.op, ops.apply(obs.op, x0) - obs.y)
    fx = ops.nl_apply(obs.op, x0)
    return 2.0 * ops.nl_vjp(obs.op, x0, fx - obs.y, fx=fx)


def _noisy_branch(ctx: StepContext, obs: ops.Observation) -> np.ndarray:
    """DDRM/DDNM spectral coordinates where sigma_{t_prev} < sqrt(ab_prev) sigma_y / s_k."""
    if obs.sigma_y == 0.0:
        return np.zeros(obs.op.r, dtype=bool)
    return ctx.sigma_prev < math.sqrt(ctx.ab_prev) * obs.sigma_y / obs.op.s


def corr_ddrm(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Spectral correction x0 + (lam (U^T y / s - V^T x0)) V^T of DDRM and
    DDNM: lam = eta_b, whose preset 1 is DDNM's null-space projection, and
    the noise-aware scaling in the noisy branch; boundary ties take eta_b."""
    op = obs.op
    x0 = ctx.x0_sampled
    middle = _noisy_branch(ctx, obs)
    lam = np.full(op.r, params.eta_b)
    if np.any(middle):
        lam = np.where(
            middle,
            op.s * ctx.sigma_prev * math.sqrt(max(0.0, 1.0 - params.eta**2))
            / (math.sqrt(ctx.ab_prev) * obs.sigma_y),
            params.eta_b,
        )
    spectral_y = (obs.y @ op.U) / op.s
    innovation = spectral_y - x0 @ op.V
    return x0 + (lam * innovation) @ op.V.T


def corr_dps(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Likelihood-gradient step through the exact denoiser Jacobian."""
    x0 = ctx.x0_sampled
    if params.zeta == 0.0:
        return x0.copy()
    grad_xt = ctx.x0_vjp(_residual_grad_x0(obs, x0))
    zeta_t = params.zeta * math.sqrt(ctx.ab)
    return x0 - (zeta_t / math.sqrt(ctx.ab_prev)) * grad_xt


def corr_pigdm(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Pseudoinverse-guided correction with diagonal solve in the U-basis."""
    op = obs.op
    x0 = ctx.x0_sampled
    r2 = 1.0 - ctx.ab
    if obs.sigma_y == 0.0 and r2 == 0.0:
        raise ConvergenceError("singular solve: sigma_y = 0 and r_t = 0")
    ratio = obs.sigma_y**2 / r2
    resid = obs.y - ops.apply(op, x0)
    # A^T (A A^T + ratio I)^-1 resid, diagonal on the range of U; the
    # U-complement part is annihilated by diag(s) V^T.
    w = (resid @ op.U) * (op.s / (op.s**2 + ratio)) @ op.V.T
    return x0 + math.sqrt(ctx.ab / ctx.ab_prev) * ctx.x0_vjp(w)


def corr_reddiff(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Gradient-descent corrector anchored at the previous corrected estimate."""
    x0 = ctx.x0_sampled
    p = ctx.prev_xhat if ctx.prev_xhat is not None else x0
    if params.xi == 0.0:
        return np.array(p, copy=True)
    step = x0 - p
    if params.lam != 0.0:
        step = step - params.lam * _residual_grad_x0(obs, x0)
    return p + params.xi * step


def _row_dot(a: np.ndarray) -> np.ndarray:
    """a . a over the last axis, one BLAS dot per row, as np.vdot on one row."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def _divergence_limit(loss0, loss_zero):
    """Per-row limit of an inner loss: ten times its start, and at least the
    zero estimate's loss (||y||^2 plus any proximal term at 0). That floor
    scales with the row's data, so a row that starts on its data is not
    flagged when Adam's normalized steps scale up the rounding near it."""
    return np.maximum(10.0 * np.maximum(loss0, 1e-30), loss_zero)


def _guard(loss, limit, step: int, lr: float, who: str) -> None:
    """Raise ConvergenceError naming every row whose inner loss is non-finite
    or above its `_divergence_limit` at this inner step."""
    bad = ~np.isfinite(loss) | (loss > limit)
    if np.any(bad):
        rows = np.flatnonzero(bad).tolist()
        raise ConvergenceError(
            f"{who} diverged in row(s) {rows} at inner step {step}: the loss is non-finite"
            f" or above ten times its start and the zero estimate's loss;"
            f" lower algorithm.inner_opt.lr (now {lr})"
        )


def _momentum_descent(value_and_grad, x_init, opt: InnerOptParams, loss_zero):
    """Plain SGD with momentum and a per-row divergence guard (`_guard`).

    value_and_grad(x) -> (loss per row, gradient), both from one residual at
    x; the loss has x's shape without its last axis. loss_zero is the loss of
    the zero estimate (see `_divergence_limit`).
    """
    x = np.array(x_init, copy=True)
    vel = np.zeros_like(x)
    loss0, grad = value_and_grad(x)
    limit = _divergence_limit(loss0, loss_zero)
    for step in range(1, opt.steps + 1):
        vel = opt.momentum * vel - opt.lr * grad
        x = x + vel
        cur, grad = value_and_grad(x)
        _guard(cur, limit, step, opt.lr, "inner optimizer")
    return x


def corr_diffpir(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Proximal corrector argmin ||y - A(x)||^2 + rho ||x - x0||^2."""
    x0 = ctx.x0_sampled
    rho = params.lam * obs.sigma_y**2 * ctx.ab / (1.0 - ctx.ab)
    if obs.is_linear:
        op = obs.op
        xbar = x0 @ op.V
        ybar = obs.y @ op.U
        if rho < 1e-12:
            # rho -> 0+ limit: exact projection x0 + A^+(y - A x0)
            corrected = ybar / op.s
        else:
            corrected = (op.s * ybar + rho * xbar) / (op.s**2 + rho)
        return x0 + (corrected - xbar) @ op.V.T
    # nonlinear: inner schedule-free AdamW on the proximal objective
    def loss(x):  # per row
        r = ops.nl_apply(obs.op, x) - obs.y
        return np.sum(r * r, axis=-1) + rho * np.sum((x - x0) ** 2, axis=-1)

    def grad(x):
        return _residual_grad_x0(obs, x) + 2.0 * rho * (x - x0)

    lr = params.inner_opt.lr
    opt = ScheduleFreeAdamW(np.array(x0, copy=True), lr=lr)
    limit = _divergence_limit(loss(x0), _row_dot(obs.y) + rho * _row_dot(x0))
    for step in range(1, params.inner_opt.steps + 1):
        opt.step(grad(opt.eval_point()))
        _guard(loss(opt.params()), limit, step, lr, "DiffPIR inner optimizer")
    return opt.params()


def corr_dmps(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Noise-perturbed-likelihood score step in the SVD basis."""
    op = obs.op
    x0 = ctx.x0_sampled
    ab_i, ab_prev = ctx.ab, ctx.ab_prev
    if params.lam == 0.0:
        return x0.copy()
    denom = obs.sigma_y**2 + (1.0 - ab_i) / ab_i * op.s**2
    if np.any(denom == 0.0):
        raise ConvergenceError("singular solve: sigma_y = 0 and alphabar = 1")
    innov = obs.y @ op.U - (ctx.x_t @ op.V) * op.s / math.sqrt(ab_i)
    score_y = ((innov / denom) * op.s) @ op.V.T / math.sqrt(ab_i)
    alpha_i = ab_i / ab_prev
    coef = params.lam * (1.0 - alpha_i) / math.sqrt(alpha_i) / math.sqrt(ab_prev)
    return x0 + coef * score_y


def corr_resample(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Hard data consistency: argmin ||y - A(x)||^2 from x0 by momentum descent.

    For a linear A = U diag(s) V^T the gradient 2 A^T (A x - y) lies in the
    span of V, so the descent runs on the range coordinates c = V^T x alone,
    with ||A x - y||^2 = ||s c - U^T y||^2 + ||y - U U^T y||^2.
    """
    x0 = ctx.x0_sampled
    opt = params.inner_opt
    if params.exact_hc and obs.is_linear:
        op = obs.op
        return x0 + ops.pinv_apply(op, obs.y - ops.apply(op, x0))
    if opt.steps == 0:
        return x0.copy()
    if not obs.is_linear:
        nlop = obs.op

        def value_and_grad(x):
            fx = ops.nl_apply(nlop, x)
            r = fx - obs.y
            return np.sum(r * r, axis=-1), 2.0 * ops.nl_vjp(nlop, x, r, fx=fx)

        return _momentum_descent(value_and_grad, x0, opt, _row_dot(obs.y))
    op = obs.op
    ybar = obs.y @ op.U
    out_of_range = obs.y - ybar @ op.U.T
    loss_perp = _row_dot(out_of_range)
    two_s = 2.0 * op.s

    def value_and_grad_range(c):
        r = op.s * c - ybar
        return _row_dot(r) + loss_perp, two_s * r

    c0 = x0 @ op.V
    c = _momentum_descent(value_and_grad_range, c0, opt, _row_dot(obs.y))
    return x0 + (c - c0) @ op.V.T


def daps_step_size(daps: DAPSParams, t: int, T: int) -> float:
    """Annealed Langevin step eta_t = eta0 * (delta + (t/T)(1 - delta))."""
    return daps.eta0 * (daps.delta + (t / T) * (1.0 - daps.delta))


# Langevin iterations per noise draw of DAPS: part of its determinism contract
_LANGEVIN_BLOCK = 10


def corr_daps(ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Langevin chain targeting the anchored posterior around x_{0,t_i}.

    Each step is x <- drift(x) + sqrt(2 eta_t) xi with the gradient drift
    x - eta_t ((x - anchor) / r^2 + w A^T (A x - y)), w = 1/sigma^2 (1/eta_t
    for the noiseless-linear variant). For a linear A = U diag(s) V^T that
    drift is affine, x M + g with M = (1 - eta_t/r^2) I - eta_t w V diag(s^2) V^T
    and g = (eta_t/r^2) anchor + eta_t w A^T y, built once per call.

    Determinism contract: the noise of iterations 10b .. 10b + 9 is one
    ``standard_normal_block`` draw of `_LANGEVIN_BLOCK` = 10 iterations (the
    last block holds n_langevin mod 10 when that is not 0), and iteration j
    adds entry j mod 10. So a call advances each row's counter
    ceil(n_langevin / 10) times, and its noise takes memory of the order of
    one N * 10 * d block, whatever n_langevin is. The block size is part of
    the contract: changing it changes DAPS outputs. Row i of a `RowStreams`
    batch reads its numbers in the order a one-row run with its own
    `RngStream` does, so the two stay bit-identical.
    """
    daps = params.daps
    anchor = ctx.x0_sampled
    if daps.n_langevin == 0:
        return np.array(anchor, copy=True)
    sigma = daps.sigma_langevin
    if sigma is None:
        sigma = max(obs.sigma_y, 0.02)
    eta_t = daps_step_size(daps, ctx.t_i, ctx.schedule.T)
    r2 = 1.0 - ctx.ab
    if obs.is_linear or daps.noiseless_linear:
        if not obs.is_linear:
            raise ConfigError("DAPS noiseless_linear requires a linear operator")
        op = obs.op
        # the noiseless data term is (1/(2 eta_t)) ||A x - y||^2, so eta_t w = 1
        eta_w = 1.0 if daps.noiseless_linear else eta_t / sigma**2
        M = (1.0 - eta_t / r2) * np.eye(op.n) - (op.V * (eta_w * op.s**2)) @ op.V.T
        g = (eta_t / r2) * anchor + eta_w * ops.apply_adjoint(op, obs.y)

        def drift(x):
            return x @ M + g

    else:

        def drift(x):
            grad = (x - anchor) / r2
            data_grad = 0.5 * _residual_grad_x0(obs, x) / sigma**2
            return x - eta_t * (grad + data_grad)

    noise_scale = math.sqrt(2.0 * eta_t)
    x = np.array(anchor, copy=True)
    for start in range(0, daps.n_langevin, _LANGEVIN_BLOCK):
        count = min(_LANGEVIN_BLOCK, daps.n_langevin - start)
        block = ctx.stream.standard_normal_block(count, x.shape)
        block *= noise_scale
        for noise in block:
            x = drift(x) + noise
        del block, noise  # the next block is drawn with no earlier one held
    return x


# ---------------------------------------------------------------------------
# Noisers: every one takes (xhat, ctx, obs, params)
# ---------------------------------------------------------------------------


def _ddim_noise(xhat: np.ndarray, ctx: StepContext, c1: float, c2: float, eps=None) -> np.ndarray:
    """The DDIM update sqrt(ab_prev) xhat + c2 eps + c1 z, z fresh noise; eps
    defaults to eps_theta(x_t, t_i)."""
    out = math.sqrt(ctx.ab_prev) * xhat
    if c2 != 0.0:
        out = out + c2 * (ctx.eps_cached if eps is None else eps)
    if c1 != 0.0:
        out = out + c1 * ctx.stream.standard_normal(xhat.shape)
    return out


def noiser_ddim(xhat, ctx: StepContext, obs, params: AlgoParams) -> np.ndarray:
    """DDIM noiser with the schedule's (c1, c2) for params.eta:
    c1 = eta sqrt(1 - ab_i/ab_prev) sqrt((1 - ab_prev)/(1 - ab_i)) and
    c2 = sqrt(1 - ab_prev - c1^2), so c1^2 + c2^2 = 1 - ab_prev."""
    ab_i, ab_prev = ctx.ab, ctx.ab_prev
    c1 = (params.eta * math.sqrt(max(0.0, 1.0 - ab_i / ab_prev))
          * math.sqrt((1.0 - ab_prev) / (1.0 - ab_i)))
    rad = 1.0 - ab_prev - c1 * c1
    if rad < -1e-12:
        raise FloatingPointError(f"negative c2 radicand {rad} at ({ctx.t_i},{ctx.t_prev})")
    return _ddim_noise(xhat, ctx, c1, math.sqrt(max(0.0, rad)))


def noiser_dmps(xhat, ctx: StepContext, obs, params: AlgoParams) -> np.ndarray:
    """DMPS split: c1 = eta sigma_prev, c2 = sqrt(1 - eta^2) sigma_prev."""
    eta, sig_prev = params.eta, ctx.sigma_prev
    return _ddim_noise(xhat, ctx, eta * sig_prev, math.sqrt(1.0 - eta * eta) * sig_prev)


def noiser_direct(xhat, ctx: StepContext, obs, params: AlgoParams) -> np.ndarray:
    """sqrt(ab_prev) xhat + sigma_prev z: the DMPS split at eta = 1."""
    return _ddim_noise(xhat, ctx, ctx.sigma_prev, 0.0)


def noiser_diffpir(xhat, ctx: StepContext, obs, params: AlgoParams) -> np.ndarray:
    """DDIM update with the effective eps = x_t - sqrt(ab_i) xhat recomputed
    from xhat: c1 = eta sigma_prev, c2 = sqrt(1 - eta^2) sigma_prev / sigma_i."""
    eta, sig_prev = params.eta, ctx.sigma_prev
    c2 = math.sqrt(1.0 - eta * eta) * (sig_prev / ctx.sigma)
    eps = ctx.x_t - math.sqrt(ctx.ab) * xhat
    return _ddim_noise(xhat, ctx, eta * sig_prev, c2, eps)


def noiser_resample(xhat, ctx: StepContext, obs, params: AlgoParams) -> np.ndarray:
    """Stochastic encode of the sampler output (the DDIM noiser), then
    posterior blend toward xhat."""
    ab_prev, ab_i = ctx.ab_prev, ctx.ab
    x_prime = noiser_ddim(ctx.x0_sampled, ctx, obs, params)
    # sigma_rs^2 = gamma * sig_prev2 * (1 - ab_i/ab_prev) / ab_i; factoring out
    # sig_prev2 = 1 - ab_prev keeps the t_prev = 0 endpoint well-defined.
    g = params.gamma_rs * (1.0 - ab_i / ab_prev) / ab_i
    if g == 0.0:
        return x_prime
    w_hat = g / (g + 1.0)
    blend = w_hat * math.sqrt(ab_prev) * xhat + (1.0 - w_hat) * x_prime
    std = math.sqrt((1.0 - ab_prev) * w_hat)
    if std != 0.0:
        blend = blend + std * ctx.stream.standard_normal(xhat.shape)
    return blend


def noiser_ddrm(xhat, ctx: StepContext, obs: ops.Observation, params: AlgoParams) -> np.ndarray:
    """Three-branch coordinatewise noiser of DDRM and DDNM in the V-basis:
    DDIM on the null space, eta sigma_prev fresh noise in the noisy branch,
    and elsewhere the range variance sigma_prev^2 - sigma_y^2 eta_b^2 ab_prev / s^2."""
    op = obs.op
    sig_prev = ctx.sigma_prev
    eta = params.eta
    middle = _noisy_branch(ctx, obs)
    rad = sig_prev**2 - obs.sigma_y**2 * params.eta_b**2 * ctx.ab_prev / op.s**2
    rad = np.where(middle, 0.0, rad)
    if np.any(rad < -1e-12):
        raise ConfigError(
            f"{params.algorithm} noiser radicand is negative; check sigma_y and eta_b"
        )
    eps = ctx.stream.standard_normal(xhat.shape)
    sqrt_ab = math.sqrt(ctx.ab_prev)
    # null-space branch (s_k = 0): deterministic eps_theta share plus fresh noise
    null_xhat = ops.project(op, xhat, "null")
    null_eps_theta = ops.project(op, ctx.eps_cached, "null")
    null_eps = ops.project(op, eps, "null")
    out_null = (
        sqrt_ab * null_xhat
        + math.sqrt(max(0.0, 1.0 - eta * eta)) * sig_prev * null_eps_theta
        + eta * sig_prev * null_eps
    )
    # range coordinates: per-k standard deviation by branch
    xbar = xhat @ op.V
    ebar = eps @ op.V
    std = np.where(middle, np.full(op.r, eta * sig_prev), np.sqrt(np.clip(rad, 0.0, None)))
    out_range = (sqrt_ab * xbar + std * ebar) @ op.V.T
    return out_null + out_range


# ---------------------------------------------------------------------------
# The solver table
# ---------------------------------------------------------------------------


class Solver(NamedTuple):
    """One algorithm's canonical form: x0 = sampler(params, ctx), xhat =
    corrector(ctx, obs, params), x_{t_prev} = noiser(xhat, ctx, obs, params).
    preset lists every `algorithm` key the three read at its preset value ({}: a
    whole block at its defaults); linear: it needs a linear operator (see
    `AlgoParams.linear_need`); noisy_gt: its corrector defines the noisy
    training target (lle.noisy_gt)."""

    sampler: Callable
    corrector: Callable
    noiser: Callable
    preset: dict
    linear: bool = False
    noisy_gt: bool = False


SOLVERS = {
    "DDRM": Solver(sampler_tweedie, corr_ddrm, noiser_ddrm, {"eta": 0.85, "eta_b": 1.0},
                   linear=True, noisy_gt=True),
    # DDNM's null-space projection is DDRM's spectral solver at eta_b = 1
    "DDNM": Solver(sampler_tweedie, corr_ddrm, noiser_ddrm, {"eta": 0.85, "eta_b": 1.0},
                   linear=True, noisy_gt=True),
    "DPS": Solver(sampler_tweedie, corr_dps, noiser_ddim, {"eta": 1.0, "zeta": 1.0}),
    "PiGDM": Solver(sampler_tweedie, corr_pigdm, noiser_ddim, {"eta": 1.0}, linear=True),
    "REDdiff": Solver(sampler_tweedie, corr_reddiff, noiser_direct, {"xi": 1.0, "lam": 0.5}),
    "DiffPIR": Solver(sampler_tweedie, corr_diffpir, noiser_diffpir,
                      {"eta": 1.0, "lam": 7.0, "inner_opt": {"lr": 0.1, "steps": 50}}),
    "DMPS": Solver(sampler_tweedie, corr_dmps, noiser_dmps, {"eta": 0.85, "lam": 1.0},
                   linear=True),
    "ReSample": Solver(sampler_tweedie, corr_resample, noiser_resample,
                       {"eta": 1.0, "gamma_rs": 100.0, "exact_hc": False, "inner_opt": {}}),
    "DAPS": Solver(sampler_ddim_chain, corr_daps, noiser_direct, {"daps": {}}),
}
ALGORITHMS = tuple(SOLVERS)
# the driver dispatches correctors through this view of SOLVERS, so that a
# profiler can wrap one algorithm's corrector by replacing its entry
CORRECTORS = {name: solver.corrector for name, solver in SOLVERS.items()}


def _unread(given: dict, preset: dict, path: str = "algorithm."):
    """The key paths of given that preset does not list; {} lists a whole block."""
    for key, value in given.items():
        if key not in preset:
            yield path + key
        elif preset[key] and isinstance(value, dict):
            yield from _unread(value, preset[key], f"{path}{key}.")


@dataclass
class AlgoParams(ConfigBlock):
    """Algorithm tag plus every solver's hyperparameters; `default_params` sets
    the solver's preset, and `from_dict` takes only keys the solver reads."""

    block = "algorithm"
    algorithm: str = rule(choices=ALGORITHMS, key="name")
    eta: float = rule(0.85, minimum=0.0, maximum=1.0)  # the noisers' stochasticity
    eta_b: float = rule(1.0, minimum=0.0, maximum=1.0)
    zeta: float = rule(1.0, minimum=0.0)
    xi: float = rule(1.0, minimum=0.0)
    lam: float = rule(1.0, minimum=0.0)
    gamma_rs: float = rule(100.0, minimum=0.0)
    exact_hc: bool = rule(False)  # the closed-form shortcut (linear operators only)
    daps: DAPSParams = field(default_factory=DAPSParams)
    inner_opt: InnerOptParams = field(default_factory=InnerOptParams)

    @classmethod
    def from_dict(cls, obj, base=None):
        """`ConfigBlock.from_dict`; a key the named solver does not read is an error."""
        params = super().from_dict(obj, base)
        for path in _unread(obj, {"name": None, **SOLVERS[params.algorithm].preset}):
            raise ConfigError(f"{path} is not read by {params.algorithm}")
        return params

    def linear_need(self) -> str | None:
        """What makes these params need a linear operator, named by its key path, or None."""
        if SOLVERS[self.algorithm].linear:
            return f"algorithm.name {self.algorithm}"
        daps = "daps" in SOLVERS[self.algorithm].preset and self.daps.noiseless_linear
        return "algorithm.daps.noiseless_linear" if daps else None


def default_params(algorithm: str) -> AlgoParams:
    """The algorithm's preset, mirroring the standard tuned settings; a fresh
    object on every call."""
    return AlgoParams.from_dict({"name": algorithm, **SOLVERS[algorithm].preset})


def sample_phi(params: AlgoParams, ctx: StepContext) -> np.ndarray:
    """Denoised estimate x_{0,t_i} by the algorithm's sampler, kept on ctx."""
    ctx.x0_sampled = SOLVERS[params.algorithm].sampler(params, ctx)
    return ctx.x0_sampled


def apply_noiser(
    params: AlgoParams, ctx: StepContext, obs: ops.Observation, xhat: np.ndarray
) -> np.ndarray:
    """x_{t_prev} from the (combined) estimate by the algorithm's noiser."""
    return SOLVERS[params.algorithm].noiser(xhat, ctx, obs, params)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_with_combiner(
    params: AlgoParams,
    prior,
    schedule,
    obs: ops.Observation,
    grid: dif.TimeGrid,
    stream: RngStream | RowStreams,
    combiner=None,
) -> np.ndarray:
    """Iterate Phi -> h -> (combiner) -> Psi down the grid from x ~ N(0, I).

    The start batch is drawn from stream with one row per row of obs.y, so
    a (m,) observation gives a (d,) trajectory, (B, m) gives (B, d) and
    (N, 1, m) gives (N, 1, d). combiner(i, history, xhat) may replace the
    corrected estimate before the noiser; history holds the combiner outputs
    of earlier steps (oldest first). Returns the final estimate at t_1
    (identical to x_{t_0} for the DDIM-family noisers since alphabar_0 = 1).
    Params that need a linear operator (`AlgoParams.linear_need`) raise
    ConfigError on a nonlinear one here, before the first draw; an estimate
    that is not finite raises ConvergenceError naming its step and rows.

    Determinism: every product and reduction runs over the last two axes
    (a (B, m) batch is one matrix product), so an (N, 1, m) batch, drawn from
    a `RowStreams` of one `RngStream` per row, gives row i bit for bit what
    a one-row run with (m,) y[i, 0] and row i's stream gives. A (B, m)
    batch, as training uses, does not have that property.
    """
    if (need := params.linear_need()) and not obs.is_linear:
        raise ConfigError(f"{need} needs a linear operator")
    ts = grid.timesteps
    x = stream.standard_normal(obs.y.shape[:-1] + (prior.d,))
    history: list[np.ndarray] = []
    for i in range(grid.S, 0, -1):
        idx = grid.S - i
        ctx = StepContext(
            x_t=x,
            t_i=ts[idx],
            t_prev=ts[idx + 1],
            prior=prior,
            schedule=schedule,
            stream=stream,
            prev_xhat=history[-1] if history else None,
        )
        sample_phi(params, ctx)
        xhat = CORRECTORS[params.algorithm](ctx, obs, params)
        est = combiner(i, history, xhat) if combiner is not None else xhat
        if not np.isfinite(est).all():
            rows = np.flatnonzero(~np.isfinite(est).all(axis=-1)).tolist()
            raise ConvergenceError(f"{params.algorithm}'s estimate at t_i = {ctx.t_i} is not"
                                   f" finite in row(s) {rows}")
        history.append(est)
        x = apply_noiser(params, ctx, obs, est)
    return history[-1]


def run(
    params: AlgoParams,
    prior,
    schedule,
    obs: ops.Observation,
    grid: dif.TimeGrid,
    seed: int,
    stream: RngStream | None = None,
) -> np.ndarray:
    """Base algorithm run (no extrapolation); returns the final estimate."""
    if stream is None:
        stream = RngStream(seed, stream_id=0)
    return run_with_combiner(params, prior, schedule, obs, grid, stream)
