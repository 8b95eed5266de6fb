"""Canonical Sampler/Corrector/Noiser form of nine diffusion inverse solvers.

One iteration from t_i to t_{i-1} is: denoise (sampler), enforce observation
consistency (corrector), re-noise to the next level (noiser). Each
algorithm's whole canonical form is one `SOLVERS` entry: its sampler,
corrector and noiser, the preset of every key they read, whether it needs a
linear operator and whether its corrector defines a noisy training target.
DDNM is DDRM at eta_b = 1 and shares its spectral corrector and noiser; every
other noiser is the DDIM update sqrt(ab_prev) xhat + c2 eps + c1 z with its own (c1, c2, eps).

The driver `run` iterates the three steps down a time grid; `run_with_combiner`
additionally lets a callback replace the corrected estimate before the noiser, which
is how the learned extrapolation plugs in, for training and inference alike, without
duplicating the data flow. Every stage has one form, sampler(ctx), corrector(ctx) and
noiser(ctx, xhat), as the combiner(ctx, xhat) has: ctx is the step's one `StepContext`,
built from the run's `RunTables` (what the driver call fixes: prior, schedule, obs,
params and every step's x-independent constants) and the step's index.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

import numpy as np

from . import diffusion as dif
from . import operators as ops
from .config import SQRT_FLOAT_MAX, ConfigBlock, rule
from .errors import ConfigError, ConvergenceError
from .numerics import RngStream, RowStreams
from .optim import BatchScheduleFreeAdamW


class DAPSParams(ConfigBlock):
    block = "algorithm.daps"
    k_ddim: int = rule(5, minimum=1)
    n_langevin: int = rule(100, minimum=0)
    eta0: float = rule(1e-4, minimum=0.0)
    delta: float = rule(0.01, minimum=0.0)
    # None: max(sigma_y, .02); squared as a Python float, so at most sqrt(float max)
    sigma_langevin: float | None = rule(None, above=0.0, maximum=SQRT_FLOAT_MAX, optional=True)
    noiseless_linear: bool = rule(False)
    unread_when = {("noiseless_linear", True): ("sigma_langevin",),
                   ("n_langevin", 0): ("eta0", "delta", "sigma_langevin", "noiseless_linear"),
                   ("eta0", 0): ("delta", "sigma_langevin")}


class InnerOptParams(ConfigBlock):
    block = "algorithm.inner_opt"
    lr: float = rule(0.01, minimum=0.0)
    momentum: float = rule(0.9, minimum=0.0, below=1.0)
    steps: int = rule(50, minimum=0)
    unread_when = {("steps", 0): ("lr", "momentum")}


class RunTables:
    """What one driver call fixes: its inputs prior, schedule, obs and params, and its
    steps t_i[i] -> t_prev[i] down the timesteps ts with their x-independent constants:
    rows[i] is step i's row of `diffusion.step_rows` (the mixture's constants at t_i,
    then ab, ab_prev, sqrt(ab_prev) and sigma_prev), from one vectorized call, each
    entry the bits a one-step table holds. `memo` keeps a solver's own x-independent
    tables (DAPS's n-step factors, ReSample's descent table) for the rest of the run;
    nothing is kept across runs."""

    def __init__(self, prior, schedule, ts, obs: ops.Observation, params: AlgoParams):
        self.prior, self.schedule, self.obs, self.params = prior, schedule, obs, params
        self.t_i, self.t_prev = list(ts[:-1]), list(ts[1:])
        self.rows = dif.step_rows(prior, schedule, self.t_i, self.t_prev)
        self._memo = {}

    def memo(self, key: tuple, build):
        """build(), made on the run's first call with this key and kept for the rest of
        the run; key holds every value the result depends on."""
        table = self._memo.get(key)
        if table is None:
            table = self._memo[key] = build()
        return table


class StepContext:
    """Step `step` of a run, every stage's one argument besides the noiser's xhat: the
    run's inputs prior, schedule, obs and params; the step's t_i, t_prev and, from its
    row of the run's `RunTables`, ab and sigma = sqrt(1 - ab) at t_i, ab_prev and
    sigma_prev at t_prev; the state x_t, the stream and history (the earlier steps'
    combined estimates, oldest first) the driver hands it; and the sampler's x0_sampled.
    eps and the mixture whitening at (x_t, t_i) are evaluated once, on first read, and
    shared by every stage. obs keeps U^T y and the norms of y from their first read on,
    so obs.y must not be mutated in place after that."""

    def __init__(self, run: RunTables, step: int, x_t: np.ndarray,
                 stream: RngStream | RowStreams, history: list,
                 x0_sampled: np.ndarray | None = None):
        self.run, self.step, self.x_t, self.stream, self.history = run, step, x_t, stream, history
        self.x0_sampled = x0_sampled
        self.prior, self.schedule, self.obs, self.params = (run.prior, run.schedule,
                                                            run.obs, run.params)
        self.t_i, self.t_prev = run.t_i[step], run.t_prev[step]
        _, self.sigma, _, _, _, self.ab, self.ab_prev, _, self.sigma_prev = run.rows[step]
        self._eps = self._whitened = None

    @property
    def whitened(self) -> tuple:
        if self._whitened is None:
            self._whitened = self.prior._resp_and_whitened(self.run.rows[self.step],
                                                           dif._as_batch(self.x_t)[0])
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


def sampler_tweedie(ctx: StepContext) -> np.ndarray:
    """Single-step DDIM (Tweedie) estimate from the step's shared eps."""
    return (ctx.x_t - ctx.sigma * ctx.eps_cached) / math.sqrt(ctx.ab)


def sampler_ddim_chain(ctx: StepContext) -> np.ndarray:
    """Deterministic k_ddim-step DDIM chain from (x_t, t_i) down to 0 (DAPS)."""
    return dif.ddim_run(ctx.prior, ctx.schedule, ctx.x_t, ctx.t_i, ctx.params.daps.k_ddim)


# ---------------------------------------------------------------------------
# Correctors
# ---------------------------------------------------------------------------


def _residual_grad_x0(obs: ops.Observation, x0: np.ndarray) -> np.ndarray:
    """Gradient of ||y - A(x0)||^2 with respect to x0."""
    if obs.is_linear:
        return 2.0 * ops.apply_adjoint(obs.op, ops.apply(obs.op, x0) - obs.y)
    fx = ops.nl_apply(obs.op, x0)
    return 2.0 * ops.nl_vjp(obs.op, x0, fx - obs.y, fx=fx)


def _noisy_branch(ctx: StepContext) -> np.ndarray:
    """DDRM/DDNM spectral coordinates where sigma_{t_prev} < sqrt(ab_prev) sigma_y / s_k."""
    if ctx.obs.sigma_y == 0.0:
        return np.zeros(ctx.obs.op.r, dtype=bool)
    return ctx.sigma_prev < math.sqrt(ctx.ab_prev) * ctx.obs.sigma_y / ctx.obs.op.s


def corr_ddrm(ctx: StepContext) -> np.ndarray:
    """Spectral correction x0 + (lam (U^T y / s - V^T x0)) V^T of DDRM and
    DDNM: lam = eta_b, whose preset 1 is DDNM's null-space projection, and
    the noise-aware scaling in the noisy branch; boundary ties take eta_b."""
    obs, params, x0 = ctx.obs, ctx.params, ctx.x0_sampled
    op = obs.op
    middle = _noisy_branch(ctx)
    lam = np.full(op.r, params.eta_b)
    if np.any(middle):
        lam = np.where(
            middle,
            op.s * ctx.sigma_prev * math.sqrt(max(0.0, 1.0 - params.eta**2))
            / (math.sqrt(ctx.ab_prev) * obs.sigma_y),
            params.eta_b,
        )
    spectral_y = obs.ybar / op.s
    innovation = spectral_y - x0 @ op.V
    return x0 + (lam * innovation) @ op.V.T


def corr_dps(ctx: StepContext) -> np.ndarray:
    """Likelihood-gradient step through the exact denoiser Jacobian."""
    x0 = ctx.x0_sampled
    if ctx.params.zeta == 0.0:
        return x0.copy()
    grad_xt = ctx.x0_vjp(_residual_grad_x0(ctx.obs, x0))
    zeta_t = ctx.params.zeta * math.sqrt(ctx.ab)
    return x0 - (zeta_t / math.sqrt(ctx.ab_prev)) * grad_xt


def corr_pigdm(ctx: StepContext) -> np.ndarray:
    """Pseudoinverse-guided correction with diagonal solve in the U-basis."""
    obs, x0 = ctx.obs, ctx.x0_sampled
    op = obs.op
    r2 = 1.0 - ctx.ab
    if obs.sigma_y == 0.0 and r2 == 0.0:
        raise ConvergenceError("singular solve: sigma_y = 0 and r_t = 0")
    ratio = obs.sigma_y**2 / r2
    resid = obs.y - ops.apply(op, x0)
    # A^T (A A^T + ratio I)^-1 resid, diagonal on the range of U; the
    # U-complement part is annihilated by diag(s) V^T.
    w = (resid @ op.U) * (op.s / (op.s**2 + ratio)) @ op.V.T
    return x0 + math.sqrt(ctx.ab / ctx.ab_prev) * ctx.x0_vjp(w)


def corr_reddiff(ctx: StepContext) -> np.ndarray:
    """Gradient-descent corrector p + xi (x0 - p - lam grad) anchored at the previous
    combined estimate p (x0 at t_S). At the preset xi 1 that is x0 - lam grad up to
    rounding, so the anchor, and with it the LLE history, reaches the output only at xi < 1."""
    params, x0 = ctx.params, ctx.x0_sampled
    p = ctx.history[-1] if ctx.history else x0
    if params.xi == 0.0:
        return np.array(p, copy=True)
    step = x0 - p
    if params.lam != 0.0:
        step = step - params.lam * _residual_grad_x0(ctx.obs, x0)
    return p + params.xi * step


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


def corr_diffpir(ctx: StepContext) -> np.ndarray:
    """Proximal corrector argmin ||y - A(x)||^2 + rho ||x - x0||^2."""
    obs, params, x0 = ctx.obs, ctx.params, ctx.x0_sampled
    rho = params.lam * obs.sigma_y**2 * ctx.ab / (1.0 - ctx.ab)
    if obs.is_linear:
        op = obs.op
        xbar = x0 @ op.V
        ybar = obs.ybar
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
    opt = BatchScheduleFreeAdamW(x0, lr=lr)
    limit = _divergence_limit(loss(x0), obs.y_norm2 + rho * ops.row_dot(x0))
    for step in range(1, params.inner_opt.steps + 1):
        opt.step(grad(opt.eval_point()))
        _guard(loss(opt.params()), limit, step, lr, "DiffPIR inner optimizer")
    return opt.params()


def corr_dmps(ctx: StepContext) -> np.ndarray:
    """Noise-perturbed-likelihood score step in the SVD basis."""
    obs, params, x0 = ctx.obs, ctx.params, ctx.x0_sampled
    op = obs.op
    ab_i, ab_prev = ctx.ab, ctx.ab_prev
    if params.lam == 0.0:
        return x0.copy()
    denom = obs.sigma_y**2 + (1.0 - ab_i) / ab_i * op.s**2
    if np.any(denom == 0.0):
        raise ConvergenceError("singular solve: sigma_y = 0 and alphabar = 1")
    innov = obs.ybar - (ctx.x_t @ op.V) * op.s / math.sqrt(ab_i)
    score_y = ((innov / denom) * op.s) @ op.V.T / math.sqrt(ab_i)
    alpha_i = ab_i / ab_prev
    coef = params.lam * (1.0 - alpha_i) / math.sqrt(alpha_i) / math.sqrt(ab_prev)
    return x0 + coef * score_y


def _descent_table(s: np.ndarray, lr: float, momentum: float, steps: int) -> np.ndarray:
    """P, (steps, r): P[j - 1, k] = e_kj / e_k0 after inner step j of the
    heavy-ball descent on ||s c - ybar||^2, whose error e = s c - ybar and
    scaled velocity u = s vel move per coordinate by u' = momentum u - 2 lr s^2 e,
    e' = e + u', from (e_0, 0). Entries may overflow to inf or NaN."""
    P = np.empty((steps, s.size))
    rate = 2.0 * lr * s * s
    e, u = np.ones_like(s), np.zeros_like(s)
    for j in range(steps):
        u = momentum * u - rate * e
        e = P[j] = e + u
    return P


class DescentTable(NamedTuple):
    """`_descent_table` P of one (s, lr, momentum, steps) with what `corr_resample` reads
    of it: P^2, whether every entry of P^2 is finite, and the final shift (P_n - 1) / s,
    0 where P_n overflows. `build` makes its arrays read-only: one entry serves every
    step of a run."""

    P: np.ndarray
    P2: np.ndarray
    finite: bool
    shift: np.ndarray

    @classmethod
    def build(cls, s: np.ndarray, lr: float, momentum: float, steps: int) -> DescentTable:
        with np.errstate(over="ignore", invalid="ignore"):
            P = _descent_table(s, lr, momentum, steps)
            P2 = P * P
            shift = np.where(np.isfinite(P[-1]), (P[-1] - 1.0) / s, 0.0)
        for a in (P, P2, shift):
            a.flags.writeable = False
        return cls(P, P2, bool(np.isfinite(P2).all()), shift)


def corr_resample(ctx: StepContext) -> np.ndarray:
    """Hard data consistency: argmin ||y - A(x)||^2 from x0 by momentum descent,
    or, with exact_hc (a linear A only), its closed form x0 + A^+ (y - A x0).

    For a linear A = U diag(s) V^T the gradient 2 A^T (A x - y) lies in the
    span of V, so the descent moves only the range coordinates c = V^T x, with
    ||A x - y||^2 = ||s c - U^T y||^2 + ||y - U U^T y||^2. There each
    coordinate's error e = s c - U^T y follows one linear recursion
    (`_descent_table`), so e_kj = P_kj e_k0 with one (steps, r) table P for
    every row: the loss at every inner step is (e_0^2)(P^2)^T + ||y - U U^T y||^2,
    the guard reads it at the first step where any row is bad, and the result
    is x0 + (e_0 (P_n - 1) / s) V. A coordinate whose e_0 is exactly 0 stays
    put, as it does in the loop: it adds 0 to the loss and the result even
    where P overflows. P, P^2 and the shift (P_n - 1) / s do not depend on x:
    the run's first step builds them (`DescentTable`) and keeps them, read-only,
    in the run's `RunTables` for its other steps; U^T y and both norms of y are
    the observation's.
    """
    obs, params, x0 = ctx.obs, ctx.params, ctx.x0_sampled
    opt = params.inner_opt
    if params.exact_hc:
        _need_linear(params, obs)
        return x0 + ops.pinv_apply(obs.op, obs.y - ops.apply(obs.op, x0))
    if opt.steps == 0:
        return x0.copy()
    if not obs.is_linear:
        nlop = obs.op

        def value_and_grad(x):
            fx = ops.nl_apply(nlop, x)
            r = fx - obs.y
            return np.sum(r * r, axis=-1), 2.0 * ops.nl_vjp(nlop, x, r, fx=fx)

        return _momentum_descent(value_and_grad, x0, opt, obs.y_norm2)
    op = obs.op
    e0 = op.s * (x0 @ op.V) - obs.ybar
    limit = _divergence_limit(ops.row_dot(e0) + obs.y_perp_norm2, obs.y_norm2)
    key = ("resample", opt.lr, opt.momentum, opt.steps, op.s.tobytes())
    table = ctx.run.memo(key, lambda: DescentTable.build(op.s, opt.lr, opt.momentum, opt.steps))
    with np.errstate(over="ignore", invalid="ignore"):
        if table.finite:
            loss = e0 * e0 @ table.P2.T
        else:  # 0 * inf is NaN, where the loop keeps a coordinate at exactly 0
            e = np.where(e0[..., None, :] == 0.0, 0.0, e0[..., None, :] * table.P)
            loss = np.sum(e * e, axis=-1)
        loss += obs.y_perp_norm2[..., None]
        bad = ~np.isfinite(loss) | (loss > limit[..., None])
        if bad.any():
            step = int(np.argmax(bad.reshape(-1, opt.steps).any(axis=0)))
            _guard(loss[..., step], limit, step + 1, opt.lr, "inner optimizer")
    # past the guard, P_n overflows only where every row's e_0 is 0
    return x0 + (e0 * table.shift) @ op.V.T


def daps_step_size(daps: DAPSParams, t: int, T: int) -> float:
    """Annealed Langevin step eta_t = eta0 * (delta + (t/T)(1 - delta))."""
    return daps.eta0 * (daps.delta + (t / T) * (1.0 - daps.delta))


# Langevin iterations per noise draw of DAPS on a nonlinear operator: part of
# its determinism contract
_LANGEVIN_BLOCK = 10


def _geometric_sums(f: np.ndarray, n: int):
    """(f^n, sum_{j<n} f^j, sqrt(sum_{j<n} f^(2j))) elementwise, by binary
    doubling in O(log n) vector operations. The root sum is accumulated with
    hypot, so no intermediate exceeds |f|^n where a sum of squares would
    reach f^(2n)."""
    power, total, root = np.ones_like(f), np.zeros_like(f), np.zeros_like(f)  # n = 0
    step_power, step_total, step_root = f, np.ones_like(f), np.ones_like(f)  # 1 step
    while True:
        if n & 1:  # append the 2^k-step block to the steps taken so far
            total = total + power * step_total
            root = np.hypot(root, power * step_root)
            power = power * step_power
        n >>= 1
        if not n:
            return power, total, root
        step_total = step_total * (1.0 + step_power)
        step_root = step_root * np.hypot(1.0, step_power)
        step_power = step_power * step_power


def _daps_rows(daps: DAPSParams, sigma: float, s: np.ndarray, run: RunTables, T: int) -> list:
    """The factors of the linear DAPS chain's n-step law (see `corr_daps`) at each step
    t_i of a run, its alphabar ab read from the run's rows: sqrt(2 eta_t), the null
    space's anchor and noise factors, and per range coordinate (r,) the anchor's and the
    noise's factors less the null space's, and U^T y's. `_geometric_sums` runs once, on
    the (S, r + 1) stack of every step's factors; every operation is elementwise, so row
    i holds the bits of the one-step form at (t_i, ab)."""
    eta = daps_step_size(daps, np.asarray(run.t_i), T)
    ab = np.array([row[5] for row in run.rows])
    pull = eta / (1.0 - ab)
    a = (1.0 - pull)[:, None]
    # the noiseless data term is (1/(2 eta_t)) ||A x - y||^2, so eta_t w = 1
    eta_w = (np.ones_like(eta) if daps.noiseless_linear else eta / sigma**2)[:, None]
    # one factor per range coordinate, then the null space's a
    power, total, root = _geometric_sums(np.hstack([a - eta_w * s**2, a]), daps.n_langevin)
    # anchor's factor M^n + pull sum M^j; A^T y lies in the range, so the
    # null space's large sum_{j<n} a^j never multiplies it
    keep = power + pull[:, None] * total
    return list(dif._rows((np.sqrt(2.0 * eta), keep[:, -1], root[:, -1],
                           keep[:, :-1] - keep[:, -1:], eta_w * s * total[:, :-1],
                           root[:, :-1] - root[:, -1:])))


def corr_daps(ctx: StepContext) -> np.ndarray:
    """Langevin chain targeting the anchored posterior around x_{0,t_i}.

    Each step is x <- drift(x) + sqrt(2 eta_t) xi with the gradient drift
    x - eta_t ((x - anchor) / r^2 + w A^T (A x - y)), w = 1/sigma^2 (1/eta_t
    for the noiseless-linear variant). For a linear A = U diag(s) V^T that
    drift is affine, x M + g with M = a I - eta_t w V diag(s^2) V^T,
    a = 1 - eta_t/r^2, and g = (eta_t/r^2) anchor + eta_t w A^T y. M is
    diagonal in V coordinates (factor a - eta_t w s_k^2 on range coordinate
    k, a on the null space), so the n = n_langevin step chain is one AR(1)
    recursion per coordinate and its result is drawn exactly:
    anchor M^n + g sum_{j<n} M^j + sqrt(2 eta_t) xi (sum_{j<n} M^(2j))^(1/2).
    Those factors do not depend on x: the step's first call builds them for every
    step of the run at once (`_daps_rows`) and keeps them in the run's `RunTables`.

    Determinism contract: on a linear operator xi is one ``standard_normal``
    draw shaped like the anchor, so a call advances each row's counter once
    (not at all when n_langevin is 0). On a nonlinear operator the noise of
    iterations 10b .. 10b + 9 is one ``standard_normal_block`` draw of
    `_LANGEVIN_BLOCK` = 10 iterations (the last block holds n_langevin mod 10
    when that is not 0), and iteration j adds entry j mod 10; a call advances
    each row's counter ceil(n_langevin / 10) times, and its noise takes memory
    of the order of one N * 10 * d block, whatever n_langevin is. Changing
    either rule changes DAPS outputs. Row i of a `RowStreams` batch reads its
    numbers in the order a one-row run with its own `RngStream` does, so the
    two stay bit-identical.
    """
    obs, params, anchor = ctx.obs, ctx.params, ctx.x0_sampled
    daps = params.daps
    if daps.n_langevin == 0:
        return np.array(anchor, copy=True)
    sigma = daps.sigma_langevin
    if sigma is None:
        sigma = max(obs.sigma_y, 0.02)
    _need_linear(params, obs)
    if obs.is_linear:
        op, run = obs.op, ctx.run
        key = ("daps", daps.eta0, daps.delta, daps.n_langevin, daps.noiseless_linear, sigma,
               op.s.tobytes())
        rows = run.memo(key, lambda: _daps_rows(daps, sigma, op.s, run, ctx.schedule.T))
        noise_scale, keep_null, root_null, keep, y_gain, root = rows[ctx.step]
        xi = noise_scale * ctx.stream.standard_normal(anchor.shape)
        coords = (anchor @ op.V) * keep + obs.ybar * y_gain + (xi @ op.V) * root
        return keep_null * anchor + root_null * xi + coords @ op.V.T
    eta_t = daps_step_size(daps, ctx.t_i, ctx.schedule.T)
    r2 = 1.0 - ctx.ab
    noise_scale = math.sqrt(2.0 * eta_t)

    def drift(x):
        grad = (x - anchor) / r2
        data_grad = 0.5 * _residual_grad_x0(obs, x) / sigma**2
        return x - eta_t * (grad + data_grad)

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
# Noisers: every one takes (ctx, xhat)
# ---------------------------------------------------------------------------


def _ddim_noise(ctx: StepContext, xhat: np.ndarray, c1: float, c2: float, eps=None) -> np.ndarray:
    """The DDIM update sqrt(ab_prev) xhat + c2 eps + c1 z, z fresh noise; eps
    defaults to eps_theta(x_t, t_i)."""
    out = math.sqrt(ctx.ab_prev) * xhat
    if c2 != 0.0:
        out = out + c2 * (ctx.eps_cached if eps is None else eps)
    if c1 != 0.0:
        out = out + c1 * ctx.stream.standard_normal(xhat.shape)
    return out


def noiser_ddim(ctx: StepContext, xhat) -> np.ndarray:
    """DDIM noiser with the schedule's (c1, c2) for params.eta:
    c1 = eta sqrt(1 - ab_i/ab_prev) sqrt((1 - ab_prev)/(1 - ab_i)) and
    c2 = sqrt(1 - ab_prev - c1^2), so c1^2 + c2^2 = 1 - ab_prev."""
    ab_i, ab_prev = ctx.ab, ctx.ab_prev
    c1 = (ctx.params.eta * math.sqrt(max(0.0, 1.0 - ab_i / ab_prev))
          * math.sqrt((1.0 - ab_prev) / (1.0 - ab_i)))
    rad = 1.0 - ab_prev - c1 * c1
    if rad < -1e-12:
        raise FloatingPointError(f"negative c2 radicand {rad} at ({ctx.t_i},{ctx.t_prev})")
    return _ddim_noise(ctx, xhat, c1, math.sqrt(max(0.0, rad)))


def noiser_dmps(ctx: StepContext, xhat) -> np.ndarray:
    """DMPS split: c1 = eta sigma_prev, c2 = sqrt(1 - eta^2) sigma_prev."""
    eta, sig_prev = ctx.params.eta, ctx.sigma_prev
    return _ddim_noise(ctx, xhat, eta * sig_prev, math.sqrt(1.0 - eta * eta) * sig_prev)


def noiser_direct(ctx: StepContext, xhat) -> np.ndarray:
    """sqrt(ab_prev) xhat + sigma_prev z: the DMPS split at eta = 1."""
    return _ddim_noise(ctx, xhat, ctx.sigma_prev, 0.0)


def noiser_diffpir(ctx: StepContext, xhat) -> np.ndarray:
    """DDIM update with the effective eps = x_t - sqrt(ab_i) xhat recomputed
    from xhat: c1 = eta sigma_prev, c2 = sqrt(1 - eta^2) sigma_prev / sigma_i."""
    eta, sig_prev = ctx.params.eta, ctx.sigma_prev
    c2 = math.sqrt(1.0 - eta * eta) * (sig_prev / ctx.sigma)
    eps = ctx.x_t - math.sqrt(ctx.ab) * xhat
    return _ddim_noise(ctx, xhat, eta * sig_prev, c2, eps)


def noiser_resample(ctx: StepContext, xhat) -> np.ndarray:
    """Stochastic encode of the sampler output (the DDIM noiser), then
    posterior blend toward xhat."""
    ab_prev, ab_i = ctx.ab_prev, ctx.ab
    x_prime = noiser_ddim(ctx, ctx.x0_sampled)
    # sigma_rs^2 = gamma * sig_prev2 * (1 - ab_i/ab_prev) / ab_i; factoring out
    # sig_prev2 = 1 - ab_prev keeps the t_prev = 0 endpoint well-defined.
    g = ctx.params.gamma_rs * (1.0 - ab_i / ab_prev) / ab_i
    if g == 0.0:
        return x_prime
    w_hat = g / (g + 1.0)
    blend = w_hat * math.sqrt(ab_prev) * xhat + (1.0 - w_hat) * x_prime
    std = math.sqrt((1.0 - ab_prev) * w_hat)
    if std != 0.0:
        blend = blend + std * ctx.stream.standard_normal(xhat.shape)
    return blend


def noiser_ddrm(ctx: StepContext, xhat) -> np.ndarray:
    """Three-branch coordinatewise noiser of DDRM and DDNM in the V-basis:
    DDIM on the null space, eta sigma_prev fresh noise in the noisy branch,
    and elsewhere the range variance sigma_prev^2 - sigma_y^2 eta_b^2 ab_prev / s^2."""
    obs, params, sig_prev = ctx.obs, ctx.params, ctx.sigma_prev
    op, eta = obs.op, params.eta
    middle = _noisy_branch(ctx)
    rad = sig_prev**2 - obs.sigma_y**2 * params.eta_b**2 * ctx.ab_prev / op.s**2
    rad = np.where(middle, 0.0, rad)
    if np.any(rad < -1e-12):
        raise ConfigError(
            f"{params.algorithm} noiser radicand is negative; check sigma_y and eta_b"
        )
    eps = ctx.stream.standard_normal(xhat.shape)
    sqrt_ab = math.sqrt(ctx.ab_prev)
    # V^T xhat and V^T eps serve the range coordinates and the null projections
    # x - (x V) V^T, which `ops.project` computes the same way
    xbar = xhat @ op.V
    ebar = eps @ op.V
    # null-space branch (s_k = 0): deterministic eps_theta share plus fresh noise
    null_xhat = xhat - xbar @ op.V.T
    null_eps_theta = ops.project(op, ctx.eps_cached, "null")
    null_eps = eps - ebar @ op.V.T
    out_null = (
        sqrt_ab * null_xhat
        + math.sqrt(max(0.0, 1.0 - eta * eta)) * sig_prev * null_eps_theta
        + eta * sig_prev * null_eps
    )
    # range coordinates: per-k standard deviation by branch
    std = np.where(middle, np.full(op.r, eta * sig_prev), np.sqrt(np.clip(rad, 0.0, None)))
    out_range = (sqrt_ab * xbar + std * ebar) @ op.V.T
    return out_null + out_range


# ---------------------------------------------------------------------------
# The solver table
# ---------------------------------------------------------------------------


class Solver(NamedTuple):
    """One algorithm's canonical form, every stage reading the step's `StepContext`:
    x0 = sampler(ctx), xhat = corrector(ctx), x_{t_prev} = noiser(ctx, xhat).
    preset lists every `algorithm` key the three read at its preset value ({}: a
    whole block at its defaults); linear: True when it always needs a linear
    operator, or the key path of the bool that makes it need one (see
    `AlgoParams.linear_need`); noisy_gt: its corrector defines the noisy
    training target (lle.noisy_gt); unread_when: its `unread_when` table, whose switches are
    `algorithm` keys or the task's "task.operator" ("linear"/"nonlinear") and "task.sigma_y"."""

    sampler: Callable
    corrector: Callable
    noiser: Callable
    preset: dict
    linear: bool | str = False
    noisy_gt: bool = False
    unread_when: dict = {}


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
                      {"eta": 1.0, "lam": 7.0, "inner_opt": {"lr": 0.1, "steps": 50}},
                      unread_when={("task.operator", "linear"): ("inner_opt",),
                                   ("inner_opt.steps", 0): ("lam",),
                                   ("task.sigma_y", 0): ("lam",)}),
    "DMPS": Solver(sampler_tweedie, corr_dmps, noiser_dmps, {"eta": 0.85, "lam": 1.0},
                   linear=True),
    "ReSample": Solver(sampler_tweedie, corr_resample, noiser_resample,
                       {"eta": 1.0, "gamma_rs": 100.0, "exact_hc": False, "inner_opt": {}},
                       linear="exact_hc"),
    "DAPS": Solver(sampler_ddim_chain, corr_daps, noiser_direct, {"daps": {}},
                   linear="daps.noiseless_linear"),
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
    daps: DAPSParams
    inner_opt: InnerOptParams
    unread_when = {("exact_hc", True): ("inner_opt",), ("xi", 0): ("lam",)}

    def _reject_unread(self, given: dict) -> None:
        """A key the named solver does not read is an error, before any switch's rule."""
        for path in _unread(given, {"name": None, **SOLVERS[self.algorithm].preset}):
            raise ConfigError(f"{path} is not read by {self.algorithm}")
        super()._reject_unread(given)

    def to_dict(self) -> dict:
        """`ConfigBlock.to_dict` without the keys the named solver does not read (`_unread`)."""
        out = super().to_dict()
        for path in list(_unread(out, {"name": None, **SOLVERS[self.algorithm].preset}, "")):
            block, _, key = path.rpartition(".")
            del (out[block] if block else out)[key]
        return out

    def linear_need(self) -> str | None:
        """What makes these params need a linear operator (the solver's `linear`), or None."""
        linear = SOLVERS[self.algorithm].linear
        if linear is True:
            return f"{self._path('name')} {self.algorithm}"
        return self._path(linear) if linear and operator.attrgetter(linear)(self) else None


def _need_linear(params: AlgoParams, obs: ops.Observation) -> None:
    """Raise ConfigError when params need a linear operator and obs has another."""
    if (need := params.linear_need()) and not obs.is_linear:
        raise ConfigError(f"{need} needs a linear operator")


def default_params(algorithm: str) -> AlgoParams:
    """The algorithm's preset, mirroring the standard tuned settings; a fresh
    object on every call."""
    return AlgoParams.from_dict({"name": algorithm, **SOLVERS[algorithm].preset})


def sample_phi(ctx: StepContext) -> np.ndarray:
    """Denoised estimate x_{0,t_i} by the algorithm's sampler, kept on ctx."""
    ctx.x0_sampled = SOLVERS[ctx.params.algorithm].sampler(ctx)
    return ctx.x0_sampled


def apply_noiser(ctx: StepContext, xhat: np.ndarray) -> np.ndarray:
    """x_{t_prev} from the (combined) estimate by the algorithm's noiser."""
    return SOLVERS[ctx.params.algorithm].noiser(ctx, xhat)


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
    (N, 1, m) gives (N, 1, d). combiner(ctx, xhat) may replace the corrected
    estimate before the noiser; ctx is the `StepContext` of step ctx.step of
    the run, and ctx.history holds the combiner outputs of earlier steps (oldest first).
    Returns the final estimate at t_1 (identical to x_{t_0} for the
    DDIM-family noisers since alphabar_0 = 1).
    Params that need a linear operator (`AlgoParams.linear_need`) raise
    ConfigError on a nonlinear one here, before the first draw; an estimate
    that is not finite raises ConvergenceError naming its step and rows.

    What does not depend on the state x is built once per call, not per step:
    the run's `RunTables` (its inputs, and the mixture's constants and the schedule
    quantities of every step, from one vectorized `prior._constants` call) before the
    first draw, a solver's own per-step tables (DAPS's n-step factors) on the first
    step that reads them, and U^T y and the norms of y on obs, on first read
    (`ops.Observation`), so obs.y must not be mutated in place during the run.

    Determinism: every product and reduction runs over the last two axes
    (a (B, m) batch is one matrix product), so an (N, 1, m) batch, drawn from
    a `RowStreams` of one `RngStream` per row, gives row i bit for bit what
    a one-row run with (m,) y[i, 0] and row i's stream gives. A (B, m)
    batch, as training uses, does not have that property.
    """
    _need_linear(params, obs)
    run = RunTables(prior, schedule, grid.timesteps, obs, params)
    x = stream.standard_normal(obs.y.shape[:-1] + (prior.d,))
    history: list[np.ndarray] = []
    for step in range(grid.S):
        ctx = StepContext(run, step, x, stream, history)
        sample_phi(ctx)
        xhat = CORRECTORS[params.algorithm](ctx)
        est = combiner(ctx, xhat) if combiner is not None else xhat
        if not np.isfinite(est).all():
            rows = np.flatnonzero(~np.isfinite(est).all(axis=-1)).tolist()
            raise ConvergenceError(f"{params.algorithm}'s estimate at t_i = {ctx.t_i} is not"
                                   f" finite in row(s) {rows}")
        history.append(est)
        x = apply_noiser(ctx, est)
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
