"""Experiment configuration, closed-form posterior oracle, metrics, and sweeps.

Each block of a JSON config is a `config.ConfigBlock`, and `load_config`
builds them all, with the prior and the operator, before anything runs: a
bad key or value is a `ConfigError` naming its dotted path (`schedule.T`).

`oracle_posterior` solves every observation of a batch at once, so
`lle eval --oracle` is one batched solve over the held-out set.
"""

from __future__ import annotations

import io
import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from . import canonical as canon
from . import diffusion as dif
from . import extrapolation as lle
from . import operators as ops
from .config import SQRT_FLOAT_MAX, ConfigBlock, read_json, reject_unread, rule
from .errors import ConfigError
from .numerics import RngStream, RowStreams, mse, psnr_of_mse


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class SeededPrior(ConfigBlock):
    block = "prior"
    dim: int = rule(minimum=1)
    components: int = rule(minimum=1)
    seed: int = rule(0)


class InlinePrior(ConfigBlock):
    block = "prior"  # also the whole of a prior.file, as `gen-prior` writes it
    weights: list[float] = rule()
    means: list[list[float]] = rule()
    covariances: list[list[list[float]]] = rule()


class PriorFile(ConfigBlock):
    block = "prior"
    file: str = rule()  # relative to the config file


class OperatorSpec(ConfigBlock):
    """Every operator key; None is not given. Its kind's `ops.OPERATORS` entry
    decides which keys it reads, and their defaults."""

    block = "task.operator"
    kind: str = rule(choices=tuple(ops.OPERATORS))
    keep_indices: list[int] | None = rule(None, optional=True)
    keep_ratio: float | None = rule(None, above=0.0, maximum=1.0, optional=True)
    seed: int | None = rule(None, optional=True)
    factor: int | None = rule(None, minimum=1, optional=True)
    kernel: list[float] | None = rule(None, optional=True)
    sigma: float | None = rule(None, above=0.0, optional=True)
    width: int | None = rule(None, minimum=1, optional=True)
    matrix: list[list[float]] | None = rule(None, optional=True)
    scale: float | None = rule(None, above=0.0, optional=True)

    def _reject_unread(self, given: dict) -> None:
        """A given key, a given null too, must be read by the form of the kind that the given
        keys select; a null means the default only for a key the form reads with one."""
        forms = ops.OPERATORS[self.kind]
        for key in sorted(set(given) - {"kind"} - {k for s in forms for k in (s, *forms[s][0])}):
            raise ConfigError(f"operator kind {self.kind!r} takes no key {self._path(key)}")
        picked = [key for key in forms if key in given] or [key for key in forms if key is None]
        if len(picked) != 1:
            paths = ", ".join(map(self._path, forms))
            raise ConfigError(f"operator kind {self.kind!r} needs exactly one of {paths}")
        select = picked[0]
        for key in sorted(set(given) - {"kind", select, *forms[select][0]}):
            raise ConfigError(f"{self._path(key)} is not read when {self._path(select)} is given")
        if select and given[select] is None:
            raise ConfigError(f"{self._path(select)} has no default, so it may not be null")


class TaskSpec(ConfigBlock):
    block = "task"
    operator: OperatorSpec = rule()
    sigma_y: float = rule(0.0, minimum=0.0, maximum=SQRT_FLOAT_MAX)  # squared as a Python float


class ScheduleSpec(ConfigBlock):
    block = "schedule"
    T: int = rule(1000, minimum=1, maximum=100_000)  # the alphabar table: 8 (T + 1) bytes
    beta_start: float = rule(1e-4, above=0.0, below=1.0)
    beta_end: float = rule(0.02, above=0.0, below=1.0)


class SeedsSpec(ConfigBlock):
    block = "seeds"
    train: int = rule(1)
    test: int = rule(2)


class ConfigFile(ConfigBlock):
    """The top level; `load_config` builds prior, algorithm and lle."""

    prior: dict = rule()  # a SeededPrior, InlinePrior or PriorFile
    task: TaskSpec = rule()
    algorithm: dict = rule()  # a canonical.AlgoParams over default_params(name)
    schedule: ScheduleSpec
    seeds: SeedsSpec
    steps: int = rule(3, minimum=1)
    n_test: int = rule(10, minimum=1)
    peak: float = rule(2.0, above=0.0)
    lle: object = rule(None)  # an extrapolation.TrainConfig, "none" or null


@dataclass(repr=False, eq=False)
class ExperimentConfig:
    prior: dif.GaussianMixturePrior
    schedule: dif.DiffusionSchedule
    op: object  # ops.LinearOperator or ops.NonlinearOperator, built at load
    sigma_y: float
    params: canon.AlgoParams
    grid: dif.TimeGrid  # built once, at load
    train_config: lle.TrainConfig | None  # its base_seed: seeds.train unless lle sets it
    test_seed: int
    n_test: int
    peak: float

    @property
    def steps(self) -> int:
        return self.grid.S


def random_prior(dim: int, components: int, seed: int) -> dif.GaussianMixturePrior:
    """Seeded random mixture: spread means, random SPD covariances."""
    stream = RngStream(seed, stream_id=801)
    means = 1.5 * stream.standard_normal((components, dim))
    covs = np.empty((components, dim, dim))
    for k in range(components):
        W = stream.standard_normal((dim, dim)) / math.sqrt(dim)
        covs[k] = 0.25 * (W @ W.T) + 0.1 * np.eye(dim)
    w = stream.uniform(components) + 0.5
    w /= w.sum()
    return dif.GaussianMixturePrior(w, means, covs)


def _built(path: str, build, *args):
    """build(*args); a ValueError it raises is a ConfigError naming path, or a key under it."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(exc if str(exc).startswith(path + ".") else f"{path}: {exc}") from exc


def _load_prior(spec: dict, config_dir: str) -> dif.GaussianMixturePrior:
    if "file" in spec:  # an inline prior block in a file of its own
        where, path = "prior.file", os.path.join(config_dir, PriorFile.from_dict(spec).file)
        p = _built(where, lambda: InlinePrior.from_dict(read_json(path)))
    elif "weights" in spec:
        where, p = "prior", InlinePrior.from_dict(spec)
    else:
        p = SeededPrior.from_dict(spec)
        return random_prior(p.dim, p.components, p.seed)
    return _built(where, dif.GaussianMixturePrior, p.weights, p.means, p.covariances)


def load_config(path) -> ExperimentConfig:
    raw = read_json(path)
    top = ConfigFile.from_dict(raw)
    prior = _load_prior(top.prior, os.path.dirname(os.path.abspath(path)))
    op = _built("task.operator", ops.build_operator, prior.d, vars(top.task.operator))
    if getattr(op, "n", prior.d) != prior.d:
        raise ConfigError(f"task.operator acts on size {op.n}, the prior on size {prior.d}")
    spec, given = top.task.operator, raw["task"]["operator"]  # a given null is given
    if "seed" in given and spec.keep_ratio is not None and op.m == op.n:  # keeps all, any seed
        raise ConfigError(f"task.operator.seed is not read when task.operator.keep_ratio"
                          f" {spec.keep_ratio} keeps all {op.n} coordinates")
    sched = top.schedule
    schedule = dif.linear_beta_schedule(sched.T, sched.beta_start, sched.beta_end)
    if not schedule.alphabar(sched.T) > 0.0:  # the sampler divides by sqrt(alphabar_t)
        raise ConfigError("schedule.beta_end is too large: alphabar_T underflows to 0")
    if not schedule.alphabar(1) < 1.0:  # noiser_ddim divides by 1 - alphabar_t
        raise ConfigError("schedule.beta_start is too small: alphabar_1 rounds to 1")
    grid = _built("steps", dif.make_time_grid, schedule, top.steps)
    name = top.algorithm.get("name")
    preset = canon.default_params(name) if name in canon.ALGORITHMS else None
    params = canon.AlgoParams.from_dict(top.algorithm, preset)
    linear = isinstance(op, ops.LinearOperator)
    task = {"task.operator": "linear" if linear else "nonlinear", "task.sigma_y": top.task.sigma_y}
    reject_unread(canon.SOLVERS[params.algorithm].unread_when, top.algorithm,
                        lambda k: task[k] if k in task else operator.attrgetter(k)(params),
                        lambda k: k if k in task else f"algorithm.{k}", f" by {params.algorithm}")
    k_ddim = params.daps.k_ddim  # DAPS's DDIM chain, like the reference chain, has <= T steps
    if "daps" in canon.SOLVERS[params.algorithm].preset and k_ddim > sched.T:
        raise ConfigError(f"algorithm.daps.k_ddim must be <= schedule.T ({sched.T}), got {k_ddim}")
    if (need := params.linear_need()) and not linear:
        raise ConfigError(f"{need} needs a linear operator, not task.operator.kind 'nonlinear'")
    train_config = None
    if top.lle not in (None, "none"):
        base = lle.TrainConfig(base_seed=top.seeds.train)
        train_config = lle.TrainConfig.from_dict(top.lle, base)
        if train_config.ref_steps > sched.T:  # the reference chain has at most T steps
            raise ConfigError(f"lle.ref_steps must be <= schedule.T ({sched.T}),"
                              f" got {train_config.ref_steps}")
        if train_config.noisy_gt and not canon.SOLVERS[params.algorithm].noisy_gt:
            allowed = " and ".join(n for n, s in canon.SOLVERS.items() if s.noisy_gt)
            raise ConfigError(f"lle.noisy_gt needs {allowed}, not {params.algorithm}")
        if train_config.decoupled and not linear:
            raise ConfigError("lle.decoupled needs a linear operator, not 'nonlinear'")
    return ExperimentConfig(prior=prior, schedule=schedule, op=op, sigma_y=top.task.sigma_y,
                            params=params, grid=grid, train_config=train_config,
                            test_seed=top.seeds.test, n_test=top.n_test, peak=top.peak)


# ---------------------------------------------------------------------------
# closed-form posterior oracle
# ---------------------------------------------------------------------------


def oracle_posterior(prior: dif.GaussianMixturePrior, op: ops.LinearOperator, y, sigma_y: float):
    """Exact conjugate posterior of a GMM prior under y = A x + sigma_y n, for
    every row of y (..., m) in one solve, in the operator's SVD A = U diag(s) V^T.

    It conditions on z = U^T y, which observes B x (B = diag(s) V^T) plus
    N(0, sigma_y^2 I_r) noise: the part of y outside range(U) has the same
    likelihood under every component, so the means and weights do not read it.
    Per component, S = B Sigma_k B^T + sigma_y^2 I_r is positive definite even
    at sigma_y = 0, so the noiseless posterior is exact; its one Cholesky factor
    gives the log determinant, the whitened innovation and the mean
    mu_k + Sigma_k B^T S^-1 (z - B mu_k), shared by every row.
    Returns (posterior means (..., d), component weights (..., K)).
    A y whose last axis is not m, or a sigma_y that is not a finite number
    >= 0, is a ValueError; a nonlinear operator has no conjugate posterior,
    which is a ConfigError.
    """
    if not isinstance(op, ops.LinearOperator):
        raise ConfigError("the posterior oracle needs a linear operator,"
                          " not task.operator.kind 'nonlinear'")
    ops.check_sigma_y(sigma_y)
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != op.m:
        raise ValueError(f"expected last dim {op.m}, got {y.shape[-1]}")
    z = y.reshape(-1, op.m) @ op.U
    B = op.s[:, None] * op.V.T
    logw = np.empty((z.shape[0], prior.K))
    means = np.empty((z.shape[0], prior.K, prior.d))
    for k in range(prior.K):
        mu, SBt = prior.means[k], prior.covariances[k] @ B.T
        L = np.linalg.cholesky(B @ SBt + sigma_y**2 * np.eye(op.r))
        white = np.linalg.solve(L, (z - B @ mu).T)  # (r, N)
        logw[:, k] = (math.log(prior.weights[k]) - np.sum(np.log(np.diag(L)))
                      - 0.5 * np.einsum("rn,rn->n", white, white))
        means[:, k] = mu + (SBt @ np.linalg.solve(L.T, white)).T
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mean = np.einsum("nk,nkd->nd", w, means)
    return mean.reshape(y.shape[:-1] + (prior.d,)), w.reshape(y.shape[:-1] + (prior.K,))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(
    recon_batch: np.ndarray,
    truth_batch: np.ndarray,
    config: ExperimentConfig,
    oracle_means: np.ndarray | None = None,
) -> dict:
    """Each row's "mse", "psnr" (dB at config.peak, +inf where a row equals its truth) and
    "oracle_mse" (None without oracle means): columns of Python floats from one vectorized
    pass, bit for bit `numerics.mse` and `numerics.psnr` of each row."""
    recon = np.atleast_2d(recon_batch)
    truth = np.atleast_2d(truth_batch)
    if recon.shape != truth.shape:
        raise ConfigError(f"batch shapes differ: {recon.shape} vs {truth.shape}")
    oracle = None if oracle_means is None else np.atleast_2d(oracle_means)
    if oracle is not None and oracle.shape != recon.shape:
        raise ConfigError(f"the oracle means of the config's held-out batch have shape"
                          f" {oracle.shape}, the reconstructions {recon.shape}")
    err = np.mean((recon - truth) ** 2, axis=-1).tolist()
    o = None if oracle is None else np.mean((recon - oracle) ** 2, axis=-1).tolist()
    return {"mse": err, "psnr": [psnr_of_mse(e, config.peak) for e in err], "oracle_mse": o}


def metrics_csv(columns: dict) -> str:
    """`evaluate`'s columns as CSV, one line per row, each number %.12g (a PSNR of +inf
    is written inf); the oracle_mse field is empty without oracle means."""
    oracle = columns["oracle_mse"]
    buf = io.StringIO()
    buf.write("sample,mse,psnr,oracle_mse\n")
    for i, (m, p) in enumerate(zip(columns["mse"], columns["psnr"])):
        o = "" if oracle is None else f"{oracle[i]:.12g}"
        buf.write(f"{i},{m:.12g},{p:.12g},{o}\n")
    return buf.getvalue()


def make_test_batch(config: ExperimentConfig):
    """Held-out truth/observation pairs from the test seed (fresh prior draws)."""
    stream = RngStream(config.test_seed, stream_id=21)
    truths = config.prior.sample(stream, config.n_test)
    op = config.op
    noise_stream = RngStream(config.test_seed, stream_id=22)
    ys = ops.observe(op, truths, config.sigma_y, noise_stream)
    return truths, ys, op


def _row_streams(seed: int, n: int) -> RowStreams:
    """Row i's noise tape: `RngStream(seed, 1000 + i)`."""
    return RowStreams(RngStream(seed, stream_id=1000 + i) for i in range(n))


def run_experiment(config: ExperimentConfig, seed: int, coeffs=None, batch=None):
    """Reconstruct the held-out batch with the base algorithm (coeffs None) or with
    coefficients; returns (reconstructions, truths).

    batch: `make_test_batch(config)`, if already made (see `sweep`).
    One driver call runs all n_test rows as an (N, 1, d) batch with
    `RngStream(seed, 1000 + i)` for row i, so row i equals, bit for bit, a
    one-row `canonical.run` (or `lle.infer`) on ys[i] with that stream.
    """
    truths, ys, op = make_test_batch(config) if batch is None else batch
    obs = ops.Observation(y=ys[:, None, :], op=op, sigma_y=config.sigma_y)
    recons = lle.infer(config.params, config.prior, config.schedule, obs, config.grid, coeffs,
                       seed, stream=_row_streams(seed, len(ys)))
    return recons[:, 0], truths


class _TwinRows:
    """The noise of a joint run on [ys; ys]: a draw of shape (2N, ...) reads
    the (N, ...) values of N row tapes once, and rows i and N + i both get row
    i's, which is what each half's lone N-row run reads."""

    def __init__(self, rows: RowStreams):
        self.rows = rows

    def standard_normal(self, shape) -> np.ndarray:
        half = self.rows.standard_normal((shape[0] // 2,) + tuple(shape[1:]))
        return np.concatenate([half, half])

    def standard_normal_block(self, count: int, shape) -> np.ndarray:
        half = self.rows.standard_normal_block(count, (shape[0] // 2,) + tuple(shape[1:]))
        return np.concatenate([half, half], axis=1)


def _run_base_and_lle(config: ExperimentConfig, seed: int, coeffs: lle.LLECoefficients, batch):
    """(base reconstructions, LLE reconstructions) of the held-out batch from one
    driver call on the (2N, 1, m) batch [ys; ys], bit for bit the two
    `run_experiment` calls it stands for.

    Rows [:N] keep the corrector's estimate; rows [N:] are `lle.combine`d from
    their own history, with coeffs trained on the config's grid. Every row is
    computed on its own (see `canonical.run_with_combiner`), and a `_TwinRows`
    hands both halves row i's tape, so each half reads what it reads alone.
    """
    _, ys, op = batch
    n = len(ys)
    obs = ops.Observation(y=np.concatenate([ys, ys])[:, None, :], op=op, sigma_y=config.sigma_y)
    theta, linear = coeffs.theta, op if obs.is_linear else None

    def combiner(ctx, xhat):
        combined = lle.combine(theta[ctx.step], [h[n:] for h in ctx.history], xhat[n:], linear,
                               coeffs.decoupled)
        return np.concatenate([xhat[:n], combined])

    recons = canon.run_with_combiner(config.params, config.prior, config.schedule, obs,
                                     config.grid, _TwinRows(_row_streams(seed, n)), combiner)
    return recons[:n, 0], recons[n:, 0]


def _outcome(make, *args):
    """make(*args), or the exception it raised."""
    try:
        return make(*args)
    except Exception as exc:  # the caller turns it into error rows
        return exc


def train_lle(config: ExperimentConfig, refs=None):
    """Train coefficients for this configuration; returns (coeffs, traces).

    refs: the reference batch, if already generated (see `sweep`).
    """
    if config.train_config is None:
        raise ConfigError("configuration has no LLE training block")
    return lle.train(config.params, config.prior, config.schedule, config.op, config.sigma_y,
                     config.grid, config.train_config, refs=refs)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_cell(config: ExperimentConfig, grid: dif.TimeGrid, refs=None, batch=None):
    """The base and LLE rows for one step count, run on its grid.

    refs is the sweep's shared reference batch, and batch its held-out batch
    (`make_test_batch`, made here when None); either may be the exception
    that making it raised, which turns the rows that need it into error rows.
    With no training block the LLE row is the base solver's (identity
    coefficients), so the base run is made once and written as both rows.
    With trained coefficients both strategies run as one driver call
    (`_run_base_and_lle`). If that call raises, each strategy reruns alone,
    so an LLE half that diverges still leaves its base row.
    """
    algo, S = config.params.algorithm, grid.S
    config = replace(config, grid=grid)
    if batch is None:
        batch = _outcome(make_test_batch, config)

    def row(strategy, recon, truths):
        mean_psnr = float(np.mean(evaluate(recon, truths, config)["psnr"]))
        return algo, S, strategy, mse(recon, truths), mean_psnr

    def alone(strategy, coeffs):
        try:
            for made in (coeffs, batch):
                if isinstance(made, Exception):
                    raise made
            return row(strategy, *run_experiment(config, config.test_seed, coeffs, batch))
        except Exception as exc:  # cell failure must not abort the sweep
            return algo, S, strategy, "error", f"error:{type(exc).__name__}"

    if config.train_config is None:
        base = alone("base", None)
        return [base, (algo, S, "LLE") + base[3:]]
    coeffs = refs if isinstance(refs, Exception) else _outcome(
        lambda: train_lle(config, refs=refs)[0])
    if not isinstance(coeffs, Exception) and not isinstance(batch, Exception):
        try:
            recons = _run_base_and_lle(config, config.test_seed, coeffs, batch)
            return [row(strategy, recon, batch[0])
                    for strategy, recon in zip(("base", "LLE"), recons)]
        except Exception:  # rerun each strategy alone below
            pass
    return [alone("base", None), alone("LLE", coeffs)]


def sweep(config: ExperimentConfig, steps_list) -> str:
    """Train + evaluate per step count; returns deterministic CSV text.

    The training references and the held-out batch do not depend on the step
    count, so each is made once and shared by every cell; each cell is two
    driver calls, its fit and one joint base-and-LLE run, unless that run
    raises (`_sweep_cell`). Every step count's time grid is built once,
    before any cell runs, so an invalid or repeated one is a ConfigError
    naming it, not a row of error cells.
    """
    if not steps_list:
        raise ConfigError("steps_list is empty")
    grids = {}
    for S in steps_list:
        if S in grids:
            raise ConfigError(f"S={S} is repeated")
        grids[S] = dif.make_time_grid(config.schedule, S)
    refs = None
    if config.train_config is not None:  # an exception is reported in every cell's LLE row
        refs = _outcome(lle.generate_references, config.prior, config.schedule,
                        config.train_config)
    batch = _outcome(make_test_batch, config)
    results = {S: _sweep_cell(config, grid, refs, batch) for S, grid in grids.items()}
    buf = io.StringIO()
    buf.write("algorithm,S,strategy,mean_mse,mean_psnr\n")
    for S in sorted(steps_list):
        for row in sorted(results[S], key=lambda r: (r[0], r[1], r[2])):
            algo, s, strat, m, p = row
            m_s = m if isinstance(m, str) else f"{m:.12g}"
            p_s = p if isinstance(p, str) else f"{p:.12g}"
            buf.write(f"{algo},{s},{strat},{m_s},{p_s}\n")
    return buf.getvalue()
