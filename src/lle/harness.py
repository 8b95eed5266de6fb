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
from .numerics import MetricReport, RngStream, RowStreams, mse, psnr

SIGMA_FLOOR = 1e-6


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
    every row of y (..., m) in one solve.

    Per component, S = A Sigma_k A^T + sigma_y^2 I, its Cholesky factor, log
    determinant and the gain Sigma_k A^T S^-1 do not depend on y, so they are
    computed once and shared by every row. A noiseless request (sigma_y below
    `SIGMA_FLOOR`) is solved at sigma_y = SIGMA_FLOOR; a sigma_y that is not a
    finite number >= 0 is a ValueError.
    Returns (posterior means (..., d), component weights (..., K)).
    A nonlinear operator has no conjugate posterior: that is a ConfigError.
    """
    if not isinstance(op, ops.LinearOperator):
        raise ConfigError("the posterior oracle needs a linear operator,"
                          " not task.operator.kind 'nonlinear'")
    ops.check_sigma_y(sigma_y)
    sigma_y = max(sigma_y, SIGMA_FLOOR)
    A = op.dense()
    m = op.m
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, m)
    logw = np.empty((rows.shape[0], prior.K))
    means = np.empty((rows.shape[0], prior.K, prior.d))
    for k in range(prior.K):
        mu, Sig = prior.means[k], prior.covariances[k]
        S = A @ Sig @ A.T + sigma_y**2 * np.eye(m)
        L = np.linalg.cholesky(S)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        gain = Sig @ A.T @ np.linalg.solve(S, np.eye(m))
        innov = rows - A @ mu
        z = np.linalg.solve(L, innov.T)
        logw[:, k] = (
            math.log(prior.weights[k])
            - 0.5 * (np.einsum("mn,mn->n", z, z) + logdet + m * math.log(2.0 * math.pi))
        )
        means[:, k] = mu + innov @ gain.T
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
):
    """Per-sample MSE/PSNR rows plus the batch means; optional oracle distance."""
    recon = np.atleast_2d(recon_batch)
    truth = np.atleast_2d(truth_batch)
    if recon.shape != truth.shape:
        raise ConfigError(f"batch shapes differ: {recon.shape} vs {truth.shape}")
    oracle = None if oracle_means is None else np.atleast_2d(oracle_means)
    if oracle is not None and oracle.shape != recon.shape:
        raise ConfigError(f"the oracle means of the config's held-out batch have shape"
                          f" {oracle.shape}, the reconstructions {recon.shape}")
    reports = []
    for i in range(recon.shape[0]):
        o = None if oracle is None else mse(recon[i], oracle[i])
        reports.append(MetricReport(mse=mse(recon[i], truth[i]),
                                    psnr_db=psnr(recon[i], truth[i], config.peak), oracle_mse=o))
    return reports


def metrics_csv(reports) -> str:
    buf = io.StringIO()
    buf.write("sample,mse,psnr,oracle_mse\n")
    for i, r in enumerate(reports):
        o = "" if r.oracle_mse is None else f"{r.oracle_mse:.12g}"
        buf.write(f"{i},{r.mse:.12g},{r.psnr_db:.12g},{o}\n")
    return buf.getvalue()


def make_test_batch(config: ExperimentConfig):
    """Held-out truth/observation pairs from the test seed (fresh prior draws)."""
    stream = RngStream(config.test_seed, stream_id=21)
    truths = config.prior.sample(stream, config.n_test)
    op = config.op
    noise_stream = RngStream(config.test_seed, stream_id=22)
    ys = ops.observe(op, truths, config.sigma_y, noise_stream)
    return truths, ys, op


def run_experiment(config: ExperimentConfig, seed: int, coeffs=None):
    """Reconstruct the held-out batch with the base algorithm (coeffs None) or with
    coefficients.

    One driver call runs all n_test rows as an (N, 1, d) batch with
    `RngStream(seed, 1000 + i)` for row i, so row i equals, bit for bit, a
    one-row `canonical.run` (or `lle.infer`) on ys[i] with that stream.
    """
    truths, ys, op = make_test_batch(config)
    obs = ops.Observation(y=ys[:, None, :], op=op, sigma_y=config.sigma_y)
    streams = RowStreams(RngStream(seed, stream_id=1000 + i) for i in range(config.n_test))
    recons = lle.infer(config.params, config.prior, config.schedule, obs, config.grid, coeffs,
                       seed, stream=streams)
    return recons[:, 0], truths


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


def _sweep_cell(config: ExperimentConfig, grid: dif.TimeGrid, refs=None):
    """The base and LLE rows for one step count, run on its grid.

    refs is the sweep's shared reference batch, or the exception that
    generating it raised, which turns the LLE row into an error row. With no
    training block the LLE row is the base solver's (identity coefficients),
    so the base run is made once and written as both rows.
    """
    algo, S = config.params.algorithm, grid.S
    config = replace(config, grid=grid)

    def row(strategy, coeffs):
        try:
            recon, truths = run_experiment(config, config.test_seed, coeffs=coeffs())
            return algo, S, strategy, mse(recon, truths), _mean_psnr(recon, truths, config.peak)
        except Exception as exc:  # cell failure must not abort the sweep
            return algo, S, strategy, "error", f"error:{type(exc).__name__}"

    def lle_coeffs():
        if isinstance(refs, Exception):
            raise refs
        return train_lle(config, refs=refs)[0]

    base = row("base", lambda: None)
    if config.train_config is None:
        return [base, (algo, S, "LLE") + base[3:]]
    return [base, row("LLE", lle_coeffs)]


def _mean_psnr(recon, truth, peak) -> float:
    return float(np.mean([psnr(r, t, peak) for r, t in zip(recon, truth)]))


def sweep(config: ExperimentConfig, steps_list) -> str:
    """Train + evaluate per step count; returns deterministic CSV text.

    The training references do not depend on the step count, so they are
    generated once and shared by every cell. Every step count's time grid is
    built once, before any cell runs, so an invalid or repeated one is a
    ConfigError naming it, not a row of error cells.
    """
    if not steps_list:
        raise ConfigError("steps_list is empty")
    grids = {}
    for S in steps_list:
        if S in grids:
            raise ConfigError(f"S={S} is repeated")
        grids[S] = dif.make_time_grid(config.schedule, S)
    refs = None
    if config.train_config is not None:
        try:
            refs = lle.generate_references(config.prior, config.schedule, config.train_config)
        except Exception as exc:  # reported in every cell's LLE row
            refs = exc
    results = {S: _sweep_cell(config, grid, refs) for S, grid in grids.items()}
    buf = io.StringIO()
    buf.write("algorithm,S,strategy,mean_mse,mean_psnr\n")
    for S in sorted(steps_list):
        for row in sorted(results[S], key=lambda r: (r[0], r[1], r[2])):
            algo, s, strat, m, p = row
            m_s = m if isinstance(m, str) else f"{m:.12g}"
            p_s = p if isinstance(p, str) else f"{p:.12g}"
            buf.write(f"{algo},{s},{strat},{m_s},{p_s}\n")
    return buf.getvalue()
