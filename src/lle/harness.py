"""Experiment configuration, closed-form posterior oracle, metrics, and sweeps."""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import canonical as canon
from . import diffusion as dif
from . import extrapolation as lle
from . import operators as ops
from .numerics import MetricReport, RngStream, psnr

SIGMA_FLOOR = 1e-6


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    prior: dif.GaussianMixturePrior
    schedule: dif.DiffusionSchedule
    op_spec: dict
    sigma_y: float
    params: canon.AlgoParams
    steps: int
    train_config: lle.TrainConfig | None
    train_seed: int
    test_seed: int
    n_test: int
    peak: float
    raw: dict

    def operator(self):
        spec = dict(self.op_spec)
        if spec.get("kind") == "nonlinear":
            kernel = spec.get("kernel")
            if kernel is None:
                kernel = ops.gaussian_kernel(spec.get("width", 5), spec.get("sigma", 1.0))
            return ops.NonlinearOperator(kernel=np.asarray(kernel, dtype=float),
                                         scale=spec.get("scale", 1.0))
        spec.setdefault("n", self.prior.d)
        return ops.build_operator(spec)


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


def _algo_params_from(obj: dict) -> canon.AlgoParams:
    name = obj.get("name")
    if name not in canon.ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}")
    params = canon.default_params(name)
    simple = {"eta", "eta_b", "zeta", "xi", "lam", "gamma_rs", "exact_hc"}
    overrides = {}
    try:
        for key, val in obj.items():
            if key == "name":
                continue
            if key in simple:
                overrides[key] = val
            elif key in ("daps", "inner_opt"):
                block = getattr(params, key)
                if not isinstance(val, dict):
                    raise ConfigError(f"{key} must be an object, got {val!r}")
                unknown = sorted(set(val) - {f.name for f in fields(block)})
                if unknown:
                    raise ConfigError(f"unknown {key} key(s) {unknown}")
                overrides[key] = replace(block, **val)
            else:
                raise ConfigError(f"unknown algorithm parameter {key!r}")
        return replace(params, **overrides)  # re-runs AlgoParams validation
    except canon.ConfigurationError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        raw = json.load(f)
    prior_spec = raw["prior"]
    if "file" in prior_spec:
        base = os.path.dirname(os.path.abspath(path))
        prior = dif.GaussianMixturePrior.load(
            os.path.join(base, prior_spec["file"])
            if not os.path.isabs(prior_spec["file"])
            else prior_spec["file"]
        )
    elif "weights" in prior_spec:
        prior = dif.GaussianMixturePrior(
            prior_spec["weights"], prior_spec["means"], prior_spec["covariances"]
        )
    else:
        prior = random_prior(
            prior_spec["dim"], prior_spec["components"], prior_spec.get("seed", 0)
        )
    sched_spec = raw.get("schedule", {})
    schedule = dif.linear_beta_schedule(
        T=sched_spec.get("T", 1000),
        beta_start=sched_spec.get("beta_start", 1e-4),
        beta_end=sched_spec.get("beta_end", 0.02),
    )
    task = raw["task"]
    sigma_y = task.get("sigma_y", 0.0)
    seeds = raw.get("seeds", {})
    train_seed = seeds.get("train", 1)
    test_seed = seeds.get("test", 2)
    steps = raw.get("steps", 3)
    n_test = raw.get("n_test", 10)
    peak = raw.get("peak", 2.0)
    lle_spec = raw.get("lle")
    train_config = None
    try:
        canon.check_number("task.sigma_y", sigma_y, minimum=0.0)
        canon.check_number("seeds.train", train_seed, integer=True)
        canon.check_number("seeds.test", test_seed, integer=True)
        canon.check_number("steps", steps, integer=True, minimum=1)
        canon.check_number("n_test", n_test, integer=True, minimum=1)
        canon.check_number("peak", peak)
        if peak <= 0:
            raise ConfigError(f"peak must be > 0, got {peak!r}")
        if lle_spec not in (None, "none"):
            if not isinstance(lle_spec, dict):
                raise ConfigError(f"lle must be an object or \"none\", got {lle_spec!r}")
            unknown = sorted(set(lle_spec) - {f.name for f in fields(lle.TrainConfig)})
            if unknown:
                raise ConfigError(f"unknown lle key(s) {unknown}")
            train_config = lle.TrainConfig(**{"base_seed": train_seed, **lle_spec})
    except canon.ConfigurationError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        prior=prior,
        schedule=schedule,
        op_spec=task["operator"],
        sigma_y=sigma_y,
        params=_algo_params_from(raw["algorithm"]),
        steps=steps,
        train_config=train_config,
        train_seed=train_seed,
        test_seed=test_seed,
        n_test=n_test,
        peak=peak,
        raw=raw,
    )


# ---------------------------------------------------------------------------
# closed-form posterior oracle
# ---------------------------------------------------------------------------


@dataclass
class PosteriorOracle:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    @property
    def mmse_mean(self) -> np.ndarray:
        return np.einsum("k,kd->d", self.weights, self.means)

    def variance_trace(self) -> float:
        """Trace of the posterior covariance (spread + within-component)."""
        mm = self.mmse_mean
        tr = 0.0
        for k in range(self.weights.size):
            diff = self.means[k] - mm
            tr += self.weights[k] * (np.trace(self.covariances[k]) + diff @ diff)
        return float(tr)


def oracle_posterior(
    prior: dif.GaussianMixturePrior,
    op: ops.LinearOperator,
    y: np.ndarray,
    sigma_y: float,
    allow_floor: bool = True,
):
    """Exact conjugate posterior of a GMM prior under y = A x + sigma n.

    Noiseless requests are approximated with sigma = 1e-6 when allow_floor.
    Returns (mmse_mean, PosteriorOracle).
    """
    if sigma_y < SIGMA_FLOOR:
        if not allow_floor:
            raise ConfigError(f"sigma_y below the oracle floor {SIGMA_FLOOR}")
        sigma_y = SIGMA_FLOOR
    A = op.dense()
    m = op.m
    logw = np.empty(prior.K)
    means = np.empty((prior.K, prior.d))
    covs = np.empty((prior.K, prior.d, prior.d))
    for k in range(prior.K):
        mu, Sig = prior.means[k], prior.covariances[k]
        S = A @ Sig @ A.T + sigma_y**2 * np.eye(m)
        L = np.linalg.cholesky(S)
        innov = y - A @ mu
        z = np.linalg.solve(L, innov)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        logw[k] = (
            math.log(prior.weights[k])
            - 0.5 * (z @ z + logdet + m * math.log(2.0 * math.pi))
        )
        K_gain = Sig @ A.T @ np.linalg.solve(S, np.eye(m))
        means[k] = mu + K_gain @ innov
        covs[k] = Sig - K_gain @ A @ Sig
    w = np.exp(logw - logw.max())
    w /= w.sum()
    oracle = PosteriorOracle(weights=w, means=means, covariances=covs)
    return oracle.mmse_mean, oracle


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
    reports = []
    for i in range(recon.shape[0]):
        err = float(np.mean((recon[i] - truth[i]) ** 2))
        o = None
        if oracle_means is not None:
            o = float(np.mean((recon[i] - oracle_means[i]) ** 2))
        reports.append(MetricReport(mse=err, psnr_db=psnr(recon[i], truth[i], config.peak), oracle_mse=o))
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
    op = config.operator()
    noise_stream = RngStream(config.test_seed, stream_id=22)
    ys = ops.observe(op, truths, config.sigma_y, noise_stream)
    return truths, ys, op


def run_experiment(config: ExperimentConfig, seed: int, coeffs=None):
    """Reconstruct the held-out batch with the base algorithm or with coefficients."""
    truths, ys, op = make_test_batch(config)
    grid = dif.make_time_grid(config.schedule, config.steps)
    if coeffs is None:
        coeffs = lle.LLECoefficients.identity(grid)
    recons = np.empty_like(truths)
    for i in range(config.n_test):
        obs = ops.Observation(y=ys[i], op=op, sigma_y=config.sigma_y)
        stream = RngStream(seed, stream_id=1000 + i)
        recons[i] = lle.infer(
            config.params, config.prior, config.schedule, obs, grid, coeffs, seed,
            stream=stream,
        )
    return recons, truths


def train_lle(config: ExperimentConfig, steps: int | None = None, refs=None):
    """Train coefficients for this configuration; returns (coeffs, traces).

    refs: the reference batch, if already generated (see `sweep`).
    """
    if config.train_config is None:
        raise ConfigError("configuration has no LLE training block")
    grid = dif.make_time_grid(config.schedule, steps or config.steps)
    op = config.operator()

    def obs_builder(x0_batch, stream):
        y = ops.observe(op, x0_batch, config.sigma_y, stream)
        return ops.Observation(y=y, op=op, sigma_y=config.sigma_y)

    return lle.train(
        config.params, config.prior, config.schedule, obs_builder, grid, config.train_config,
        refs=refs,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_cell(config: ExperimentConfig, S: int, refs=None):
    """The base and LLE rows for one step count.

    refs is the sweep's shared reference batch, or the exception that
    generating it raised, which turns the LLE row into an error row.
    """
    algo = config.params.algorithm
    rows = []
    grid_cfg = replace(config, steps=S)
    try:
        base_recon, truths = run_experiment(grid_cfg, grid_cfg.test_seed)
        rows.append((algo, S, "base", _mean_mse(base_recon, truths),
                     _mean_psnr(base_recon, truths, config.peak)))
    except Exception as exc:  # cell failure must not abort the sweep
        rows.append((algo, S, "base", "error", f"error:{type(exc).__name__}"))
        base_recon = None
    try:
        if config.train_config is not None:
            if isinstance(refs, Exception):
                raise refs
            coeffs, _ = train_lle(grid_cfg, refs=refs)
        else:
            coeffs = lle.LLECoefficients.identity(
                dif.make_time_grid(config.schedule, S)
            )
        lle_recon, truths = run_experiment(grid_cfg, grid_cfg.test_seed, coeffs=coeffs)
        rows.append((algo, S, "LLE", _mean_mse(lle_recon, truths),
                     _mean_psnr(lle_recon, truths, config.peak)))
    except Exception as exc:
        rows.append((algo, S, "LLE", "error", f"error:{type(exc).__name__}"))
    return rows


def _mean_mse(recon, truth) -> float:
    return float(np.mean((recon - truth) ** 2))


def _mean_psnr(recon, truth, peak) -> float:
    return float(np.mean([psnr(r, t, peak) for r, t in zip(recon, truth)]))


def sweep(config: ExperimentConfig, steps_list) -> str:
    """Train + evaluate per step count; returns deterministic CSV text.

    The training references do not depend on the step count, so they are
    generated once and shared by every cell.
    """
    if not steps_list:
        raise ConfigError("steps_list is empty")
    refs = None
    if config.train_config is not None:
        try:
            refs = lle.generate_references(config.prior, config.schedule, config.train_config)
        except Exception as exc:  # reported in every cell's LLE row
            refs = exc
    results = {S: _sweep_cell(config, S, refs) for S in steps_list}
    buf = io.StringIO()
    buf.write("algorithm,S,strategy,mean_mse,mean_psnr\n")
    for S in sorted(steps_list):
        for row in sorted(results[S], key=lambda r: (r[0], r[1], r[2])):
            algo, s, strat, m, p = row
            m_s = m if isinstance(m, str) else f"{m:.12g}"
            p_s = p if isinstance(p, str) else f"{p:.12g}"
            buf.write(f"{algo},{s},{strat},{m_s},{p_s}\n")
    return buf.getvalue()
