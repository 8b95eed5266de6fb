import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lle import canonical as canon
from lle import diffusion as dif
from lle import extrapolation as lle
from lle import harness
from lle import operators as ops
from lle.numerics import RngStream


def write_config(path, **overrides):
    cfg = {
        "prior": {"dim": 4, "components": 2, "seed": 9},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1},
                 "sigma_y": 0.05},
        "algorithm": {"name": "DDNM"},
        "steps": 2,
        "n_test": 3,
        "seeds": {"train": 5, "test": 6},
        "lle": {"n_refs": 4, "ref_steps": 30, "epochs": 5, "warmup": 2,
                "base_seed": 5},
    }
    cfg.update(overrides)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


# ---------------------------------------------------------------------------
# priors and config loading
# ---------------------------------------------------------------------------


def test_random_prior_is_deterministic():
    a = harness.random_prior(8, 3, seed=4)
    b = harness.random_prior(8, 3, seed=4)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.covariances, b.covariances)
    assert abs(a.weights.sum() - 1.0) < 1e-12


def test_load_config_inline_and_seeded_prior(tmp_path):
    path = write_config(tmp_path / "cfg.json")
    cfg = harness.load_config(path)
    assert cfg.prior.d == 4 and cfg.prior.K == 2
    assert cfg.params.algorithm == "DDNM"
    assert cfg.sigma_y == 0.05
    assert cfg.steps == 2 and cfg.n_test == 3
    assert cfg.train_config.n_refs == 4


def test_load_config_prior_file(tmp_path):
    prior = harness.random_prior(3, 2, seed=1)
    prior.save(tmp_path / "prior.json")
    path = write_config(tmp_path / "cfg.json", prior={"file": "prior.json"})
    cfg = harness.load_config(path)
    assert np.array_equal(cfg.prior.means, prior.means)


def test_load_config_rejects_unknown_algorithm(tmp_path):
    path = write_config(tmp_path / "cfg.json", algorithm={"name": "PnP"})
    with pytest.raises(harness.ConfigError):
        harness.load_config(path)


def test_load_config_rejects_unknown_param(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        algorithm={"name": "DPS", "temperature": 2.0})
    with pytest.raises(harness.ConfigError):
        harness.load_config(path)


def test_load_config_rejects_eta_out_of_range(tmp_path):
    path = write_config(tmp_path / "cfg.json", algorithm={"name": "DDNM", "eta": 2.0})
    with pytest.raises(harness.ConfigError, match="eta"):
        harness.load_config(path)


def test_load_config_rejects_unknown_lle_key(tmp_path):
    path = write_config(tmp_path / "cfg.json", lle={"n_refs": 4, "bogus": 1})
    with pytest.raises(harness.ConfigError, match="bogus"):
        harness.load_config(path)


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    raw = json.loads(re.sub(r"//.*", "", block))
    raw["n_test"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = harness.load_config(path)
    assert cfg.params.algorithm == "DDNM" and cfg.train_config.base_seed == 13
    recons, truths = harness.run_experiment(cfg, seed=5)
    assert recons.shape == truths.shape == (2, 8)
    assert np.all(np.isfinite(recons))


def test_algo_params_nested_overrides(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        algorithm={"name": "DAPS", "daps": {"n_langevin": 7},
                   "inner_opt": {"lr": 0.5}},
    )
    cfg = harness.load_config(path)
    assert cfg.params.daps.n_langevin == 7
    assert cfg.params.inner_opt.lr == 0.5


def test_operator_spec_nonlinear(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        task={"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0,
                           "scale": 2.0}, "sigma_y": 0.1},
    )
    cfg = harness.load_config(path)
    assert isinstance(cfg.operator(), ops.NonlinearOperator)


# ---------------------------------------------------------------------------
# posterior oracle
# ---------------------------------------------------------------------------


def test_oracle_single_gaussian_identity_observation():
    # prior N(0, I), y = x + n with unit noise: posterior is N(y/2, I/2)
    d = 3
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, d)), np.eye(d)[None])
    op = ops.dense_operator(np.eye(d))
    y = np.array([1.0, -2.0, 0.5])
    mean, oracle = harness.oracle_posterior(prior, op, y, sigma_y=1.0)
    assert np.max(np.abs(mean - y / 2.0)) < 1e-12
    assert np.max(np.abs(oracle.covariances[0] - np.eye(d) / 2.0)) < 1e-12


def test_oracle_two_component_scalar_case():
    # 1-D two-component mixture observed directly; hand-computed conjugate update
    w = [0.5, 0.5]
    mus = np.array([[2.0], [-2.0]])
    covs = np.array([[[1.0]], [[1.0]]])
    prior = dif.GaussianMixturePrior(w, mus, covs)
    op = ops.dense_operator([[1.0]])
    y, sig = np.array([1.0]), 1.0
    mean, oracle = harness.oracle_posterior(prior, op, y, sig)
    # per component: posterior mean (y + mu)/2, evidence N(y; mu, 2)
    post = (y[0] + mus[:, 0]) / 2.0
    ev = np.exp(-((y[0] - mus[:, 0]) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
    wk = ev / ev.sum()
    assert abs(mean[0] - wk @ post) < 1e-12
    assert np.max(np.abs(oracle.weights - wk)) < 1e-12


def test_oracle_floor_behavior():
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 2)), np.eye(2)[None])
    op = ops.dense_operator(np.eye(2))
    mean, _ = harness.oracle_posterior(prior, op, np.array([1.0, 1.0]), 0.0)
    assert np.max(np.abs(mean - 1.0)) < 1e-6
    with pytest.raises(harness.ConfigError):
        harness.oracle_posterior(prior, op, np.array([1.0, 1.0]), 0.0,
                                 allow_floor=False)


def test_oracle_variance_trace_decomposition():
    w = np.array([0.5, 0.5])
    means = np.array([[1.0], [-1.0]])
    covs = np.array([[[0.25]], [[0.25]]])
    oracle = harness.PosteriorOracle(w, means, covs)
    # within 0.25 + between 1.0
    assert oracle.variance_trace() == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# evaluation, experiments, sweep
# ---------------------------------------------------------------------------


def test_evaluate_and_csv(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    recon = np.zeros((2, 4))
    truth = np.ones((2, 4))
    reports = harness.evaluate(recon, truth, cfg)
    assert [r.mse for r in reports] == [1.0, 1.0]
    text = harness.metrics_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "sample,mse,psnr,oracle_mse"
    assert len(lines) == 3 and lines[1].startswith("0,1,")


def test_evaluate_shape_mismatch(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    with pytest.raises(harness.ConfigError):
        harness.evaluate(np.zeros((2, 4)), np.zeros((3, 4)), cfg)


def test_make_test_batch_deterministic(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    t1, y1, _ = harness.make_test_batch(cfg)
    t2, y2, _ = harness.make_test_batch(cfg)
    assert np.array_equal(t1, t2) and np.array_equal(y1, y2)
    assert t1.shape == (3, 4)


def test_run_experiment_identity_matches_manual_infer(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    recons, truths = harness.run_experiment(cfg, seed=11)
    truths2, ys, op = harness.make_test_batch(cfg)
    grid = dif.make_time_grid(cfg.schedule, cfg.steps)
    obs = ops.Observation(y=ys[1], op=op, sigma_y=cfg.sigma_y)
    manual = lle.infer(cfg.params, cfg.prior, cfg.schedule, obs, grid,
                       lle.LLECoefficients.identity(grid), 11,
                       stream=RngStream(11, stream_id=1001))
    assert np.array_equal(recons[1], manual)
    assert np.array_equal(truths, truths2)


def test_train_lle_runs(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    coeffs, traces = harness.train_lle(cfg)
    assert coeffs.S == cfg.steps
    for trace in traces.values():
        assert min(trace) <= trace[0] + 1e-9


def _lle_block(**overrides):
    block = {"n_refs": 4, "ref_steps": 30, "epochs": 5, "warmup": 2}
    block.update(overrides)
    return block


def test_train_lle_leaves_train_config_unchanged(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json", lle=_lle_block()))
    before = copy.deepcopy(cfg.train_config)
    harness.train_lle(cfg)
    assert cfg.train_config == before


def test_base_seed_defaults_to_train_seed_and_zero_is_a_seed(tmp_path):
    omitted = harness.load_config(write_config(tmp_path / "a.json", lle=_lle_block()))
    zero = harness.load_config(write_config(tmp_path / "b.json", lle=_lle_block(base_seed=0)))
    assert omitted.train_config.base_seed == 5  # seeds.train
    assert zero.train_config.base_seed == 0
    coeffs_omitted, _ = harness.train_lle(omitted)
    coeffs_zero, _ = harness.train_lle(zero)
    assert coeffs_zero.to_json() != coeffs_omitted.to_json()


def test_train_lle_requires_block(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json", lle="none"))
    with pytest.raises(harness.ConfigError):
        harness.train_lle(cfg)


def test_sweep_output_format(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    text = harness.sweep(cfg, [2, 3])
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,S,strategy,mean_mse,mean_psnr"
    assert len(lines) == 5  # base + LLE rows for S = 2 and 3
    assert lines[1].startswith("DDNM,2,LLE") or lines[1].startswith("DDNM,2,base")


def test_sweep_survives_cell_failures(tmp_path):
    # spectral solver on a nonlinear operator fails per cell, not globally
    path = write_config(
        tmp_path / "c.json",
        task={"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0,
                           "scale": 1.0}, "sigma_y": 0.1},
    )
    cfg = harness.load_config(path)
    text = harness.sweep(cfg, [2])
    assert "error" in text
    assert text.count("\n") == 3  # header + two rows despite the failures


def test_sweep_repeats_identically(tmp_path):
    cfg_path = write_config(tmp_path / "c.json")
    first = harness.sweep(harness.load_config(cfg_path), [2, 3])
    second = harness.sweep(harness.load_config(cfg_path), [2, 3])
    assert first == second
