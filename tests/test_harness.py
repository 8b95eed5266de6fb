import copy
import dataclasses
import json
import math
import operator
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lle import canonical as canon
from lle import diffusion as dif
from lle import errors
from lle import extrapolation as lle
from lle import harness
from lle import operators as ops
from lle.config import ConfigBlock
from lle.numerics import RngStream, RowStreams, mse, psnr

from conftest import field_values, identity_coeffs, loaded, preset_lists, says_unread, with_value


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


@pytest.mark.parametrize("content, named", [
    # earlier loaders: a KeyError, a TypeError and a FileNotFoundError traceback
    ({"weights": [0.5, 0.5], "means": [[0.0] * 3] * 2}, "prior.covariances"),
    ([[0.5, 0.5]], "must be an object"),
    (None, "cannot be read"),
    ({"weights": [0.5, 0.5], "means": [[0.0] * 3, [1.0, "1", 0.0]],
      "covariances": [np.eye(3).tolist()] * 2}, "prior.means[1][1]"),
], ids=["missing-key", "list", "absent", "entry"])
def test_load_config_prior_file_errors_name_prior_file(tmp_path, content, named):
    if content is not None:
        (tmp_path / "prior.json").write_text(json.dumps(content))
    path = write_config(tmp_path / "cfg.json", prior={"file": "prior.json"})
    with pytest.raises(harness.ConfigError, match=r"^prior\.file: ") as err:
        harness.load_config(path)
    assert named in str(err.value)


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


@pytest.mark.parametrize("key", ["eta", "eta_b", "zeta", "xi", "lam", "gamma_rs"])
def test_load_config_rejects_non_numeric_param(tmp_path, key):
    path = write_config(tmp_path / "cfg.json", algorithm={"name": "DDRM", key: "0.5"})
    with pytest.raises(harness.ConfigError, match=key):
        harness.load_config(path)


@pytest.mark.parametrize("block, bad", [("daps", {"n_langevn": 3}),
                                        ("inner_opt", {"stepz": 3})])
def test_load_config_rejects_unknown_nested_key(tmp_path, block, bad):
    path = write_config(tmp_path / "cfg.json", algorithm={"name": "DAPS", block: bad})
    with pytest.raises(harness.ConfigError, match=f"{block}.*{next(iter(bad))}"):
        harness.load_config(path)


def test_load_config_rejects_non_numeric_nested_value(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        algorithm={"name": "DAPS", "daps": {"n_langevin": "5"}})
    with pytest.raises(harness.ConfigError, match="daps.n_langevin"):
        harness.load_config(path)


def test_load_config_rejects_negative_sigma_y(tmp_path):
    path = write_config(tmp_path / "cfg.json",
                        task={"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1},
                              "sigma_y": -0.1})
    with pytest.raises(harness.ConfigError, match="sigma_y"):
        harness.load_config(path)


@pytest.mark.parametrize("bad, key", [
    ({"optimizer": "sgd"}, "lle.optimizer"),
    ({"epochs": -2}, "lle.epochs"),
    ({"warmup": 1.5}, "lle.warmup"),
    ({"closed_form": "yes"}, "lle.closed_form"),
    ({"decoupled": 1}, "lle.decoupled"),
    ({"omega": 0.5}, "lle.omega"),
    ({"omega": "0.1", "plugin": "gradient-domain"}, "lle.omega"),
    ({"closed_form": 1}, "lle.closed_form"),
    ({"closed_form": None}, "lle.closed_form"),
    ({"init_mode": "linear"}, "lle.init_mode"),
    ({"lr_rule": "cosine"}, "lle.lr_rule"),
    ({"plugin": "vgg"}, "lle.plugin"),
    ({"n_refs": 0}, "lle.n_refs"),
    ({"ref_steps": "999"}, "lle.ref_steps"),
])
def test_load_config_rejects_bad_lle_value(tmp_path, bad, key):
    lle_spec = {"n_refs": 4, "ref_steps": 30, "epochs": 5, "warmup": 2, **bad}
    path = write_config(tmp_path / "cfg.json", lle=lle_spec)
    with pytest.raises(harness.ConfigError, match=re.escape(key)):
        harness.load_config(path)


@pytest.mark.parametrize("bad, key", [
    ({"steps": "3"}, "steps"),
    ({"steps": 2.5}, "steps"),
    ({"steps": 0}, "steps"),
    ({"n_test": 1.5}, "n_test"),
    ({"peak": 0}, "peak"),
    ({"peak": -2.0}, "peak"),
    ({"seeds": {"train": "5", "test": 6}}, "seeds.train"),
    ({"lle": [4]}, "lle"),
    # JSON reads 10**400 as an exact int, past the largest float
    ({"task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1}, "sigma_y": 10**400}},
     "task.sigma_y must be a finite number"),
])
def test_load_config_rejects_bad_top_level_value(tmp_path, bad, key):
    path = write_config(tmp_path / "cfg.json", **bad)
    with pytest.raises(harness.ConfigError, match=re.escape(key)):
        harness.load_config(path)


def test_load_config_rejects_noisy_gt_for_other_algorithms(tmp_path):
    lle_spec = {"n_refs": 4, "ref_steps": 30, "noisy_gt": True}
    harness.load_config(write_config(tmp_path / "ok.json", lle=lle_spec))  # DDNM
    path = write_config(tmp_path / "cfg.json", lle=lle_spec, algorithm={"name": "DPS"})
    with pytest.raises(harness.ConfigError, match=re.escape("lle.noisy_gt")):
        harness.load_config(path)


def test_load_config_rejects_decoupled_on_nonlinear_operator(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        task={"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0}, "sigma_y": 0.1},
        algorithm={"name": "DPS"},
        lle={"n_refs": 4, "ref_steps": 30, "decoupled": True},
    )
    with pytest.raises(harness.ConfigError, match=re.escape("lle.decoupled")):
        harness.load_config(path)


def test_load_config_rejects_daps_noiseless_linear_on_nonlinear_operator(tmp_path):
    daps = {"name": "DAPS", "daps": {"noiseless_linear": True}}
    harness.load_config(write_config(tmp_path / "ok.json", algorithm=daps))  # a mask
    nonlinear = {"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0}, "sigma_y": 0.1}
    harness.load_config(write_config(tmp_path / "plain.json", task=nonlinear,
                                     algorithm={"name": "DAPS"}, lle="none"))
    path = write_config(tmp_path / "cfg.json", task=nonlinear, algorithm=daps, lle="none")
    with pytest.raises(harness.ConfigError, match=re.escape("algorithm.daps.noiseless_linear")):
        harness.load_config(path)


@pytest.mark.parametrize("name", ["DDRM", "DDNM", "PiGDM", "DMPS"])
def test_load_config_rejects_linear_only_solver_on_nonlinear_operator(tmp_path, name):
    # earlier loaders accepted it, and every driver call then failed
    assert canon.SOLVERS[name].linear
    nonlinear = {"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0}, "sigma_y": 0.1}
    path = write_config(tmp_path / "cfg.json", task=nonlinear, algorithm={"name": name})
    with pytest.raises(harness.ConfigError, match=re.escape(f"algorithm.name {name}")) as err:
        harness.load_config(path)
    assert "task.operator.kind" in str(err.value)


def test_load_config_accepts_closed_form_with_zero_omega_plugin(tmp_path):
    path = write_config(tmp_path / "cfg.json", lle={
        "n_refs": 4, "ref_steps": 30, "closed_form": True,
        "plugin": "gradient-domain", "omega": 0.0})
    assert harness.load_config(path).train_config.resolved_omega() == 0.0


def test_load_config_accepts_closed_form_with_plugin_omega(tmp_path):
    for omega, resolved in (({}, 0.1), ({"omega": 0.3}, 0.3)):
        path = write_config(tmp_path / "cfg.json", lle={
            "n_refs": 4, "ref_steps": 30, "closed_form": True,
            "plugin": "gradient-domain", **omega})
        assert harness.load_config(path).train_config.resolved_omega() == resolved


def test_algo_params_nested_overrides(tmp_path):
    nonlinear = {"operator": {"kind": "nonlinear", "width": 3}, "sigma_y": 0.05}
    for name, block, key, value in (("DAPS", "daps", "n_langevin", 7),
                                    ("ReSample", "inner_opt", "lr", 0.5),
                                    ("ReSample", "inner_opt", "momentum", 0.5),
                                    ("DiffPIR", "inner_opt", "steps", 7)):
        # DiffPIR reads inner_opt on the nonlinear operator only
        task = {"task": nonlinear} if name == "DiffPIR" else {}
        path = write_config(tmp_path / "cfg.json", algorithm={"name": name, block: {key: value}},
                            **task)
        params = harness.load_config(path).params
        assert getattr(getattr(params, block), key) == value


@pytest.mark.parametrize("algorithm, path", [
    ({"name": "DDRM", "zeta": 7, "xi": 3, "daps": {"eta0": 5}}, "algorithm.zeta"),
    ({"name": "DDRM", "daps": {"eta0": 5}}, "algorithm.daps"),
    ({"name": "DDRM", "daps": {}}, "algorithm.daps"),
    ({"name": "DiffPIR", "inner_opt": {"momentum": 0.5}}, "algorithm.inner_opt.momentum"),
    ({"name": "DAPS", "eta": 0.5}, "algorithm.eta"),
    ({"name": "PiGDM", "exact_hc": True}, "algorithm.exact_hc"),
])
def test_load_config_rejects_a_key_the_algorithm_does_not_read(tmp_path, algorithm, path):
    # earlier every key was accepted for every algorithm, and the unread ones ignored
    with pytest.raises(harness.ConfigError) as err:
        harness.load_config(write_config(tmp_path / "cfg.json", algorithm=algorithm))
    assert str(err.value) == f"{path} is not read by {algorithm['name']}"


def _settable(preset, params):
    """How many values a preset lets a config set; a {} block, every field of params' block."""
    return sum(len(getattr(params, key).rules) if value == {}
               else _settable(value, getattr(params, key)) if isinstance(value, dict) else 1
               for key, value in preset.items())


def test_settable_algorithm_values_are_the_presets_keys():
    # before the presets listed every key read, each algorithm took all 16 (144 in all)
    counts = {name: _settable(solver.preset, canon.default_params(name))
              for name, solver in canon.SOLVERS.items()}
    assert counts == {"DDRM": 2, "DDNM": 2, "DPS": 2, "PiGDM": 1, "REDdiff": 2, "DiffPIR": 4,
                      "DMPS": 2, "ReSample": 6, "DAPS": 6}
    assert sum(counts.values()) == 27


def test_settable_values_fall_under_each_switch():
    # the keys a switch leaves unread are no longer settable beside it
    fit = len(lle.TrainConfig.rules)
    unread = lle.TrainConfig.unread_when
    closed, adam, none = (len(unread[switch]) for switch in (
        ("closed_form", True), ("optimizer", "adam"), ("plugin", "none")))
    assert (fit, fit - closed, fit - closed - none, fit - adam, fit - adam - none) \
        == (13, 9, 8, 12, 11)
    resample = {k: v for k, v in canon.SOLVERS["ReSample"].preset.items()
                if k not in canon.AlgoParams.unread_when["exact_hc", True]}
    assert _settable(resample, canon.default_params("ReSample")) == 3
    assert fit - len(unread["epochs", 0]) == 10
    daps = canon.DAPSParams
    assert [len(daps.rules) - len(keys) for keys in daps.unread_when.values()] \
        == [5, 2, 4]  # noiseless_linear true, n_langevin 0, eta0 0
    assert 6 - len(canon.InnerOptParams.unread_when["steps", 0]) == 4  # ReSample at steps 0
    assert 2 - len(canon.AlgoParams.unread_when["xi", 0]) == 1  # REDdiff at xi 0
    diffpir = canon.SOLVERS["DiffPIR"]
    linear = {k: v for k, v in diffpir.preset.items()
              if k not in diffpir.unread_when["task.operator", "linear"]}
    assert _settable(linear, canon.default_params("DiffPIR")) == 2  # 4 on "nonlinear"


def test_load_config_rejects_ref_steps_above_schedule_T(tmp_path):
    lle_block = {"n_refs": 4, "ref_steps": 101}
    with pytest.raises(harness.ConfigError, match=r"^lle\.ref_steps must be <= schedule\.T"):
        harness.load_config(write_config(tmp_path / "a.json", lle=lle_block, schedule={"T": 100}))
    harness.load_config(write_config(tmp_path / "b.json", lle=dict(lle_block, ref_steps=100),
                                     schedule={"T": 100}))


def test_load_config_rejects_daps_k_ddim_above_schedule_T(tmp_path):
    # earlier k_ddim 1000, 5000 and 200000 gave the same bytes at T 1000
    daps = {"name": "DAPS", "daps": {"k_ddim": 101}}
    short = {"schedule": {"T": 100}, "lle": "none"}
    with pytest.raises(harness.ConfigError,
                       match=r"^algorithm\.daps\.k_ddim must be <= schedule\.T \(100\), got 101$"):
        harness.load_config(write_config(tmp_path / "a.json", algorithm=daps, **short))
    harness.load_config(write_config(tmp_path / "b.json", algorithm={
        "name": "DAPS", "daps": {"k_ddim": 100}}, **short))
    # a solver that does not read k_ddim loads at a T below its default of 5
    harness.load_config(write_config(tmp_path / "c.json", schedule={"T": 4}, steps=2,
                                     lle="none"))


@pytest.mark.parametrize("kind", ["mask", "hadamard"])
def test_load_config_rejects_a_keep_ratio_that_keeps_nothing(tmp_path, kind):
    # earlier clamped to one kept coordinate: keep_ratio 0.01 and 0.1 ran the same bytes
    for ratio, kept in ((0.01, 0), (0.0625, 0), (0.07, 1)):  # round(0.0625 * 8) is 0
        operator = {"kind": kind, "keep_ratio": ratio, "seed": 1}
        path = write_config(tmp_path / "cfg.json", prior={"dim": 8, "components": 2},
                            task={"operator": operator, "sigma_y": 0.05})
        if kept:
            assert harness.load_config(path).op.m == kept
            continue
        with pytest.raises(harness.ConfigError, match=re.escape(
                f"task.operator: keep_ratio {ratio} keeps none of the 8 coordinates")):
            harness.load_config(path)


def test_operator_spec_nonlinear(tmp_path):
    path = write_config(
        tmp_path / "cfg.json",
        task={"operator": {"kind": "nonlinear", "width": 3, "sigma": 1.0,
                           "scale": 2.0}, "sigma_y": 0.1},
        algorithm={"name": "DPS"},
    )
    cfg = harness.load_config(path)
    assert isinstance(cfg.op, ops.NonlinearOperator)


# ---------------------------------------------------------------------------
# posterior oracle
# ---------------------------------------------------------------------------


def test_oracle_single_gaussian_identity_observation():
    # prior N(0, I), y = x + n with unit noise: posterior is N(y/2, I/2)
    d = 3
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, d)), np.eye(d)[None])
    op = ops.dense_operator(np.eye(d))
    y = np.array([1.0, -2.0, 0.5])
    mean, weights = harness.oracle_posterior(prior, op, y, sigma_y=1.0)
    assert np.max(np.abs(mean - y / 2.0)) < 1e-12
    assert weights.tolist() == [1.0]


def test_oracle_two_component_scalar_case():
    # 1-D two-component mixture observed directly; hand-computed conjugate update
    w = [0.5, 0.5]
    mus = np.array([[2.0], [-2.0]])
    covs = np.array([[[1.0]], [[1.0]]])
    prior = dif.GaussianMixturePrior(w, mus, covs)
    op = ops.dense_operator([[1.0]])
    y, sig = np.array([1.0]), 1.0
    mean, weights = harness.oracle_posterior(prior, op, y, sig)
    # per component: posterior mean (y + mu)/2, evidence N(y; mu, 2)
    post = (y[0] + mus[:, 0]) / 2.0
    ev = np.exp(-((y[0] - mus[:, 0]) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
    wk = ev / ev.sum()
    assert abs(mean[0] - wk @ post) < 1e-12
    assert np.max(np.abs(weights - wk)) < 1e-12


def test_oracle_is_exact_at_sigma_y_0_on_a_mask():
    # no floor: the noiseless posterior mean reproduces y on the kept coordinates
    keep = [0, 2, 3, 5, 6]
    for d, seed in ((8, 3), (16, 4), (32, 5)):
        prior = harness.random_prior(d, 3, seed)
        op = ops.mask_operator(d, keep)
        ys = ops.observe(op, prior.sample(RngStream(seed, stream_id=10), 6), 0.0)
        means, _ = harness.oracle_posterior(prior, op, ys, 0.0)
        assert np.max(np.abs(means[:, keep] - ys)) <= 1e-14 * np.max(np.abs(ys))


@pytest.mark.parametrize("shape", [(2, 8), (8,), (3, 2, 5)])
def test_oracle_rejects_an_observation_of_the_wrong_size_before_solving(shape):
    prior = harness.random_prior(8, 2, 1)
    op = ops.mask_operator(8, [0, 2, 4, 6])
    with pytest.raises(ValueError, match=rf"^expected last dim 4, got {shape[-1]}$"):
        harness.oracle_posterior(prior, op, np.ones(shape), 0.05)


@pytest.mark.parametrize("sigma_y", [-1.0, math.nan, math.inf])
def test_oracle_rejects_a_sigma_y_that_is_not_finite_and_nonnegative(sigma_y):
    # sigma_y 0 is the exact noiseless posterior; a negative, NaN or infinite one is no noise level
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 2)), np.eye(2)[None])
    with pytest.raises(ValueError, match="sigma_y must be a finite number >= 0"):
        harness.oracle_posterior(prior, ops.dense_operator(np.eye(2)), np.ones(2), sigma_y)


def _per_row_oracle(prior, op, y, sigma_y):
    """The oracle one observation y (m,) at a time, every factor solved anew in y-space
    from the dense A, not in the operator's SVD basis: the reference the batched
    `oracle_posterior` is checked against. At sigma_y 0 it needs a full row rank A."""
    A = op.dense()
    m = op.m
    logw = np.empty(prior.K)
    means = np.empty((prior.K, prior.d))
    for k in range(prior.K):
        mu, Sig = prior.means[k], prior.covariances[k]
        S = A @ Sig @ A.T + sigma_y**2 * np.eye(m)
        L = np.linalg.cholesky(S)
        innov = y - A @ mu
        z = np.linalg.solve(L, innov)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        logw[k] = math.log(prior.weights[k]) - 0.5 * (z @ z + logdet + m * math.log(2.0 * math.pi))
        K_gain = Sig @ A.T @ np.linalg.solve(S, np.eye(m))
        means[k] = mu + K_gain @ innov
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return np.einsum("k,kd->d", w, means), w


def _relative(new, ref):
    return np.max(np.abs(new - ref)) / np.max(np.abs(ref))


_ORACLE_OPERATORS = {
    "mask": {"kind": "mask", "keep_ratio": 0.5, "seed": 4},
    "avgpool": {"kind": "avgpool", "factor": 2},
    "blur": {"kind": "blur", "sigma": 1.0, "width": 3},
    "hadamard": {"kind": "hadamard", "keep_ratio": 0.5, "seed": 5},
}


def _oracle_case(prior_seed, kind, n_rows, sigma_y, d=8, K=3):
    prior = harness.random_prior(d, K, prior_seed)
    if kind == "dense":
        matrix = RngStream(prior_seed, stream_id=9).standard_normal((d // 2, d)) / math.sqrt(d)
        op = ops.dense_operator(matrix)
    else:
        op = ops.build_operator(d, _ORACLE_OPERATORS[kind])
    stream = RngStream(prior_seed, stream_id=10)
    ys = ops.observe(op, prior.sample(stream, n_rows), sigma_y, stream)
    return prior, op, ys


def _mp_oracle(mp, prior, A, ys, sigma_y):
    """The posterior means and weights of the rows ys, in y-space from the matrix A at the
    working precision: S = A Sigma_k A^T + sigma_y^2 I through mpmath's own `eigsy`, its
    pseudo-inverse and pseudo-determinant over the eigenvalues above 1e-30 of the largest,
    so that at sigma_y 0 a rank-deficient A's null directions of S drop out."""
    A = mp.matrix(A.tolist())
    logw, means = [[] for _ in ys], [[] for _ in ys]
    for k in range(prior.K):
        mu, Sig = mp.matrix(prior.means[k].tolist()), mp.matrix(prior.covariances[k].tolist())
        SAt = Sig * A.T
        lam, Q = mp.eigsy(A * SAt + mp.mpf(sigma_y) ** 2 * mp.eye(A.rows))
        kept = [i for i in range(A.rows) if lam[i] > mp.mpf("1e-30") * max(lam)]
        for n, y in enumerate(ys):
            innov = Q.T * (mp.matrix(y.tolist()) - A * mu)
            solved = Q * mp.matrix([innov[i] / lam[i] if i in kept else 0
                                    for i in range(A.rows)])
            logw[n].append(mp.log(prior.weights[k])
                           - sum(mp.log(lam[i]) + innov[i] ** 2 / lam[i] for i in kept) / 2)
            means[n].append(mu + SAt * solved)
    out = []
    for lw, mk in zip(logw, means):
        w = [mp.exp(v - max(lw)) for v in lw]
        w = [wk / sum(w) for wk in w]
        mean = sum((w[k] * mk[k] for k in range(prior.K)), mp.matrix(prior.d, 1))
        out.append((np.array([float(v) for v in mean]), np.array([float(v) for v in w])))
    return out


# each operator's matrix, as `operators` forms it before the SVD
_MP_ORACLE_MATRICES = {
    "mask": np.eye(8)[[0, 2, 3, 5]],
    "blur-gauss": ops._circ_conv(ops.gaussian_kernel(5, 1.0), np.eye(8)).T,
    "blur-binomial": ops._circ_conv(np.array([0.25, 0.5, 0.25]), np.eye(8)).T,  # rank 7
    "avgpool": np.kron(np.eye(4), [0.5, 0.5]),
    "hadamard": ops._hadamard(8)[[0, 3, 5, 6]] / math.sqrt(8),
    # integer factors, so that the float matrix is exactly of rank 3 and the reference
    # has no rounding-sized singular values for a small sigma_y to magnify
    "dense-rank-3": (np.round(2 * RngStream(12, stream_id=9).standard_normal((6, 3)))
                     @ np.round(2 * RngStream(13, stream_id=9).standard_normal((3, 8)))) / 8,
}
_MP_ORACLE_SPECS = {
    "mask": {"kind": "mask", "keep_indices": [0, 2, 3, 5]},
    "blur-gauss": {"kind": "blur", "sigma": 1.0, "width": 5},
    "blur-binomial": {"kind": "blur", "kernel": [0.25, 0.5, 0.25]},
    "avgpool": {"kind": "avgpool", "factor": 2},
}


@pytest.mark.parametrize("sigma_y", [0.0, 1e-5, 0.05])
@pytest.mark.parametrize("kind", list(_MP_ORACLE_MATRICES))
def test_oracle_matches_a_50_digit_reference(kind, sigma_y):
    # the reference works in y-space from the matrix, never the operator's U, s or V;
    # two of the matrices are rank-deficient, where sigma_y 0 leaves A Sigma_k A^T singular
    mp = pytest.importorskip("mpmath")
    A = _MP_ORACLE_MATRICES[kind]
    spec = _MP_ORACLE_SPECS.get(kind, {"kind": "dense", "matrix": A.tolist()})
    op = ops.build_operator(8, spec)
    assert np.max(np.abs(op.dense() - A)) <= 1e-14 * np.max(np.abs(A))  # the same operator
    prior = harness.random_prior(8, 2, 31)
    stream = RngStream(32, stream_id=10)
    ys = ops.observe(op, prior.sample(stream, 3), sigma_y, stream)
    means, weights = harness.oracle_posterior(prior, op, ys, sigma_y)
    with mp.workdps(50):
        reference = _mp_oracle(mp, prior, A, ys, sigma_y)
    for i, (ref_mean, ref_w) in enumerate(reference):
        assert _relative(means[i], ref_mean) <= 1e-12, i
        assert _relative(weights[i], ref_w) <= 1e-12, i


def test_oracle_rows_of_a_batch_equal_one_row_calls():
    prior, op, ys = _oracle_case(71, "mask", 20, 0.05, d=32, K=4)
    means, weights = harness.oracle_posterior(prior, op, ys, 0.05)
    assert means.shape == (20, 32) and weights.shape == (20, 4)
    for i in range(20):
        mean, w = harness.oracle_posterior(prior, op, ys[i], 0.05)
        assert mean.shape == (32,) and w.shape == (4,)
        assert _relative(means[i], mean) <= 1e-12
        assert _relative(weights[i], w) <= 1e-12


@given(
    prior_seed=st.integers(0, 2**31),
    kind=st.sampled_from(sorted(_ORACLE_OPERATORS) + ["dense"]),
    n_rows=st.integers(1, 6),
    sigma_y=st.sampled_from([0.0, 1e-3, 0.05, 1.0]),
    K=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_batched_oracle_matches_per_row_loop(prior_seed, kind, n_rows, sigma_y, K):
    prior, op, ys = _oracle_case(prior_seed, kind, n_rows, sigma_y, K=K)
    means, weights = harness.oracle_posterior(prior, op, ys, sigma_y)
    for i in range(n_rows):
        ref_mean, ref_w = _per_row_oracle(prior, op, ys[i], sigma_y)
        assert _relative(means[i], ref_mean) <= 1e-12
        assert _relative(weights[i], ref_w) <= 1e-12


# ---------------------------------------------------------------------------
# evaluation, experiments, sweep
# ---------------------------------------------------------------------------


def test_evaluate_and_csv(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    recon = np.zeros((2, 4))
    truth = np.ones((2, 4))
    columns = harness.evaluate(recon, truth, cfg)
    assert columns == {"mse": [1.0, 1.0], "psnr": [10 * math.log10(4.0)] * 2, "oracle_mse": None}
    lines = harness.metrics_csv(columns).split("\n")
    assert lines == ["sample,mse,psnr,oracle_mse", "0,1,6.02059991328,", "1,1,6.02059991328,", ""]


def test_evaluate_columns_equal_the_one_row_metrics_bit_for_bit(tmp_path):
    # one vectorized pass over the rows gives the bytes of numerics.mse and numerics.psnr
    # on each row, at row lengths on and around the pairwise-summation block sizes
    cfg = harness.load_config(write_config(tmp_path / "c.json", peak=1.5))
    stream = RngStream(17)
    for d in (1, 7, 8, 9, 31, 32, 33, 256):
        for n in (1, 3, 50):
            truth = stream.standard_normal((n, d))
            recon = truth + 0.3 * stream.standard_normal((n, d))
            oracle = truth + 0.1 * stream.standard_normal((n, d))
            recon[n // 2] = truth[n // 2]  # a row equal to its truth: PSNR inf
            columns = harness.evaluate(recon, truth, cfg, oracle)
            assert columns == {"mse": [mse(r, t) for r, t in zip(recon, truth)],
                               "psnr": [psnr(r, t, 1.5) for r, t in zip(recon, truth)],
                               "oracle_mse": [mse(r, o) for r, o in zip(recon, oracle)]}, (d, n)
            assert all(type(v) is float for col in columns.values() for v in col)
            assert columns["psnr"][n // 2] == math.inf
            lines = harness.metrics_csv(columns).split("\n")[1:-1]
            assert lines[n // 2].split(",")[2] == "inf"
            assert [line.split(",")[3] for line in lines] == [
                f"{v:.12g}" for v in columns["oracle_mse"]]


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
                       identity_coeffs(grid), 11,
                       stream=RngStream(11, stream_id=1001))
    assert np.array_equal(recons[1], manual)
    assert np.array_equal(truths, truths2)


@pytest.mark.parametrize("name", canon.ALGORITHMS)
def test_base_run_builds_no_coefficients_and_combines_nothing(tmp_path, monkeypatch, name):
    # a base run is the plain solver: no coefficients built, no combine call, and the
    # same bytes as identity-coefficient inference on the same (N, 1, m) batch and streams
    cfg = harness.load_config(write_config(tmp_path / "c.json", algorithm={"name": name},
                                           steps=3, lle="none"))
    _, ys, op = harness.make_test_batch(cfg)
    obs = ops.Observation(y=ys[:, None, :], op=op, sigma_y=cfg.sigma_y)
    streams = RowStreams(RngStream(11, stream_id=1000 + i) for i in range(cfg.n_test))
    want = lle.infer(cfg.params, cfg.prior, cfg.schedule, obs, cfg.grid,
                     identity_coeffs(cfg.grid), 11, stream=streams)[:, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("a base run built or combined coefficients")

    monkeypatch.setattr(lle.LLECoefficients, "__init__", refuse)
    monkeypatch.setattr(lle, "combine", refuse)
    recons, _ = harness.run_experiment(cfg, seed=11)
    assert cfg.n_test == 3
    assert recons.tobytes() == want.tobytes()


def test_ddnm_is_ddrm_at_unit_eta_b(tmp_path):
    # one spectral corrector and noiser serve both: equal bytes on a noisy
    # mask, where two separate implementations differed by rounding
    assert canon.SOLVERS["DDNM"][1:3] == canon.SOLVERS["DDRM"][1:3]
    recons = {}
    for name in ("DDRM", "DDNM"):
        path = write_config(tmp_path / f"{name}.json", algorithm={"name": name}, steps=3)
        recons[name] = harness.run_experiment(harness.load_config(path), seed=11)[0]
    assert recons["DDNM"].tobytes() == recons["DDRM"].tobytes()


def test_ddnm_reads_eta_b(tmp_path):
    recons = {}
    for name, eta_b in (("DDRM", 0.5), ("DDNM", 0.5), ("DDNM", 1.0)):
        path = write_config(tmp_path / f"{name}-{eta_b}.json",
                            algorithm={"name": name, "eta_b": eta_b}, steps=3)
        recons[name, eta_b] = harness.run_experiment(harness.load_config(path), seed=11)[0]
    assert recons["DDNM", 0.5].tobytes() == recons["DDRM", 0.5].tobytes()
    assert not np.allclose(recons["DDNM", 0.5], recons["DDNM", 1.0])


def test_run_experiment_is_one_driver_call(tmp_path, monkeypatch):
    # all n_test rows go through one (N, 1, d) driver call, not a per-row loop
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    calls = []
    orig = canon.run_with_combiner

    def spy(params, prior, schedule, obs, grid, stream, combiner=None):
        calls.append(obs.y.shape)
        return orig(params, prior, schedule, obs, grid, stream, combiner)

    monkeypatch.setattr(canon, "run_with_combiner", spy)
    recons, _ = harness.run_experiment(cfg, seed=11)
    assert calls == [(cfg.n_test, 1, cfg.op.m)]
    assert recons.shape == (cfg.n_test, cfg.prior.d)


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


def test_sweep_survives_cell_failures(tmp_path, monkeypatch):
    # a corrector that fails in every driver call fails each cell, not the sweep
    cfg = harness.load_config(write_config(tmp_path / "c.json"))

    def broken(*args, **kwargs):
        raise harness.ConfigError("no corrector")

    monkeypatch.setitem(canon.CORRECTORS, "DDNM", broken)
    text = harness.sweep(cfg, [2])
    assert "error" in text
    assert text.count("\n") == 3  # header + two rows despite the failures


def test_sweep_repeats_identically(tmp_path):
    cfg_path = write_config(tmp_path / "c.json")
    first = harness.sweep(harness.load_config(cfg_path), [2, 3])
    second = harness.sweep(harness.load_config(cfg_path), [2, 3])
    assert first == second


@pytest.mark.parametrize("steps, message", [
    ([2, 0], "S=0 outside [1, 1000]"),
    ([2, 2000], "S=2000 outside [1, 1000]"),
])
def test_sweep_rejects_an_invalid_step_count_before_any_cell_runs(tmp_path, monkeypatch,
                                                                  steps, message):
    # earlier each invalid S became a pair of error:ConfigError rows, message lost
    cfg = harness.load_config(write_config(tmp_path / "c.json"))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before every step count was checked")

    monkeypatch.setattr(lle, "generate_references", no_work)
    monkeypatch.setattr(harness, "_sweep_cell", no_work)
    with pytest.raises(harness.ConfigError, match=re.escape(message)):
        harness.sweep(cfg, steps)


def _csv_rows(text):
    return [tuple(line.split(",")) for line in text.strip().split("\n")[1:]]


def test_sweep_draws_references_once_and_matches_separate_cells(tmp_path, monkeypatch):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))
    calls = []
    real = lle.generate_references

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lle, "generate_references", spy)
    text = harness.sweep(cfg, [2, 3, 4])
    assert len(calls) == 1
    # each cell on its own, training draws its own references
    expected = []
    for S in (2, 3, 4):
        rows = sorted(harness._sweep_cell(cfg, dif.make_time_grid(cfg.schedule, S)),
                      key=lambda r: r[2])
        expected += [(a, str(s), strat, f"{m:.12g}", f"{p:.12g}") for a, s, strat, m, p in rows]
    assert len(calls) == 4
    assert _csv_rows(text) == expected


def test_sweep_without_training_runs_each_cell_once(tmp_path, monkeypatch):
    # with no lle block the LLE row is the base solver's: one driver call per step
    # count, written as both rows with the bytes of a base run_experiment
    cfg = harness.load_config(write_config(tmp_path / "c.json", lle="none"))
    calls = []
    orig = canon.run_with_combiner

    def spy(*args, **kwargs):
        calls.append(args[4].S)
        return orig(*args, **kwargs)

    monkeypatch.setattr(canon, "run_with_combiner", spy)
    text = harness.sweep(cfg, [3, 5])
    assert calls == [3, 5]
    monkeypatch.undo()
    expected = "algorithm,S,strategy,mean_mse,mean_psnr\n"
    for S in (3, 5):
        recon, truths = harness.run_experiment(
            dataclasses.replace(cfg, grid=dif.make_time_grid(cfg.schedule, S)), cfg.test_seed)
        m, p = mse(recon, truths), np.mean([psnr(r, t, cfg.peak) for r, t in zip(recon, truths)])
        expected += "".join(f"DDNM,{S},{strategy},{m:.12g},{p:.12g}\n"
                            for strategy in ("LLE", "base"))
    assert text == expected


def test_sweep_reference_failure_gives_lle_error_rows(tmp_path, monkeypatch):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))

    def broken(*args, **kwargs):
        raise RuntimeError("no references")

    monkeypatch.setattr(lle, "generate_references", broken)
    rows = _csv_rows(harness.sweep(cfg, [2, 3]))
    assert [r[:3] for r in rows] == [("DDNM", "2", "LLE"), ("DDNM", "2", "base"),
                                     ("DDNM", "3", "LLE"), ("DDNM", "3", "base")]
    for r in rows:
        if r[2] == "LLE":
            assert r[3:] == ("error", "error:RuntimeError")
        else:
            assert math.isfinite(float(r[3])) and math.isfinite(float(r[4]))


def test_sweep_mean_psnr_is_mean_of_per_sample_psnr(tmp_path):
    cfg = harness.load_config(write_config(tmp_path / "c.json", n_test=4))
    rows = {(r[1], r[2]): r for r in _csv_rows(harness.sweep(cfg, [2]))}
    recon, truths = harness.run_experiment(cfg, cfg.test_seed)
    per_sample = [psnr(r, t, cfg.peak) for r, t in zip(recon, truths)]
    assert float(rows[("2", "base")][4]) == pytest.approx(np.mean(per_sample), rel=1e-11)
    pooled = psnr(recon, truths, cfg.peak)
    assert abs(np.mean(per_sample) - pooled) > 1e-6  # the two differ on this batch


# ---------------------------------------------------------------------------
# config rule tables
# ---------------------------------------------------------------------------


def _base_config():
    return {
        "prior": {"dim": 4, "components": 2, "seed": 9},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1},
                 "sigma_y": 0.05},
        "algorithm": {"name": "DDNM"},
        "steps": 2,
        "n_test": 3,
        "seeds": {"train": 5, "test": 6},
    }


def _load_raw(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return harness.load_config(path)


def _set(cfg, path, value):
    """Set the dotted path of cfg to value, creating blocks on the way."""
    *parents, key = path.split(".")
    for p in parents:
        cfg = cfg.setdefault(p, {})
    cfg[key] = value


@pytest.mark.parametrize("path, value", [
    # accepted and ignored by earlier loaders
    ("n_tests", 5),
    ("schedule.betastart", 0.5),
    ("prior.sed", 3),
    ("seeds.tran", 3),
    ("task.sigma", 0.1),
    ("task.operator.sed", 3),
    # a bare TypeError or AttributeError naming no key
    ("schedule.T", "1000"),
    ("schedule.T", 10.5),
    ("prior.dim", "4"),
    ("algorithm", "DDNM"),
    # loaded, then every row failed at run time with a ConfigError
    ("algorithm.daps.sigma_langevin", 0.0),
])
def test_load_config_names_each_bad_key(tmp_path, path, value):
    raw = _base_config()
    _set(raw, path, value)
    with pytest.raises(harness.ConfigError, match=re.escape(path)):
        _load_raw(tmp_path, raw)


def test_mask_keep_is_rejected_at_load(tmp_path):
    # earlier loaders accepted it, then failed at run time with KeyError
    raw = _base_config()
    raw["task"]["operator"] = {"kind": "mask", "keep": 0.5}
    with pytest.raises(harness.ConfigError, match=re.escape("task.operator.keep")):
        _load_raw(tmp_path, raw)


@pytest.mark.parametrize("operator, named", [
    ({"kind": "fft"}, "task.operator.kind"),
    ({"kind": "dense", "matrix": [[1.0] * 4], "seed": 3}, "task.operator.seed"),
    ({"kind": "avgpool"}, "task.operator.factor"),
    ({"kind": "mask", "keep_ratio": 0.5, "keep_indices": [0]}, "task.operator.keep_ratio"),
    ({"kind": "blur", "width": 3}, "task.operator.sigma"),
    ({"kind": "mask", "keep_ratio": "0.5"}, "task.operator.keep_ratio"),
    ({"kind": "hadamard", "keep_ratio": 0.0}, "task.operator.keep_ratio"),
    ({"kind": "nonlinear", "scale": -1.0}, "task.operator.scale"),
    ({"kind": "mask", "keep_ratio": 0.5, "n": 5}, "task.operator"),
    ({"kind": "mask", "keep_indices": [0, 2], "seed": 4}, "task.operator.seed"),
    ({"kind": "nonlinear", "kernel": [0.25, 0.5, 0.25], "width": 3}, "task.operator.width"),
    ({"kind": "blur", "kernel": [0.25, 0.5, 0.25], "width": 3}, "task.operator.width"),
    ({"kind": "dense", "matrix": [[1.0, 2.0]]}, "task.operator"),
    # list entries: earlier loaders truncated or cast these, or raised a bare ValueError
    ({"kind": "mask", "keep_indices": [1.5, 2]}, "task.operator.keep_indices[0]"),
    ({"kind": "mask", "keep_indices": [True, 2]}, "task.operator.keep_indices[0]"),
    ({"kind": "blur", "kernel": [0.25, "a", 0.25]}, "task.operator.kernel[1]"),
    ({"kind": "dense", "matrix": [[1.0, 0.0, 0.0, 0.0], [0.0, "x", 0.0, 0.0]]},
     "task.operator.matrix[1][1]"),
    # earlier loaders took task.operator.n at its one allowed value, prior.dim, and
    # accepted these nulls, a key no form of the kind reads or a second selecting key
    ({"kind": "mask", "keep_ratio": 0.5, "n": 4}, "unknown config key(s) task.operator.n"),
    ({"kind": "dense", "matrix": [[1.0] * 4], "keep_ratio": None},
     "operator kind 'dense' takes no key task.operator.keep_ratio"),
    ({"kind": "avgpool", "factor": 2, "kernel": None},
     "operator kind 'avgpool' takes no key task.operator.kernel"),
    ({"kind": "blur", "sigma": 1.0, "width": 3, "seed": None},
     "operator kind 'blur' takes no key task.operator.seed"),
    ({"kind": "mask", "keep_indices": [0, 1], "keep_ratio": None},
     "needs exactly one of task.operator.keep_indices, task.operator.keep_ratio"),
    ({"kind": "blur", "sigma": 1.0, "width": 3, "kernel": None},
     "needs exactly one of task.operator.kernel, task.operator.sigma"),
    ({"kind": "nonlinear", "kernel": None},
     "task.operator.kernel has no default, so it may not be null"),
])
def test_load_config_checks_operator_keys_per_kind(tmp_path, operator, named):
    raw = _base_config()
    raw["task"]["operator"] = operator
    with pytest.raises(harness.ConfigError, match=re.escape(named)):
        _load_raw(tmp_path, raw)


@pytest.mark.parametrize("kind", ["mask", "hadamard"])
def test_a_null_seed_beside_a_keep_all_ratio_is_rejected(tmp_path, kind):
    # earlier only a non-null seed was rejected here, while keep_indices
    # rejected a null one: a given null counts as given in both
    raw = _base_config()
    raw["task"]["operator"] = {"kind": kind, "keep_ratio": 1.0, "seed": None}
    with pytest.raises(harness.ConfigError, match=re.escape(
            "task.operator.seed is not read when task.operator.keep_ratio 1.0"
            " keeps all 4 coordinates")):
        _load_raw(tmp_path, raw)
    raw["task"]["operator"]["keep_ratio"] = 0.5  # the seed is read: null is its default
    assert _load_raw(tmp_path, raw).op.m == 2


# ---- the read probe over the `task.operator` keys ---------------------------

_OPERATOR_FORMS = {
    "mask-indices": {"kind": "mask", "keep_indices": [0, 2, 3, 9]},
    "mask-ratio": {"kind": "mask", "keep_ratio": 0.5, "seed": 4},
    "mask-all": {"kind": "mask", "keep_ratio": 1.0},
    "mask-all-rounded": {"kind": "mask", "keep_ratio": 0.97},  # round(15.52) = 16
    "avgpool": {"kind": "avgpool", "factor": 2},
    "blur-kernel": {"kind": "blur", "kernel": [0.25, 0.5, 0.25]},
    "blur-sigma": {"kind": "blur", "sigma": 1.2},
    "hadamard": {"kind": "hadamard", "keep_ratio": 0.5, "seed": 4},
    "hadamard-all": {"kind": "hadamard", "keep_ratio": 1.0},
    "dense": {"kind": "dense", "matrix": RngStream(6, 1).standard_normal((5, 16)).tolist()},
    "nonlinear": {"kind": "nonlinear"},
    "nonlinear-kernel": {"kind": "nonlinear", "kernel": [0.25, 0.5, 0.25]},
}
# another valid value of each operator key
_OPERATOR_OTHER = {"keep_indices": [1, 2, 3, 9], "keep_ratio": 0.75, "seed": 5,
                   "factor": 4, "kernel": [0.2, 0.6, 0.2], "sigma": 0.8, "width": 7,
                   "matrix": RngStream(7, 1).standard_normal((5, 16)).tolist(), "scale": 0.5}


def _keys_of_kind(kind):
    """Every key some form of the operator kind reads (`ops.OPERATORS`)."""
    return {key for select, (reads, _) in ops.OPERATORS[kind].items()
            for key in (select, *reads)} - {None}


def _form_of(spec):
    """The (select key, {read key: default}) of the `ops.OPERATORS` form that the
    keys of spec select."""
    forms = ops.OPERATORS[spec["kind"]]
    select = next(key for key in forms if key in spec or key is None)
    return select, forms[select][0]


def _operator_bytes(op) -> bytes:
    return b"".join(np.asarray(value).tobytes() for value in vars(op).values())


@pytest.mark.parametrize("form", _OPERATOR_FORMS)
def test_every_operator_key_is_read_or_rejected(form):
    # earlier seed at a keep_ratio that keeps every coordinate built the same operator
    spec = _OPERATOR_FORMS[form]
    cfg = dict(_base_config(), prior={"dim": 16, "components": 2, "seed": 9},
               algorithm={"name": "DPS"})
    cfg["task"]["operator"] = spec
    base = _operator_bytes(loaded(cfg).op)
    read, unread = set(), set()
    for key in sorted(_keys_of_kind(spec["kind"])):
        path = f"task.operator.{key}"
        try:
            moved = _operator_bytes(loaded(with_value(cfg, path, _OPERATOR_OTHER[key])).op)
        except harness.ConfigError as exc:
            if says_unread(exc, path):  # and built past the loader, it changes nothing
                unread.add(key)
                past = ops.build_operator(16, {**spec, key: _OPERATOR_OTHER[key]})
                assert _operator_bytes(past) == base, key
            continue  # a second selecting key
        assert moved != base, key
        read.add(key)
    given = {k for k in spec if k != "kind"}
    assert read >= given and unread == {
        "mask-indices": {"seed"}, "mask-all": {"seed"}, "mask-all-rounded": {"seed"},
        "hadamard-all": {"seed"}, "blur-kernel": {"width"},
        "nonlinear-kernel": {"width", "sigma"}}.get(form, set())


@pytest.mark.parametrize("dim", [4, 8])
def test_blur_past_the_signal_names_the_key_that_sets_its_length(tmp_path, dim):
    # earlier loaders said "kernel longer than signal" here, naming a kernel no config gave
    raw = dict(_base_config(), prior={"dim": dim, "components": 2, "seed": 9})
    raw["task"]["operator"] = {"kind": "blur", "sigma": 1.0}  # at the default width 9
    with pytest.raises(harness.ConfigError, match=re.escape(
            f"task.operator.width 9 is longer than the signal ({dim})")):
        _load_raw(tmp_path, raw)
    raw["task"]["operator"] = {"kind": "blur", "kernel": [1.0 / (dim + 1)] * (dim + 1)}
    with pytest.raises(harness.ConfigError, match=re.escape(
            f"task.operator.kernel has length {dim + 1}, longer than the signal ({dim})")):
        _load_raw(tmp_path, raw)
    raw["task"]["operator"] = {"kind": "blur", "sigma": 1.0, "width": dim - 1}
    assert _load_raw(tmp_path, raw).op.n == dim


@pytest.mark.parametrize("dim, operator, width", [
    (4, {"kind": "nonlinear"}, 5),  # at the default width
    (8, {"kind": "nonlinear", "width": 9}, 9)])
def test_nonlinear_past_the_signal_names_the_key_that_sets_its_length(tmp_path, dim, operator,
                                                                       width):
    # earlier loaders accepted both, and the circular convolution wrapped the end taps
    # onto shared offsets
    raw = dict(_base_config(), prior={"dim": dim, "components": 2, "seed": 9},
               algorithm={"name": "DPS"})
    raw["task"]["operator"] = operator
    with pytest.raises(harness.ConfigError, match=re.escape(
            f"task.operator.width {width} is longer than the signal ({dim})")):
        _load_raw(tmp_path, raw)
    raw["task"]["operator"] = {"kind": "nonlinear", "kernel": [1.0 / (dim + 1)] * (dim + 1)}
    with pytest.raises(harness.ConfigError, match=re.escape(
            f"task.operator.kernel has length {dim + 1}, longer than the signal ({dim})")):
        _load_raw(tmp_path, raw)
    for operator in ({"kind": "nonlinear", "width": dim - 1},
                     {"kind": "nonlinear", "kernel": [1.0 / (dim - 1)] * (dim - 1)}):
        raw["task"]["operator"] = operator
        assert _load_raw(tmp_path, raw).op.kernel.size == dim - 1


@pytest.mark.parametrize("operator", [
    {"kind": "avgpool", "factor": 3},  # 3 does not divide prior.dim 4
    {"kind": "mask", "keep_indices": [7]},  # out of range for prior.dim 4
    {"kind": "blur", "kernel": [0.25, 0.5]},  # even length
    {"kind": "nonlinear", "kernel": [0.2, 0.3, 0.4]},  # not normalized
])
def test_operator_builder_errors_name_the_operator_block(tmp_path, operator):
    raw = _base_config()
    raw["task"]["operator"] = operator
    with pytest.raises(harness.ConfigError, match=re.escape("task.operator")):
        _load_raw(tmp_path, raw)


@pytest.mark.parametrize("key, index, value", [
    ("covariances", (0, 1, 1), "1"),  # earlier loaders read it as 1.0
    ("means", (1, 2), float("nan")),  # earlier loaders failed every run on it
])
def test_load_config_checks_every_inline_prior_entry(tmp_path, key, index, value):
    prior = harness.random_prior(4, 2, seed=9)
    raw = _base_config()
    raw["prior"] = {k: getattr(prior, k).tolist() for k in ("weights", "means", "covariances")}
    _load_raw(tmp_path, raw)
    *outer, last = index
    entries = raw["prior"][key]
    for i in outer:
        entries = entries[i]
    entries[last] = value
    named = f"prior.{key}" + "".join(f"[{i}]" for i in index)
    with pytest.raises(harness.ConfigError, match=re.escape(named)):
        _load_raw(tmp_path, raw)


def test_mask_rejects_a_repeated_index(tmp_path):
    # earlier loaders built V^T V = [[1, 1], [1, 1]] from [1, 1], so the range
    # projection A+(A x) of x = [0, 1, 2, 3] read [0, 2, 0, 0], not [0, 1, 0, 0]
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert ops.project(ops.mask_operator(4, [1]), x, "range").tolist() == [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(harness.ConfigError, match="distinct"):
        ops.mask_operator(4, [1, 1])
    raw = _base_config()
    raw["task"]["operator"] = {"kind": "mask", "keep_indices": [1, 3, 1]}
    with pytest.raises(harness.ConfigError, match=re.escape("task.operator: mask indices")):
        _load_raw(tmp_path, raw)


def test_operator_is_built_once_at_load(tmp_path, monkeypatch):
    cfg = harness.load_config(write_config(tmp_path / "c.json"))

    def rebuilt(spec):
        raise AssertionError("operator rebuilt after load")

    monkeypatch.setattr(ops, "build_operator", rebuilt)
    op = cfg.op
    _, _, batch_op = harness.make_test_batch(cfg)
    assert batch_op is op
    harness.train_lle(cfg)


def test_load_config_rejects_steps_beyond_schedule(tmp_path):
    raw = _base_config()
    raw["schedule"] = {"T": 10}
    raw["steps"] = 11
    with pytest.raises(harness.ConfigError, match="steps"):
        _load_raw(tmp_path, raw)


def test_load_config_rejects_schedule_without_signal(tmp_path):
    # every beta lies in (0, 1), yet alphabar_T underflows, and earlier loaders
    # ran it to all-NaN reconstructions
    raw = _base_config()
    raw["schedule"] = {"beta_end": 0.9999}
    with pytest.raises(harness.ConfigError, match=re.escape("schedule.beta_end")):
        _load_raw(tmp_path, raw)


@pytest.mark.parametrize("schedule, named", [
    # earlier loaders ended in np.linspace's bare "Maximum allowed size exceeded"
    ({"T": 10**400}, "schedule.T must be <= 100000"),
    # alphabar_1 rounds to 1, and noiser_ddim divided by 1 - alphabar_1 = 0 at run time
    ({"T": 100, "beta_start": 1e-20}, "schedule.beta_start is too small"),
])
def test_load_config_rejects_schedule_past_its_range(tmp_path, schedule, named):
    raw = _base_config()
    raw["schedule"] = schedule
    with pytest.raises(harness.ConfigError, match=re.escape(named)):
        _load_raw(tmp_path, raw)
    raw["schedule"] = {"T": 100_000, "beta_start": 1e-15, "beta_end": 1e-4}  # the edges load
    assert _load_raw(tmp_path, raw).schedule.alphabar(1) < 1.0


def test_load_config_rejects_malformed_inline_prior(tmp_path):
    raw = _base_config()
    raw["prior"] = {"weights": [0.5, 0.5], "means": [[0.0] * 4] * 2,
                    "covariances": [np.eye(3).tolist()] * 2}
    with pytest.raises(harness.ConfigError, match="prior"):
        _load_raw(tmp_path, raw)
    raw["prior"]["covariances"] = [np.eye(4).tolist()] * 2
    raw["prior"]["weights"] = [0.25, 0.25, 0.5]
    with pytest.raises(harness.ConfigError, match="prior"):
        _load_raw(tmp_path, raw)
    raw["prior"]["weights"] = [0.5, 0.5]
    cfg = _load_raw(tmp_path, raw)
    assert cfg.prior.d == 4 and cfg.prior.K == 2


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "prior-file"])
def test_load_config_rejects_a_non_symmetric_prior_covariance(tmp_path, inline):
    # cholesky and eigh read its lower triangle only, the posterior oracle all of it
    lopsided = np.eye(4)
    lopsided[0, 1] = 0.9
    block = {"weights": [0.5, 0.5], "means": [[0.0] * 4] * 2,
             "covariances": [np.eye(4).tolist(), lopsided.tolist()]}
    raw = _base_config()
    raw["prior"] = block if inline else {"file": "prior.json"}
    (tmp_path / "prior.json").write_text(json.dumps(block))
    where = "prior" if inline else "prior.file"
    with pytest.raises(harness.ConfigError,
                       match=rf"^{re.escape(where)}: covariance 1 is not symmetric"):
        _load_raw(tmp_path, raw)
    lopsided[0, 1] = 1.0 + 1e-13  # within 1e-12 of the largest entry: rounding, accepted
    lopsided[1, 0] = 1.0
    lopsided[0, 0] = lopsided[1, 1] = 2.0
    block["covariances"][1] = lopsided.tolist()
    (tmp_path / "prior.json").write_text(json.dumps(block))
    raw["prior"] = block if inline else {"file": "prior.json"}
    assert _load_raw(tmp_path, raw).prior.K == 2


@pytest.mark.parametrize("text, where", [("", "line 1 column 1"),
                                         ('{"prior": {"dim": 4,\n', "line 2 column 1")])
def test_load_config_rejects_invalid_json_naming_where(tmp_path, text, where):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(harness.ConfigError, match=re.escape(f"{path} is not valid JSON")) as err:
        harness.load_config(path)
    assert where in str(err.value)


def test_config_error_is_the_configuration_error():
    # one exception type, so a sweep's error rows name ConfigError whichever
    # module raised it
    assert harness.ConfigError is canon.ConfigError is ops.ConfigError is errors.ConfigError
    with pytest.raises(harness.ConfigError, match=re.escape("algorithm.eta")):
        canon.AlgoParams(algorithm="DPS", eta=1.5)


def _config_blocks():
    seen, todo = [], [ConfigBlock]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            seen.append(sub)
            todo.append(sub)
    return seen


def test_readme_config_schema_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n### ", 1)[0]
    blocks = _config_blocks()
    assert {"seeds", "schedule", "task", "task.operator", "prior", "algorithm",
            "algorithm.daps", "algorithm.inner_opt", "lle"} <= {b.block for b in blocks}
    missing = [f"{cls.block}.{key}" for cls in blocks for key in cls.rules
               if not re.search(rf"\b{re.escape(key)}\b", section)]
    assert not missing
    for kind in ops.OPERATORS:
        assert f"| {kind} |" in section, kind


def test_every_unread_when_table_has_its_exactness_test():
    # the read probes run each entry of these: the `algorithm` tables and the solvers'
    # in tests/test_canonical.py, TrainConfig's and LLECoefficients' in
    # tests/test_extrapolation.py, and each form of `ops.OPERATORS`, which decides the
    # operator keys, in test_every_operator_key_is_read_or_rejected
    assert {cls for cls in _config_blocks() if cls.unread_when} == {
        canon.AlgoParams, canon.DAPSParams, canon.InnerOptParams, lle.TrainConfig,
        lle.LLECoefficients}
    assert [name for name, solver in canon.SOLVERS.items() if solver.unread_when] == ["DiffPIR"]
    probed = {(spec["kind"], _form_of(spec)[0]) for spec in _OPERATOR_FORMS.values()}
    assert probed == {(kind, select) for kind, forms in ops.OPERATORS.items() for select in forms}


def keys_read_table() -> str:
    """The README's table of the `algorithm` keys each solver reads, from `SOLVERS`."""
    rows = ["| `name` | Keys read, at their preset values | Linear operator | Not read |",
            "| --- | --- | --- | --- |"]
    for name, solver in canon.SOLVERS.items():
        values = field_values(canon.default_params(name))
        keys = [f"`{path}` {json.dumps(_at(values, path))}" for path in _key_paths(values)
                if not isinstance(_at(values, path), dict) and preset_lists(name, path)]
        linear = ("always" if solver.linear is True
                  else f"with `{solver.linear}` true" if solver.linear else "no")
        unread = "; ".join(f"{', '.join(f'`{key}`' for key in keys)} when `{switch}` is"
                           f" {json.dumps(value)}" for (switch, value), keys
                           in solver.unread_when.items()) or "-"
        rows.append(f"| {name} | {', '.join(keys)} | {linear} | {unread} |")
    return "\n".join(rows)


def test_readme_keys_read_table_is_generated_from_solvers():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("<!-- keys-read table: begin -->\n", 1)[1].split("\n<!--", 1)[0]
    assert table == keys_read_table(), keys_read_table()


def operator_table() -> str:
    """The README's table of the `task.operator` forms, from `ops.OPERATORS`."""
    rows = ["| `kind` | Selected by | Other keys read, at their defaults |", "| --- | --- | --- |"]
    for kind, forms in ops.OPERATORS.items():
        for select, (reads, _) in forms.items():
            picks = f"`{select}`" if select else "no " + ", ".join(f"`{k}`" for k in forms if k)
            keys = ", ".join(f"`{key}` {json.dumps(value)}" for key, value in reads.items())
            rows.append(f"| {kind} | {picks} | {keys or '-'} |")
    return "\n".join(rows)


def test_readme_operator_table_is_generated_from_operators():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("<!-- operator table: begin -->\n", 1)[1].split("\n<!--", 1)[0]
    assert table == operator_table(), operator_table()


# ---- property: a mutated config names its key; a valid one runs -----------

_WRONG_VALUES = ("x", True, [1], None, float("nan"), float("inf"))
# keys whose null means "use the default", besides the operator keys of `_nullable`
_NULLABLE = {"lle", "algorithm.daps.sigma_langevin"}
_REQUIRED = {"prior", "task", "algorithm", "task.operator", "algorithm.name", "prior.dim",
             "prior.components"}


def _required(cfg, path):
    """Whether cfg without the key at path is an error: of the operator keys, the kind
    and the key that selects the form, where the kind has no form without one."""
    block, _, key = path.rpartition(".")
    if block == "task.operator":
        forms = ops.OPERATORS[cfg["task"]["operator"]["kind"]]
        return key == "kind" or key in forms and None not in forms
    return path in _REQUIRED


def _nullable(cfg, path):
    """Whether a null at path means its default: of the operator keys, one that the
    form cfg selects reads with a default."""
    block, _, key = path.rpartition(".")
    if block == "task.operator":
        return key in _form_of(cfg["task"]["operator"])[1]
    return path in _NULLABLE


@st.composite
def _valid_configs(draw):
    d = draw(st.sampled_from([4, 8]))
    algorithm = draw(st.sampled_from(canon.ALGORITHMS))
    solver = canon.SOLVERS[algorithm]
    kind = draw(st.sampled_from([kind for kind in ops.OPERATORS
                                 if kind != "nonlinear" or solver.linear is not True]))
    seed = draw(st.integers(0, 2**31))
    select = draw(st.sampled_from(list(ops.OPERATORS[kind])))
    value = {  # a valid value of each operator key at prior.dim d
        "keep_indices": lambda: sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))),
        "keep_ratio": lambda: draw(st.sampled_from([0.5, 0.75, 1.0])), "seed": lambda: seed,
        "factor": lambda: 2, "kernel": lambda: [0.25, 0.5, 0.25], "width": lambda: 3,
        "sigma": lambda: draw(st.floats(0.5, 2.0)),
        "scale": lambda: draw(st.sampled_from([0.5, 1.0])),
        "matrix": lambda: (RngStream(seed, 3).standard_normal((draw(st.integers(1, d)), d))
                           / math.sqrt(d)).tolist()}
    operator = {"kind": kind}
    for key in (select, *ops.OPERATORS[kind][select][0]):  # every key the form reads
        if key:
            operator[key] = value[key]()
    if operator.get("keep_ratio") == 1.0:  # keeping every coordinate reads no seed
        del operator["seed"]
    linear = kind != "nonlinear"
    sigma_y = draw(st.sampled_from([0.0, 0.01, 0.1]))
    alg = {"name": algorithm, **copy.deepcopy(solver.preset)}  # keys it reads
    # the switches that need a linear operator are on only on one; a key a switch or the
    # task leaves unread is not drawn
    if "daps" in alg:
        daps = alg["daps"] = {"k_ddim": 2, "n_langevin": draw(st.sampled_from([0, 5]))}
        if daps["n_langevin"]:
            daps.update(eta0=draw(st.sampled_from([0.0, 1e-4])),
                        noiseless_linear=linear and draw(st.booleans()))
        if daps.get("eta0"):
            daps["delta"] = 0.01
            if not daps["noiseless_linear"]:
                daps["sigma_langevin"] = draw(st.sampled_from([None, 0.05]))
    if "exact_hc" in alg:
        alg["exact_hc"] = linear and draw(st.booleans())
    if "inner_opt" in alg:
        alg["inner_opt"]["steps"] = draw(st.sampled_from([0, 5]))
        if alg["inner_opt"]["steps"] == 0:
            alg["inner_opt"] = {"steps": 0}
        if alg.get("exact_hc"):
            del alg["inner_opt"]
    if "xi" in alg:
        alg["xi"] = draw(st.sampled_from([0.0, 1.0]))
        if alg["xi"] == 0.0:
            del alg["lam"]
    task = {"task.operator": "linear" if linear else "nonlinear", "task.sigma_y": sigma_y}
    for (switch, value), keys in solver.unread_when.items():
        block, _, key = switch.rpartition(".")
        if (task[switch] if switch in task else alg.get(block, {}).get(key)) == value:
            for key in keys:
                alg.pop(key, None)
    prior = {"dim": d, "components": 2, "seed": seed}
    if draw(st.booleans()):  # the same mixture, inline
        mixture = harness.random_prior(d, 2, seed)
        prior = {k: getattr(mixture, k).tolist() for k in ("weights", "means", "covariances")}
    cfg = {
        "prior": prior,
        "schedule": {"T": 1000, "beta_start": 1e-4, "beta_end": 0.02},
        "task": {"operator": operator, "sigma_y": sigma_y},
        "algorithm": alg,
        "steps": 2,
        "n_test": 1,
        "peak": 2.0,
        "seeds": {"train": seed, "test": seed + 1},
    }
    if draw(st.booleans()):
        fit = {"n_refs": 4, "ref_steps": 10,
               "plugin": draw(st.sampled_from(["none", "gradient-domain"])),
               "init_mode": draw(st.sampled_from(["adaptive-linear", "soft-nonlinear"])),
               "noisy_gt": False, "decoupled": False, "closed_form": draw(st.booleans()),
               "base_seed": seed}
        if fit["plugin"] != "none":
            fit["omega"] = draw(st.sampled_from([0.05, 0.1]))
        if not fit["closed_form"]:
            fit["epochs"] = draw(st.sampled_from([0, 3]))
        if fit.get("epochs"):
            fit.update(optimizer=draw(st.sampled_from(["schedule-free", "adam"])),
                       lr_rule=draw(st.sampled_from(["constant", "dynamic"])))
        if fit.get("optimizer") == "schedule-free":
            fit["warmup"] = 1
        cfg["lle"] = fit
    return cfg


def _is_wrong(candidate, value, nullable):
    """Whether candidate is a wrong value where the valid config has value; nullable:
    whether a null there means the default."""
    if candidate is None:
        return not nullable
    if isinstance(candidate, float) and not math.isfinite(candidate):
        return True  # wrong even where a float is right
    return type(candidate) is not type(value)


def _leaf(value, draw):
    """(the list of a random innermost entry of a list value, that entry's index)."""
    while isinstance(value[0], list):
        value = value[draw(st.integers(0, len(value) - 1))]
    return value, draw(st.integers(0, len(value) - 1))


def _key_paths(block, prefix=""):
    for key, value in block.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _key_paths(value, path + ".")


def _bounds(path):
    """The declared bounds of the field at a dotted path, from the rule tables."""
    parent, _, key = path.rpartition(".")
    tables = {b.block: b for b in _config_blocks()
              if b not in (harness.InlinePrior, harness.PriorFile, lle.LLECoefficients)}
    r = tables[parent].rules.get(key)
    return r.rule[2] if r is not None and r.rule is not None else {}


def _past(bound, limit, value):
    if bound in ("above", "below"):
        return limit
    step = -1 if bound == "minimum" else 1
    if isinstance(value, int) and not isinstance(value, bool):
        return limit + step
    return float(np.nextafter(limit, step * math.inf))


def _at(cfg, path):
    for key in path.split("."):
        cfg = cfg[key]
    return cfg


def _unread_key(draw, cfg):
    """(cfg with a valid value for an algorithm key its algorithm does not read, the
    path its error must name)."""
    name = cfg["algorithm"]["name"]
    values = field_values(canon.default_params(name))
    del values["name"]
    unread = [path for path in _key_paths(values)
              if not isinstance(_at(values, path), dict) and not preset_lists(name, path)]
    path = draw(st.sampled_from(unread))
    mutated = copy.deepcopy(cfg)
    block, _, key = path.rpartition(".")
    target = mutated["algorithm"].setdefault(block, {}) if block else mutated["algorithm"]
    target[key] = _at(values, path)
    # a block the preset does not list at all is named as the block
    return mutated, f"algorithm.{block if block and not preset_lists(name, block) else path}"


# a valid value, not null, for each operator key another form may read
_OPERATOR_VALUES = {"keep_indices": [0], "keep_ratio": 0.5, "seed": 3,
                    "kernel": [0.25, 0.5, 0.25], "sigma": 1.0, "width": 3}


def _switched_off_keys(cfg):
    """[(dotted path, a valid value)] of the keys cfg does not give and one of its
    switches leaves unread: the `unread_when` tables, its solver's on the task, the
    keys of the operator's other forms beside the key that selects its form, and a
    seed beside a keep_ratio that keeps every coordinate."""
    with tempfile.TemporaryDirectory() as tmp:
        config = _load_raw(Path(tmp), cfg)
    blocks = [config.params, config.params.daps, config.params.inner_opt]
    blocks += [config.train_config] if config.train_config else []
    found = []
    for block in blocks:
        given = _given(cfg, block.block)
        for (switch, value), keys in block.unread_when.items():
            if operator.attrgetter(switch)(block) == value:
                found += [(block._path(key), _json_value(block, key)) for key in keys
                          if key not in given]
    task = {"task.operator": "linear" if isinstance(config.op, ops.LinearOperator)
            else "nonlinear", "task.sigma_y": config.sigma_y}
    for (switch, value), keys in canon.SOLVERS[config.params.algorithm].unread_when.items():
        now = task[switch] if switch in task else operator.attrgetter(switch)(config.params)
        if now == value:
            found += [(f"algorithm.{key}", _json_value(config.params, key)) for key in keys
                      if key not in cfg["algorithm"]]
    spec = cfg["task"]["operator"]
    select, reads = _form_of(spec)
    if select:
        found += [(f"task.operator.{key}", _OPERATOR_VALUES[key])
                  for key in sorted(_keys_of_kind(spec["kind"]) - {select, *reads, *spec})]
    if "seed" not in spec and "keep_ratio" in spec and config.op.m == config.op.n:
        found.append(("task.operator.seed", _OPERATOR_VALUES["seed"]))
    return found


def _given(cfg, path):
    """The block of cfg at a dotted path, {} where cfg does not give it."""
    for key in path.split("."):
        cfg = cfg.get(key, {}) if isinstance(cfg, dict) else {}
    return cfg


def _json_value(block, key):
    """The block's value of key as JSON gives it: a nested block as {}."""
    value = getattr(block, key)
    return {} if isinstance(value, ConfigBlock) else value


@st.composite
def _mutations(draw, cfg):
    """(mutated config, the dotted path its error must name). A key the
    algorithm does not read, a key a switch leaves unread and a list-valued
    key are each drawn in a fixed share of the draws: few keys are any of
    these, so a uniform draw would rarely reach them."""
    how = draw(st.sampled_from(["value"] * 5 + ["unread", "switched"]))
    if how == "unread":
        return _unread_key(draw, cfg)
    if how == "switched" and _switched_off_keys(cfg):
        path, value = draw(st.sampled_from(_switched_off_keys(cfg)))
        mutated = copy.deepcopy(cfg)
        _set(mutated, path, value)
        return mutated, path
    paths = sorted(_key_paths(cfg))
    lists = [path for path in paths if isinstance(_at(cfg, path), list)]
    if lists and draw(st.sampled_from([True, False, False])):
        paths = lists
    path = draw(st.sampled_from(paths))
    *parents, key = path.split(".")
    value = _at(cfg, path)
    nullable = _nullable(cfg, path)
    options = ["rename", "wrong"]
    if isinstance(value, list):
        options.append("entry")
    if _required(cfg, path):
        options.append("drop")
    bounds = _bounds(path)
    if bounds:
        options.append("bound")
    how = draw(st.sampled_from(options))
    mutated = copy.deepcopy(cfg)
    target = mutated
    for p in parents:
        target = target[p]
    if how == "rename":
        target[key + "_"] = target.pop(key)
        return mutated, path + "_"
    if how == "drop":
        del target[key]
        return mutated, path
    if how == "bound":
        bound = draw(st.sampled_from(sorted(bounds)))
        target[key] = _past(bound, bounds[bound], value)
        return mutated, path
    if how == "entry":  # one innermost entry of a list, as a wrong value for it
        entries, i = _leaf(target[key], draw)
        wrong = [w for w in _WRONG_VALUES + (1.5,) if _is_wrong(w, entries[i], nullable)]
        entries[i] = draw(st.sampled_from(wrong))
        return mutated, path
    wrong = [w for w in _WRONG_VALUES if _is_wrong(w, value, nullable)]
    target[key] = draw(st.sampled_from(wrong))
    return mutated, path


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_config_is_rejected_naming_its_key_or_runs_finite(data):
    cfg = data.draw(_valid_configs())
    mutated, path = data.draw(_mutations(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        good = _load_raw(Path(tmp), cfg)
        recons, truths = harness.run_experiment(good, seed=3)
        assert recons.shape == truths.shape == (1, good.prior.d)
        assert np.all(np.isfinite(recons))
        with pytest.raises(harness.ConfigError) as err:
            _load_raw(Path(tmp), mutated)
    assert path in str(err.value), (path, str(err.value))
