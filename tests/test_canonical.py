import gc
import math
import operator
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lle import canonical as canon
from lle import config
from lle import harness
from lle import diffusion as dif
from lle import operators as ops
from lle.errors import ConfigError, ConvergenceError
from lle.numerics import TAPE_CHUNK, RngStream, RowStreams, StreamTape

from conftest import (field_values, loaded, preset_lists, random_mixture, random_spd, says_unread,
                      run_tables, scalar_ddim_coeffs, step_context, tweedie, with_value)


def make_ctx(prior, schedule, x_t, t_i, t_prev, stream=None, x0=None):
    """A step context at x_t with no obs or params yet (see `bind`); x0 defaults
    to the Tweedie estimate."""
    ctx = step_context(np.asarray(x_t, dtype=float), t_i, t_prev, prior, schedule,
                       stream if stream is not None else RngStream(99), None, None)
    if x0 is None:
        ctx.x0_sampled = canon.sampler_tweedie(ctx)
    else:
        ctx.x0_sampled = np.asarray(x0, dtype=float)
    return ctx


def bind(ctx, obs, params):
    """ctx's step, state, stream, history and sampled x0 in a fresh one-step run of obs
    and params, the observation and params its stages read."""
    return step_context(ctx.x_t, ctx.t_i, ctx.t_prev, ctx.prior, ctx.schedule, ctx.stream,
                        obs, params, ctx.history, ctx.x0_sampled)


def clone(stream: RngStream) -> RngStream:
    return RngStream(stream.base_seed, stream.stream_id, stream.counter)


def with_eta(name: str, eta: float) -> canon.AlgoParams:
    params = canon.default_params(name)
    params.eta = eta
    return params


# ---------------------------------------------------------------------------
# parameters and sampler
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ConfigError):
        canon.AlgoParams(algorithm="SGLD")
    with pytest.raises(ConfigError):
        canon.AlgoParams(algorithm="DPS", eta=1.5)
    for name in canon.ALGORITHMS:
        assert canon.default_params(name).algorithm == name


def test_default_params_are_fresh_per_call():
    first = canon.default_params("DiffPIR")
    first.inner_opt.lr = 5.0
    first.daps.n_langevin = 3
    second = canon.default_params("DiffPIR")
    assert second.inner_opt.lr == 0.1 and second.daps.n_langevin == 100
    assert second.inner_opt is not first.inner_opt
    assert canon.SOLVERS["DiffPIR"].preset["inner_opt"]["lr"] == 0.1


def _block_classes(root=config.ConfigBlock):
    """Every subclass of root, recursively."""
    found = []
    for sub in root.__subclasses__():
        found += [sub, *_block_classes(sub)]
    return found


def test_every_config_block_has_rules_of_its_own_fields():
    blocks = _block_classes()
    assert {canon.AlgoParams, canon.DAPSParams, canon.InnerOptParams, harness.ConfigFile,
            harness.TaskSpec, harness.OperatorSpec} <= set(blocks)
    for cls in blocks:
        table = vars(cls)["rules"]  # built once, on cls
        # each annotation of cls and its bases, bases first, is one field: a rule or,
        # bare, a nested block at its defaults
        declared = [(attr, kind) for klass in reversed(cls.__mro__)
                    for attr, kind in vars(klass).get("__annotations__", {}).items()]
        module = sys.modules[cls.__module__]
        want = []
        for attr, kind in declared:
            declared_rule = getattr(cls, attr, None)
            if declared_rule is None:
                continue
            key = declared_rule.key or attr
            nested = getattr(module, kind, None)
            want.append((key, attr, f"{cls.block}.{key}" if cls.block else key,
                         kind.split(" |")[0], declared_rule.rule,
                         nested if isinstance(nested, type) else None))
        got = [(key, r.attr, r.path, r.kind, r.rule, r.nested)
               for key, r in table.items() if r.rule is not None]
        assert got == want, cls
        assert [r.attr for r in table.values()] == [attr for attr, _ in declared], cls
    assert "rules" not in vars(config.ConfigBlock)
    # spot checks: a renamed key, a nested block with a rule and one without, a list kind
    assert canon.AlgoParams.rules["name"][1:5] == ("algorithm", "algorithm.name", "str",
                                                    (canon.ALGORITHMS, False, {}))
    assert harness.ConfigFile.rules["task"].nested is harness.TaskSpec
    assert canon.AlgoParams.rules["daps"][4:] == (None, canon.DAPSParams, None)
    assert canon.AlgoParams.rules["name"].required
    assert not canon.AlgoParams.rules["daps"].required
    assert harness.InlinePrior.rules["means"].kind == "list[list[float]]"


def test_a_subclass_gets_rules_of_its_own():
    parent = canon.InnerOptParams.rules

    class Wider(canon.InnerOptParams):
        block = "wider"
        extra: "int" = config.rule(3, minimum=0)

    try:
        table = Wider.rules
        assert table is not parent and canon.InnerOptParams.rules is parent
        assert list(table) == ["lr", "momentum", "steps", "extra"]
        assert [r.path for r in table.values()] == ["wider.lr", "wider.momentum",
                                                    "wider.steps", "wider.extra"]
        assert list(parent) == ["lr", "momentum", "steps"]
        with pytest.raises(ConfigError, match=r"^wider\.extra must be >= 0, got -1$"):
            Wider(extra=-1)
        with pytest.raises(ConfigError, match=r"^wider\.lr must be >= 0\.0, got -1\.0$"):
            Wider.from_dict({"lr": -1.0})
        with pytest.raises(ConfigError, match=r"^algorithm\.inner_opt\.lr must be >= 0\.0"):
            canon.InnerOptParams(lr=-1.0)
    finally:  # other tests walk every ConfigBlock subclass: leave none behind
        del Wider
        gc.collect()
    assert canon.InnerOptParams.__subclasses__() == []


def test_sampler_is_tweedie(schedule, small_prior):
    x = RngStream(40).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x, 700, 350)
    expected = tweedie(small_prior, schedule, x, 700)
    assert np.max(np.abs(ctx.x0_sampled - expected)) < 1e-13


def test_sampler_daps_uses_ddim_chain(schedule, small_prior):
    x = RngStream(41).standard_normal(6)
    params = canon.default_params("DAPS")
    params.daps.k_ddim = 3
    ctx = step_context(x, 600, 300, small_prior, schedule, RngStream(0), None, params)
    out = canon.sample_phi(ctx)
    expected = dif.ddim_run(small_prior, schedule, x, 600, 3)
    assert np.array_equal(out, expected)


def test_eps_cache_single_evaluation(schedule, small_prior):
    x = RngStream(42).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x, 500, 250)
    assert ctx.eps_cached is ctx.eps_cached


# ---------------------------------------------------------------------------
# zero-strength correctors leave x0 untouched
# ---------------------------------------------------------------------------


def test_zero_strength_correctors_return_x0(schedule, small_prior):
    x = RngStream(43).standard_normal(6)
    op = ops.mask_operator(6, [0, 2, 4])
    y = ops.apply(op, np.zeros(6))
    obs = ops.Observation(y=y, op=op, sigma_y=0.1)
    nl = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    nl_obs = ops.Observation(y=np.zeros(6), op=nl, sigma_y=0.1)

    cases = []
    p = canon.default_params("DPS"); p.zeta = 0.0
    cases.append((canon.corr_dps, obs, p))
    p = canon.default_params("DMPS"); p.lam = 0.0
    cases.append((canon.corr_dmps, obs, p))
    p = canon.default_params("REDdiff"); p.lam = 0.0; p.xi = 1.0
    cases.append((canon.corr_reddiff, obs, p))
    p = canon.default_params("ReSample"); p.inner_opt.steps = 0
    cases.append((canon.corr_resample, obs, p))
    p = canon.default_params("DAPS"); p.daps.n_langevin = 0
    cases.append((canon.corr_daps, obs, p))
    p = canon.default_params("DiffPIR"); p.inner_opt.steps = 0
    cases.append((canon.corr_diffpir, nl_obs, p))

    for corr, o, params in cases:
        ctx = make_ctx(small_prior, schedule, x, 400, 200)
        out = corr(bind(ctx, o, params))
        assert np.array_equal(out, ctx.x0_sampled), corr.__name__


# ---------------------------------------------------------------------------
# DDNM corrector: DDRM's spectral corrector at eta_b = 1
# ---------------------------------------------------------------------------


def test_ddnm_noiseless_is_exact_projection(schedule, small_prior):
    op = ops.mask_operator(6, [1, 3, 5])
    truth = RngStream(44).standard_normal(6)
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(45).standard_normal(6), 500, 250)
    out = canon.corr_ddrm(bind(ctx, obs, canon.default_params("DDNM")))
    assert np.max(np.abs(ops.apply(op, out) - obs.y)) < 1e-12
    # null space untouched
    assert np.max(np.abs(ops.project(op, out - ctx.x0_sampled, "null"))) < 1e-12


def test_ddnm_noisy_scaling_scalar_oracle(schedule):
    # 1-D dense operator, t_prev in the low-noise regime so the scaled branch fires
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 1)), np.eye(1)[None])
    op = ops.dense_operator([[2.0]])
    sigma_y = 0.5
    obs = ops.Observation(y=np.array([1.4]), op=op, sigma_y=sigma_y)
    t_i, t_prev = 100, 10
    x0 = np.array([0.3])
    ctx = make_ctx(prior, schedule, np.array([0.5]), t_i, t_prev, x0=x0)
    params = canon.default_params("DDNM")  # eta = 0.85
    out = canon.corr_ddrm(bind(ctx, obs, params))

    ab_prev = schedule.alphabar(t_prev)
    sig_prev = schedule.sigma(t_prev)
    s, eta = 2.0, 0.85
    assert sig_prev < math.sqrt(ab_prev) * sigma_y / s  # scaled branch active
    lam = s * sig_prev * math.sqrt(1.0 - eta**2) / (math.sqrt(ab_prev) * sigma_y)
    v = float(op.V[0, 0])  # +-1
    ybar = 1.4 * float(op.U[0, 0]) / s
    expected = x0[0] + lam * (ybar - x0[0] * v) * v
    assert abs(out[0] - expected) < 1e-14


# ---------------------------------------------------------------------------
# DDRM corrector
# ---------------------------------------------------------------------------


def test_ddrm_noiseless_full_replacement(schedule, small_prior):
    op = ops.mask_operator(6, [0, 1, 2])
    truth = RngStream(46).standard_normal(6)
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(47).standard_normal(6), 600, 300)
    params = canon.default_params("DDRM")  # eta_b = 1
    out = canon.corr_ddrm(bind(ctx, obs, params))
    assert np.max(np.abs(ops.apply(op, out) - obs.y)) < 1e-12


def test_ddrm_zero_blend_weight_keeps_x0(schedule, small_prior):
    op = ops.mask_operator(6, [0, 1, 2])
    obs = ops.Observation(y=np.zeros(3), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(48).standard_normal(6), 600, 300)
    params = canon.default_params("DDRM")
    params.eta_b = 0.0
    out = canon.corr_ddrm(bind(ctx, obs, params))
    assert np.max(np.abs(out - ctx.x0_sampled)) < 1e-13


def test_ddrm_low_noise_branch_scalar_oracle(schedule):
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 1)), np.eye(1)[None])
    op = ops.dense_operator([[2.0]])
    sigma_y = 0.5
    obs = ops.Observation(y=np.array([-0.8]), op=op, sigma_y=sigma_y)
    t_i, t_prev = 100, 10
    x0 = np.array([0.2])
    ctx = make_ctx(prior, schedule, np.array([0.1]), t_i, t_prev, x0=x0)
    params = canon.default_params("DDRM")
    out = canon.corr_ddrm(bind(ctx, obs, params))

    ab_prev = schedule.alphabar(t_prev)
    sig_prev = schedule.sigma(t_prev)
    s = 2.0
    assert sig_prev < math.sqrt(ab_prev) * sigma_y / s
    v, u = float(op.V[0, 0]), float(op.U[0, 0])
    xbar = x0[0] * v
    ybar = -0.8 * u / s
    snr_step = math.sqrt(1.0 - params.eta**2) * sig_prev / math.sqrt(ab_prev)
    corrected = xbar + snr_step * (ybar - xbar) / (sigma_y / s)
    expected = x0[0] + (corrected - xbar) * v
    assert abs(out[0] - expected) < 1e-14


# ---------------------------------------------------------------------------
# DPS corrector
# ---------------------------------------------------------------------------


def test_dps_gradient_matches_finite_differences(schedule):
    prior = random_mixture(50, 6, 2)
    op = ops.mask_operator(6, [0, 3, 4])
    stream = RngStream(51)
    y = stream.standard_normal(3)
    obs = ops.Observation(y=y, op=op, sigma_y=0.1)
    params = canon.default_params("DPS")
    t_i, t_prev = 500, 250
    x_t = stream.standard_normal(6)

    ctx = make_ctx(prior, schedule, x_t, t_i, t_prev)
    out = canon.corr_dps(bind(ctx, obs, params))
    ab = schedule.alphabar(t_i)
    ab_prev = schedule.alphabar(t_prev)
    grad = (ctx.x0_sampled - out) * math.sqrt(ab_prev) / (params.zeta * math.sqrt(ab))

    def f(x):
        x0 = tweedie(prior, schedule, x, t_i)
        r = ops.apply(op, x0) - y
        return float(r @ r)

    h = 1e-5
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd = (f(x_t + e) - f(x_t - e)) / (2 * h)
        assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-5


def test_dps_zero_residual_keeps_x0(schedule, small_prior):
    op = ops.mask_operator(6, [1, 2])
    ctx = make_ctx(small_prior, schedule, RngStream(52).standard_normal(6), 400, 200)
    obs = ops.Observation(y=ops.apply(op, ctx.x0_sampled), op=op, sigma_y=0.05)
    out = canon.corr_dps(bind(ctx, obs, canon.default_params("DPS")))
    assert np.max(np.abs(out - ctx.x0_sampled)) < 1e-10


# ---------------------------------------------------------------------------
# PiGDM corrector
# ---------------------------------------------------------------------------


def test_pigdm_dense_oracle(schedule):
    # single Gaussian: the denoiser Jacobian is sqrt(ab) Sig C^-1, so the whole
    # correction has a closed matrix form to compare against
    stream = RngStream(53)
    d, m = 5, 3
    Sig = random_spd(stream, d)
    mu = stream.standard_normal(d)
    prior = dif.GaussianMixturePrior([1.0], mu[None], Sig[None])
    A = stream.standard_normal((m, d))
    op = ops.dense_operator(A)
    sigma_y = 0.2
    y = stream.standard_normal(m)
    obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    t_i, t_prev = 600, 400
    x_t = stream.standard_normal(d)
    ctx = make_ctx(prior, schedule, x_t, t_i, t_prev)
    out = canon.corr_pigdm(bind(ctx, obs, canon.default_params("PiGDM")))

    ab = schedule.alphabar(t_i)
    ab_prev = schedule.alphabar(t_prev)
    r2 = 1.0 - ab
    C = ab * Sig + (1.0 - ab) * np.eye(d)
    J = math.sqrt(ab) * Sig @ np.linalg.inv(C)
    resid = y - A @ ctx.x0_sampled
    w = A.T @ np.linalg.solve(A @ A.T + (sigma_y**2 / r2) * np.eye(m), resid)
    expected = ctx.x0_sampled + math.sqrt(ab / ab_prev) * (J.T @ w)
    assert np.max(np.abs(out - expected)) < 1e-10


def test_pigdm_zero_residual_keeps_x0(schedule, small_prior):
    op = ops.mask_operator(6, [0, 5])
    ctx = make_ctx(small_prior, schedule, RngStream(54).standard_normal(6), 300, 150)
    obs = ops.Observation(y=ops.apply(op, ctx.x0_sampled), op=op, sigma_y=0.1)
    out = canon.corr_pigdm(bind(ctx, obs, canon.default_params("PiGDM")))
    assert np.max(np.abs(out - ctx.x0_sampled)) < 1e-12


# ---------------------------------------------------------------------------
# RED-diff corrector
# ---------------------------------------------------------------------------


def test_reddiff_first_step_gradient_form(schedule, small_prior):
    op = ops.mask_operator(6, [2, 3])
    y = np.array([0.7, -0.4])
    obs = ops.Observation(y=y, op=op, sigma_y=0.1)
    ctx = make_ctx(small_prior, schedule, RngStream(55).standard_normal(6), 500, 250)
    params = canon.default_params("REDdiff")  # xi=1, lam=0.5
    out = canon.corr_reddiff(bind(ctx, obs, params))
    x0 = ctx.x0_sampled
    grad = 2.0 * ops.apply_adjoint(op, ops.apply(op, x0) - y)
    assert np.max(np.abs(out - (x0 - 0.5 * grad))) < 1e-13


def test_reddiff_anchors_previous_estimate(schedule, small_prior):
    op = ops.mask_operator(6, [0])
    obs = ops.Observation(y=np.array([0.0]), op=op, sigma_y=0.1)
    ctx = make_ctx(small_prior, schedule, RngStream(56).standard_normal(6), 500, 250)
    prev = RngStream(57).standard_normal(6)
    ctx.history = [RngStream(58).standard_normal(6), prev]
    params = canon.default_params("REDdiff")
    params.xi = 0.25
    out = canon.corr_reddiff(bind(ctx, obs, params))
    x0 = ctx.x0_sampled
    grad = 2.0 * ops.apply_adjoint(op, ops.apply(op, x0) - obs.y)
    expected = prev + 0.25 * ((x0 - prev) - 0.5 * grad)
    assert np.max(np.abs(out - expected)) < 1e-13
    params.xi = 0.0
    assert np.array_equal(canon.corr_reddiff(bind(ctx, obs, params)), prev)


# ---------------------------------------------------------------------------
# DiffPIR corrector
# ---------------------------------------------------------------------------


def test_diffpir_linear_matches_normal_equations(schedule, small_prior):
    stream = RngStream(58)
    A = stream.standard_normal((4, 6))
    op = ops.dense_operator(A)
    y = stream.standard_normal(4)
    obs = ops.Observation(y=y, op=op, sigma_y=0.3)
    ctx = make_ctx(small_prior, schedule, stream.standard_normal(6), 500, 250)
    params = canon.default_params("DiffPIR")
    out = canon.corr_diffpir(bind(ctx, obs, params))
    ab = schedule.alphabar(500)
    rho = params.lam * 0.3**2 * ab / (1.0 - ab)
    x0 = ctx.x0_sampled
    expected = np.linalg.solve(A.T @ A + rho * np.eye(6), A.T @ y + rho * x0)
    assert np.max(np.abs(out - expected)) < 1e-10


def test_diffpir_noiseless_limit_is_projection(schedule, small_prior):
    op = ops.mask_operator(6, [1, 4])
    truth = RngStream(59).standard_normal(6)
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(60).standard_normal(6), 500, 250)
    out = canon.corr_diffpir(bind(ctx, obs, canon.default_params("DiffPIR")))
    assert np.max(np.abs(ops.apply(op, out) - obs.y)) < 1e-12
    x0 = ctx.x0_sampled
    expected = x0 + ops.pinv_apply(op, obs.y - ops.apply(op, x0))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_diffpir_nonlinear_descends_proximal_objective(schedule, small_prior):
    nl = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.5)
    stream = RngStream(61)
    truth = stream.standard_normal(6)
    obs = ops.Observation(y=ops.nl_apply(nl, truth), op=nl, sigma_y=0.2)
    ctx = make_ctx(small_prior, schedule, stream.standard_normal(6), 500, 250)
    params = canon.default_params("DiffPIR")
    params.inner_opt.lr = 0.05
    out = canon.corr_diffpir(bind(ctx, obs, params))
    ab = schedule.alphabar(500)
    rho = params.lam * 0.2**2 * ab / (1.0 - ab)
    x0 = ctx.x0_sampled

    def objective(x):
        r = ops.nl_apply(nl, x) - obs.y
        return float(r @ r) + rho * float((x - x0) @ (x - x0))

    assert objective(out) < objective(x0)


# ---------------------------------------------------------------------------
# DMPS corrector
# ---------------------------------------------------------------------------


def test_dmps_dense_oracle(schedule, small_prior):
    stream = RngStream(62)
    A = stream.standard_normal((3, 6))
    op = ops.dense_operator(A)
    sigma_y = 0.25
    y = stream.standard_normal(3)
    obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    t_i, t_prev = 700, 350
    x_t = stream.standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x_t, t_i, t_prev)
    params = canon.default_params("DMPS")
    out = canon.corr_dmps(bind(ctx, obs, params))

    ab_i = schedule.alphabar(t_i)
    ab_prev = schedule.alphabar(t_prev)
    M = sigma_y**2 * np.eye(3) + (1.0 - ab_i) / ab_i * (A @ A.T)
    score = A.T @ np.linalg.solve(M, y - A @ x_t / math.sqrt(ab_i)) / math.sqrt(ab_i)
    alpha_i = ab_i / ab_prev
    coef = params.lam * (1.0 - alpha_i) / math.sqrt(alpha_i) / math.sqrt(ab_prev)
    expected = ctx.x0_sampled + coef * score
    assert np.max(np.abs(out - expected)) < 1e-10


# ---------------------------------------------------------------------------
# ReSample corrector
# ---------------------------------------------------------------------------


def test_resample_exact_consistency_shortcut(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2])
    y = np.array([1.0, -1.0])
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    ctx = make_ctx(small_prior, schedule, RngStream(63).standard_normal(6), 400, 200)
    params = canon.default_params("ReSample")
    params.exact_hc = True
    out = canon.corr_resample(bind(ctx, obs, params))
    x0 = ctx.x0_sampled
    assert np.max(np.abs(out - (x0 + ops.pinv_apply(op, y - ops.apply(op, x0))))) < 1e-13


def test_resample_descent_reduces_residual(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2, 4])
    y = np.array([0.5, 0.5, -0.5])
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    ctx = make_ctx(small_prior, schedule, RngStream(64).standard_normal(6), 400, 200)
    params = canon.default_params("ReSample")
    out = canon.corr_resample(bind(ctx, obs, params))
    before = np.linalg.norm(ops.apply(op, ctx.x0_sampled) - y)
    after = np.linalg.norm(ops.apply(op, out) - y)
    assert after < 0.3 * before


def test_resample_fixed_point_at_consistency(schedule, small_prior):
    op = ops.mask_operator(6, [1, 3])
    ctx = make_ctx(small_prior, schedule, RngStream(65).standard_normal(6), 400, 200)
    obs = ops.Observation(y=ops.apply(op, ctx.x0_sampled), op=op, sigma_y=0.05)
    out = canon.corr_resample(bind(ctx, obs, canon.default_params("ReSample")))
    assert np.max(np.abs(out - ctx.x0_sampled)) < 1e-12


# ---------------------------------------------------------------------------
# DAPS corrector
# ---------------------------------------------------------------------------


def test_daps_step_size_schedule():
    d = canon.DAPSParams(eta0=0.2, delta=0.01)
    assert abs(canon.daps_step_size(d, 1000, 1000) - 0.2) < 1e-15
    assert abs(canon.daps_step_size(d, 0, 1000) - 0.002) < 1e-15


def test_daps_requires_noise_or_variant_flag(schedule, small_prior):
    op = ops.mask_operator(6, [0])
    obs = ops.Observation(y=np.array([0.1]), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(66).standard_normal(6), 500, 250)
    params = canon.default_params("DAPS")
    # a zero Langevin sigma is rejected when the block is built, not per step
    with pytest.raises(ConfigError, match=r"algorithm\.daps\.sigma_langevin must be > 0"):
        canon.DAPSParams(sigma_langevin=0.0)
    # the noiseless-linear variant does not read sigma_langevin, so even a zero runs
    params.daps.noiseless_linear = True
    params.daps.sigma_langevin = 0.0
    out = canon.corr_daps(bind(ctx, obs, params))
    assert np.all(np.isfinite(out))


def test_daps_chain_is_seeded(schedule, small_prior):
    op = ops.mask_operator(6, [0, 1])
    obs = ops.Observation(y=np.array([0.2, -0.2]), op=op, sigma_y=0.1)
    outs = []
    for _ in range(2):
        ctx = make_ctx(
            small_prior, schedule, RngStream(67).standard_normal(6), 500, 250,
            stream=RngStream(5, 9),
        )
        outs.append(canon.corr_daps(bind(ctx, obs, canon.default_params("DAPS"))))
    assert np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# DAPS and ReSample inner loops against their full-space reference loops
# ---------------------------------------------------------------------------


def _daps_reference(ctx, obs, params):
    """The per-iteration DAPS loop with an operator call per gradient, its
    noise drawn as one (m,) + x.shape draw per block of m <= 10 iterations."""
    daps = params.daps
    anchor = ctx.x0_sampled
    sigma = daps.sigma_langevin
    if sigma is None:
        sigma = max(obs.sigma_y, 0.02)
    eta_t = canon.daps_step_size(daps, ctx.t_i, ctx.schedule.T)
    r2 = 1.0 - ctx.schedule.alphabar(ctx.t_i)
    x = np.array(anchor, copy=True)
    for k in range(daps.n_langevin):
        if k % 10 == 0:
            m = min(10, daps.n_langevin - k)
            block = ctx.stream.standard_normal((m,) + x.shape)
        grad = (x - anchor) / r2
        if daps.noiseless_linear:
            data_grad = ops.apply_adjoint(obs.op, ops.apply(obs.op, x) - obs.y) / eta_t
        elif obs.is_linear:
            data_grad = 0.5 * 2.0 * ops.apply_adjoint(obs.op, ops.apply(obs.op, x) - obs.y) / sigma**2
        else:
            data_grad = 0.5 * 2.0 * ops.nl_vjp(obs.op, x, ops.nl_apply(obs.op, x) - obs.y) / sigma**2
        x = x - eta_t * (grad + data_grad) + math.sqrt(2.0 * eta_t) * block[k % 10]
    return x


def _resample_reference(x0, obs, lr, momentum, steps):
    """Momentum descent on ||y - A(x)||^2 in the full space, loss and gradient
    each from their own operator calls."""
    def residual(x):
        fx = ops.apply(obs.op, x) if obs.is_linear else ops.nl_apply(obs.op, x)
        return fx - obs.y

    def grad(x):
        if obs.is_linear:
            return 2.0 * ops.apply_adjoint(obs.op, residual(x))
        return 2.0 * ops.nl_vjp(obs.op, x, residual(x))

    def loss(x):
        r = residual(x)
        return float(np.sum(r * r))

    x = np.array(x0, copy=True)
    vel = np.zeros_like(x)
    # ten times the start, and at least ||y||^2, the zero estimate's loss
    limit = max(10.0 * max(loss(x), 1e-30), float(np.sum(obs.y * obs.y)))
    for _ in range(steps):
        vel = momentum * vel - lr * grad(x)
        x = x + vel
        cur = loss(x)
        if not np.isfinite(cur) or cur > limit:
            raise ConvergenceError("inner optimizer diverged")
    return x


def _inner_loop_operator(kind, d=6):
    if kind == "mask":
        return ops.mask_operator(d, [0, 2, 3])
    if kind == "blur":
        return ops.blur_operator(d, [0.25, 0.5, 0.25])
    if kind == "dense":
        # m = 8 > r = 3: y has a part outside the range of U
        s = RngStream(310)
        A = s.standard_normal((8, 3)) @ s.standard_normal((3, d))
        return ops.dense_operator(A / np.linalg.norm(A, 2))
    return ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=0.8)


def _inner_loop_case(small_prior, schedule, kind, batch, sigma_y, seed):
    op = _inner_loop_operator(kind)
    shape = (batch,) if batch > 1 else ()
    m = 6 if kind == "nonlinear" else op.m
    y = RngStream(seed, 1).standard_normal(shape + (m,))
    obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    x_t = RngStream(seed, 2).standard_normal(shape + (6,))
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=RngStream(seed, 3))
    return obs, ctx


def copy_ctx(ctx, stream):
    return step_context(ctx.x_t, ctx.t_i, ctx.t_prev, ctx.prior, ctx.schedule, stream, ctx.obs,
                        ctx.params, x0_sampled=ctx.x0_sampled)


def _rel_dev(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class ScriptedStream:
    """A stream whose normal draws are scripted: `standard_normal(shape)` is
    `values` broadcast to shape, zeros by default."""

    def __init__(self, values=0.0):
        self.values = values

    def standard_normal(self, shape):
        return np.array(np.broadcast_to(self.values, shape), dtype=float)


def _daps_params(n, noiseless=False, eta0=1e-3):
    params = canon.default_params("DAPS")
    params.daps.n_langevin = n
    params.daps.eta0 = eta0
    params.daps.noiseless_linear = noiseless
    return params


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind, noiseless", [
    ("mask", False), ("blur", False), ("dense", False), ("nonlinear", False),
    ("mask", True), ("blur", True), ("dense", True),
])
def test_daps_matches_reference_loop(schedule, small_prior, kind, noiseless, batch):
    # 23 is two full blocks of 10 and a short one of 3
    for n in (1, 23, 100):
        obs, ctx = _inner_loop_case(small_prior, schedule, kind, batch,
                                    0.0 if noiseless else 0.1, 320)
        params = _daps_params(n, noiseless)
        if kind == "nonlinear":  # the block loop, bit for bit on real streams
            ref_ctx = copy_ctx(ctx, clone(ctx.stream))
            got = canon.corr_daps(bind(ctx, obs, params))
            assert np.array_equal(got, _daps_reference(ref_ctx, obs, params))
            assert ctx.stream.counter == ref_ctx.stream.counter
        else:  # the closed form's mean against the loop's noise-free chain
            got = canon.corr_daps(bind(copy_ctx(ctx, ScriptedStream()), obs, params))
            ref = _daps_reference(copy_ctx(ctx, ScriptedStream()), obs, params)
            assert got.shape == ref.shape
            assert _rel_dev(got, ref) <= 1e-12, n


@pytest.mark.parametrize("n", [1, 23, 100])
@pytest.mark.parametrize("kind, noiseless", [
    ("mask", False), ("blur", False), ("dense", False),
    ("mask", True), ("blur", True), ("dense", True),
])
def test_daps_linear_noise_has_the_chains_covariance(schedule, small_prior, kind, noiseless,
                                                      n):
    # out(xi) - out(0) = xi S; row i draws xi = e_i, so the rows are S, and S S^T
    # must be the n-step chain's covariance 2 eta_t sum_{j<n} M^(2j), M built densely
    d = 6
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, d, 0.0 if noiseless else 0.1, 325)
    params = _daps_params(n, noiseless, eta0=1e-2)
    S = (canon.corr_daps(bind(copy_ctx(ctx, ScriptedStream(np.eye(d))), obs, params))
         - canon.corr_daps(bind(copy_ctx(ctx, ScriptedStream()), obs, params)))
    op, daps = obs.op, params.daps
    eta_t = canon.daps_step_size(daps, ctx.t_i, ctx.schedule.T)
    r2 = 1.0 - ctx.schedule.alphabar(ctx.t_i)
    eta_w = 1.0 if noiseless else eta_t / max(obs.sigma_y, 0.02) ** 2
    M = (1.0 - eta_t / r2) * np.eye(d) - (op.V * (eta_w * op.s**2)) @ op.V.T
    cov, power = np.zeros((d, d)), np.eye(d)
    for _ in range(n):
        cov += power
        power = power @ M @ M
    assert _rel_dev(S @ S.T, 2.0 * eta_t * cov) <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100])
def test_daps_linear_call_advances_counter_once(schedule, small_prior, n):
    obs, ctx = _inner_loop_case(small_prior, schedule, "mask", 4, 0.1, 322)
    start = ctx.stream.counter
    canon.corr_daps(bind(ctx, obs, _daps_params(n)))
    assert ctx.stream.counter - start == min(n, 1)


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100])
def test_daps_advances_counter_once_per_block_of_ten(schedule, small_prior, n):
    # on the nonlinear operator, where the Langevin loop runs
    obs, ctx = _inner_loop_case(small_prior, schedule, "nonlinear", 4, 0.1, 322)
    start = ctx.stream.counter
    canon.corr_daps(bind(ctx, obs, _daps_params(n)))
    assert ctx.stream.counter - start == math.ceil(n / 10)


@pytest.mark.parametrize("n", [1, 10, 23])
@pytest.mark.parametrize("kind", ["mask", "nonlinear"])
def test_daps_batched_rows_equal_one_row_calls(schedule, small_prior, kind, n):
    # an (N, 1, d) batch drawing from RowStreams against N one-row calls, each
    # with a one-row tape of its own RngStream: the same numbers in the same
    # order, bit for bit
    N, d = 5, 6
    op = _inner_loop_operator(kind, d)
    m = d if kind == "nonlinear" else op.m
    y = RngStream(323, 1).standard_normal((N, 1, m))
    x_t = RngStream(323, 2).standard_normal((N, 1, d))
    x0 = RngStream(323, 4).standard_normal((N, 1, d))
    params = _daps_params(n)
    rows = RowStreams(RngStream(323, 1000 + i) for i in range(N))
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=rows, x0=x0)
    got = canon.corr_daps(bind(ctx, ops.Observation(y=y, op=op, sigma_y=0.1), params))
    assert got.shape == (N, 1, d)
    read = n * d if kind == "nonlinear" else d  # each row's values
    for i in range(N):
        one = make_ctx(small_prior, schedule, x_t[i], 500, 250,
                       stream=StreamTape(RngStream(323, 1000 + i)), x0=x0[i])
        ref = canon.corr_daps(bind(one, ops.Observation(y=y[i], op=op, sigma_y=0.1), params))
        assert np.array_equal(got[i], ref), i
        assert rows.streams[i].counter == one.stream.streams[0].counter \
            == math.ceil(read / TAPE_CHUNK)


def _daps_memory_case(schedule, n, op):
    """DAPS at n_langevin n on 1024 rows of d = 4: the call's tracemalloc peak
    and its wall time, after a first call that loads numpy.random."""
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 4)), np.eye(4)[None])
    anchor = np.tile([0.5, -1.0, 2.0, 0.0], (1024, 1))
    obs = ops.Observation(y=anchor.copy(), op=op, sigma_y=0.1)
    ctx = make_ctx(prior, schedule, anchor, 1000, 750, stream=RngStream(324), x0=anchor)
    canon.corr_daps(bind(ctx, obs, _daps_params(1, eta0=1e-4)))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        out = canon.corr_daps(bind(ctx, obs, _daps_params(n, eta0=1e-4)))
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    return peak, seconds


def test_daps_memory_is_one_block_whatever_n_langevin(schedule):
    # 200 iterations on the nonlinear operator, where the block loop runs: one
    # whole-call draw would hold 200 * 1024 * 4 floats (~6.5 MB); a block of 10
    # holds ~0.33 MB and the nonlinear drift's temporaries ~0.27 MB more (the
    # peak varies by ~0.08 MB from run to run)
    op = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=0.8)
    peak, _ = _daps_memory_case(schedule, 200, op)
    assert peak < 800_000, peak


def test_daps_linear_call_takes_a_billion_steps_in_one_draw(schedule):
    # the n-step law by doubling: O(log n) vector operations, no table growing with n
    peak, seconds = _daps_memory_case(schedule, 10**9, ops.dense_operator(np.eye(4)))
    assert peak < 550_000, peak
    assert seconds < 0.5, seconds


def test_daps_noiseless_variant_rejects_nonlinear(schedule, small_prior):
    obs, ctx = _inner_loop_case(small_prior, schedule, "nonlinear", 1, 0.1, 321)
    params = canon.default_params("DAPS")
    params.daps.noiseless_linear = True
    with pytest.raises(ConfigError):
        canon.corr_daps(bind(ctx, obs, params))


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", ["mask", "blur", "dense", "nonlinear"])
def test_resample_matches_full_space_loop(schedule, small_prior, kind, batch):
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, batch, 0.05, 330)
    params = canon.default_params("ReSample")
    opt = params.inner_opt
    got = canon.corr_resample(bind(ctx, obs, params))
    ref = _resample_reference(ctx.x0_sampled, obs, opt.lr, opt.momentum, opt.steps)
    if kind == "nonlinear":
        assert np.array_equal(got, ref)
    else:
        assert _rel_dev(got, ref) <= 1e-12
    if kind == "dense":
        op = obs.op
        assert np.linalg.norm(obs.y - (obs.y @ op.U) @ op.U.T) > 0.1


def _count_convolutions(monkeypatch):
    calls = []
    real = ops._circ_conv

    def spy(kernel, x):
        calls.append(x.shape)
        return real(kernel, x)

    monkeypatch.setattr(ops, "_circ_conv", spy)
    return calls


def test_residual_grad_nonlinear_shares_its_forward_pass(schedule, small_prior, monkeypatch):
    obs, ctx = _inner_loop_case(small_prior, schedule, "nonlinear", 1, 0.1, 345)
    x = ctx.x0_sampled
    expected = 2.0 * ops.nl_vjp(obs.op, x, ops.nl_apply(obs.op, x) - obs.y)
    calls = _count_convolutions(monkeypatch)
    got = canon._residual_grad_x0(obs, x)
    assert len(calls) == 2  # one forward pass, one VJP
    assert np.array_equal(got, expected)


def test_diffpir_nonlinear_inner_loop_convolution_count(schedule, small_prior, monkeypatch):
    obs, ctx = _inner_loop_case(small_prior, schedule, "nonlinear", 1, 0.2, 346)
    params = canon.default_params("DiffPIR")
    params.inner_opt.steps = 10
    params.inner_opt.lr = 0.05
    calls = _count_convolutions(monkeypatch)
    canon.corr_diffpir(bind(ctx, obs, params))
    # the starting loss, then per step a forward pass and a VJP for the
    # gradient and a forward pass for the loss
    assert len(calls) == 1 + 3 * 10


@pytest.mark.parametrize("kind", ["mask", "dense", "nonlinear"])
def test_resample_large_step_still_diverges(schedule, small_prior, kind):
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, 1, 0.05, 340)
    # start near consistency, so that a bounded (tanh) loss can still grow 10x
    fx0 = ops.nl_apply(obs.op, ctx.x0_sampled) if kind == "nonlinear" else ops.apply(
        obs.op, ctx.x0_sampled)
    obs = ops.Observation(y=fx0 + 0.01 * obs.y, op=obs.op, sigma_y=obs.sigma_y)
    params = canon.default_params("ReSample")
    params.inner_opt.lr = 50.0
    opt = params.inner_opt
    with pytest.raises(ConvergenceError):
        _resample_reference(ctx.x0_sampled, obs, opt.lr, opt.momentum, opt.steps)
    with pytest.raises(ConvergenceError):
        canon.corr_resample(bind(ctx, obs, params))


@pytest.mark.parametrize("algo, kind", [("ReSample", "mask"), ("ReSample", "nonlinear"),
                                        ("DiffPIR", "nonlinear")])
def test_divergence_names_the_one_diverging_row(schedule, small_prior, algo, kind):
    # Only row 1 can diverge at step size 50. Linear: rows 0 and 2 sit on the
    # data, so their gradient is exactly 0 and they never move. Nonlinear:
    # rows 0 and 2 start far off, and a tanh loss cannot grow ten-fold from
    # there, while row 1 starts near the data.
    op = _inner_loop_operator(kind)
    x_t = RngStream(370, 1).standard_normal((3, 1, 6))
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=RngStream(370, 2))
    x0 = ctx.x0_sampled
    y = ops.nl_apply(op, x0) if kind == "nonlinear" else ops.apply(op, x0)
    offset = [0.0, 0.5, 0.0] if kind == "mask" else [1.0, 0.01, 1.0]
    y = y + np.reshape(offset, (3, 1, 1)) * RngStream(370, 3).standard_normal(y.shape)
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    params = canon.default_params(algo)
    params.inner_opt.lr = 50.0
    with pytest.raises(ConvergenceError,
                       match=r"row\(s\) \[1\] at inner step \d+: .*inner_opt\.lr \(now 50\.0\)"):
        canon.CORRECTORS[algo](bind(ctx, obs, params))
    # each row alone gets the same verdict
    for i in range(3):
        row_obs = ops.Observation(y=y[i, 0], op=op, sigma_y=0.05)
        row_ctx = make_ctx(small_prior, schedule, x_t[i, 0], 500, 250, x0=x0[i, 0])
        if i == 1:
            with pytest.raises(ConvergenceError, match=r"row\(s\) \[0\]"):
                canon.CORRECTORS[algo](bind(row_ctx, row_obs, params))
        else:
            assert np.all(np.isfinite(canon.CORRECTORS[algo](bind(row_ctx, row_obs, params))))


def test_rows_that_start_on_their_data_do_not_diverge(schedule, small_prior):
    # y = A(x0): the start loss is 0, and the preset DiffPIR's Adam steps
    # scale the rounding at its eval point up to ~lr; the zero estimate's
    # loss is the floor of the divergence limit, so no row is flagged
    op = _inner_loop_operator("nonlinear")
    params = canon.default_params("DiffPIR")
    for t_i, t_prev in [(900, 800), (500, 250), (100, 50), (20, 10)]:
        x_t = RngStream(380, t_i).standard_normal((20, 1, 6))
        ctx = make_ctx(small_prior, schedule, x_t, t_i, t_prev, stream=RngStream(381))
        obs = ops.Observation(y=ops.nl_apply(op, ctx.x0_sampled), op=op, sigma_y=0.05)
        out = canon.corr_diffpir(bind(ctx, obs, params))
        assert out.shape == x_t.shape and np.all(np.isfinite(out))


def test_resample_guard_counts_out_of_range_residual(schedule, small_prior):
    obs, ctx = _inner_loop_case(small_prior, schedule, "dense", 1, 0.05, 360)
    op, x0 = obs.op, ctx.x0_sampled
    in_range = (obs.y @ op.U) @ op.U.T
    y = ops.apply(op, x0) + (obs.y - in_range) + 1e-4 * in_range
    obs = ops.Observation(y=y, op=op, sigma_y=obs.sigma_y)
    params = canon.default_params("ReSample")
    params.inner_opt = canon.InnerOptParams(lr=2.0, momentum=0.0, steps=3)

    def in_range_loss(x):
        r = ((ops.apply(op, x) - y) @ op.U) @ op.U.T
        return float(np.sum(r * r))

    ref = _resample_reference(x0, obs, 2.0, 0.0, 3)
    # the in-range residual alone grows tenfold; the whole residual does not
    assert in_range_loss(ref) > 10.0 * in_range_loss(x0)
    got = canon.corr_resample(bind(ctx, obs, params))
    assert _rel_dev(got, ref) <= 1e-12


def _resample_range_loop(descent, x0, obs, opt):
    """The linear branch as a loop: `descent` (`_momentum_descent`) on the
    range coordinates, one loss and gradient per inner step."""
    op = obs.op
    ybar = obs.y @ op.U
    loss_perp = ops.row_dot(obs.y - ybar @ op.U.T)

    def value_and_grad(c):
        r = op.s * c - ybar
        return ops.row_dot(r) + loss_perp, 2.0 * op.s * r

    c0 = x0 @ op.V
    return x0 + (descent(value_and_grad, c0, opt, ops.row_dot(obs.y)) - c0) @ op.V.T


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", ["mask", "blur", "dense"])
def test_resample_table_matches_the_loop_or_trips_its_guard(schedule, small_prior,
                                                           monkeypatch, kind, batch):
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, batch, 0.05, 390)
    descent = canon._momentum_descent

    def spy(*args):
        raise AssertionError("the linear branch ran the descent loop")

    monkeypatch.setattr(canon, "_momentum_descent", spy)
    x0 = ctx.x0_sampled
    tripped = 0
    for lr in [0.01, 0.5, 1.5, 1.95, 50.0, 1e3]:
        for momentum in [0.0, 0.9]:
            for steps in [1, 7, 50]:
                params = canon.default_params("ReSample")
                params.inner_opt = canon.InnerOptParams(lr=lr, momentum=momentum, steps=steps)
                try:
                    want = _resample_range_loop(descent, x0, obs, params.inner_opt)
                except ConvergenceError as exc:  # the same step and rows
                    with pytest.raises(ConvergenceError, match=f"^{re.escape(str(exc))}$"):
                        canon.corr_resample(bind(ctx, obs, params))
                    tripped += 1
                    continue
                got = canon.corr_resample(bind(ctx, obs, params))
                assert _rel_dev(got, want) <= 1e-13, (lr, momentum, steps)
                # and each row against the full-space loop
                rows = [_resample_reference(x0_i, ops.Observation(y_i, obs.op, 0.05),
                                            lr, momentum, steps)
                        for x0_i, y_i in zip(x0.reshape(-1, x0.shape[-1]),
                                             obs.y.reshape(-1, obs.op.m))]
                assert _rel_dev(got, np.reshape(rows, got.shape)) <= 1e-13, (lr, momentum, steps)
    assert 0 < tripped < 6 * 2 * 3


@pytest.mark.parametrize("lr", [1e3, 1e6])
def test_resample_rows_on_their_data_stay_put_when_the_table_overflows(schedule, small_prior,
                                                                      lr):
    # y = A x0 gives e_0 = 0 in every coordinate, so the loop never moves such a
    # row; P overflows within the 50 steps at these step sizes, and 0 * inf must
    # not make the row's loss or result NaN, nor warn
    op = ops.mask_operator(8, [0, 3, 4, 6])
    x0 = RngStream(395, 1).standard_normal((3, 8))
    params = canon.default_params("ReSample")
    params.inner_opt.lr = lr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (x0[0], x0):  # batch 1 and batch 3
            ctx = make_ctx(small_prior, schedule, rows, 500, 250, x0=rows)
            obs = ops.Observation(y=ops.apply(op, rows), op=op, sigma_y=0.05)
            assert np.array_equal(canon.corr_resample(bind(ctx, obs, params)), rows)
        # rows 0 and 2 on their data, row 1 off it: only row 1 diverges
        y = ops.apply(op, x0)
        y[1] += 0.5
        with pytest.raises(ConvergenceError, match=r"row\(s\) \[1\] at inner step 1:"):
            canon.corr_resample(bind(ctx, ops.Observation(y=y, op=op, sigma_y=0.05), params))


def _resample_run(small_prior, schedule, op, inner_opt, S=3):
    params = canon.default_params("ReSample")
    params.inner_opt = canon.InnerOptParams(**inner_opt)
    y = RngStream(396, 1).standard_normal((2, op.m))
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    return canon.run(params, small_prior, schedule, obs, dif.make_time_grid(schedule, S), 7)


def test_resample_builds_its_descent_table_once_per_run(schedule, small_prior, monkeypatch):
    # once for all ten steps of a run, and again for the next run in the same process:
    # no table is kept across runs
    built = []
    fresh = canon._descent_table

    def spy(*args):
        built.append(args[1:])
        return fresh(*args)

    monkeypatch.setattr(canon, "_descent_table", spy)
    _resample_run(small_prior, schedule, _inner_loop_operator("dense"), {}, S=10)
    assert built == [(0.01, 0.9, 50)]
    _resample_run(small_prior, schedule, _inner_loop_operator("dense"), {}, S=10)
    assert built == [(0.01, 0.9, 50)] * 2


def test_daps_builds_its_factors_once_per_run(schedule, small_prior, monkeypatch):
    # one _geometric_sums call on the (S, r + 1) stack for all ten steps of a run on a
    # linear operator, and one more for the next run: no factors are kept across runs
    built = []
    fresh = canon._geometric_sums

    def spy(f, n):
        built.append((f.shape, n))
        return fresh(f, n)

    monkeypatch.setattr(canon, "_geometric_sums", spy)
    op = _inner_loop_operator("dense")
    obs = ops.Observation(y=RngStream(396, 1).standard_normal((2, op.m)), op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 10)
    canon.run(canon.default_params("DAPS"), small_prior, schedule, obs, grid, 7)
    assert built == [((10, op.r + 1), 100)]
    canon.run(canon.default_params("DAPS"), small_prior, schedule, obs, grid, 7)
    assert built == [((10, op.r + 1), 100)] * 2


def _resample_table(small_prior, schedule, op, inner_opt):
    """The descent table a one-step ReSample corrector call keeps as its run's tables; at
    x0 = 0 and y = 0 every e_0 is 0, so no lr makes the call diverge."""
    params = canon.default_params("ReSample")
    params.inner_opt = canon.InnerOptParams(**inner_opt)
    ctx = make_ctx(small_prior, schedule, np.zeros(op.n), 500, 400, x0=np.zeros(op.n))
    ctx = bind(ctx, ops.Observation(y=np.zeros(op.m), op=op, sigma_y=0.05), params)
    canon.corr_resample(ctx)
    return ctx.run.tables


def test_resample_descent_table_is_keyed_on_s_lr_momentum_and_steps(schedule, small_prior):
    # in one process, each run differs from the one before in one key only; with a
    # table reused across keys its output would differ from a run on a fresh table
    dense = _inner_loop_operator("dense")
    other = ops.dense_operator(RngStream(397).standard_normal((8, 6)) / 4.0)
    assert dense.s.shape == (3,) and other.s.shape == (6,)
    rescaled = ops.dense_operator(2.0 * dense.dense())  # same shape, s doubled
    base = {"lr": 0.1, "momentum": 0.5, "steps": 7}
    runs = [(dense, base), (dense, dict(base, lr=0.2)), (dense, dict(base, momentum=0.6)),
            (dense, dict(base, steps=9)), (rescaled, base), (other, base)]
    warm = [_resample_run(small_prior, schedule, op, opt) for op, opt in runs]
    for (op, opt), got in zip(runs, warm):
        assert got.tobytes() == _resample_run(small_prior, schedule, op, opt).tobytes(), opt
        table = _resample_table(small_prior, schedule, op, opt)
        assert np.array_equal(table.P, canon._descent_table(op.s, opt["lr"], opt["momentum"],
                                                            opt["steps"]))
    assert len({got.tobytes() for got in warm}) == len(runs)


@pytest.mark.parametrize("lr", [0.1, 1e6])  # 1e6 overflows P within the 60 steps
def test_resample_descent_table_is_read_only(schedule, small_prior, lr):
    # the run's table holds P and what corr_resample reads of it, each as P alone gives it
    op = ops.dense_operator(np.hstack([np.diag([0.5, 1.0, 2.0]), np.zeros((3, 3))]))
    s = op.s
    assert sorted(s) == [0.5, 1.0, 2.0]
    table = _resample_table(small_prior, schedule, op, {"lr": lr, "momentum": 0.5, "steps": 60})
    assert table.P.shape == table.P2.shape == (60, 3) and table.shift.shape == (3,)
    for array in (table.P, table.P2, table.shift):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        P = canon._descent_table(s, lr, 0.5, 60)
        P2 = P * P
        shift = np.where(np.isfinite(P[-1]), (P[-1] - 1.0) / s, 0.0)
    assert np.array_equal(table.P, P, equal_nan=True)
    assert np.array_equal(table.P2, P2, equal_nan=True)
    assert table.shift.tobytes() == shift.tobytes()
    assert table.finite == bool(np.isfinite(P2).all()) == (lr == 0.1)


# ---------------------------------------------------------------------------
# shared mixture whitening
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["DPS", "PiGDM"])
def test_guided_step_whitens_once_and_matches_separate_calls(
    schedule, small_prior, monkeypatch, name
):
    op = ops.mask_operator(6, [0, 2, 4])
    obs = ops.Observation(y=np.array([0.3, -0.2, 0.1]), op=op, sigma_y=0.05)
    x_t = RngStream(350).standard_normal(6)
    params = canon.default_params(name)

    def step(stream):
        ctx = step_context(x_t, 600, 300, small_prior, schedule, stream, obs, params)
        canon.sample_phi(ctx)
        xhat = canon.CORRECTORS[name](ctx)
        return xhat, canon.apply_noiser(ctx, xhat)

    # the same step with ε and its JVP each whitening on their own
    calls = {"whiten": 0, "eps": 0, "jvp": 0}
    orig_eps, orig_jvp = dif.gmm_eps, dif.gmm_eps_jvp
    monkeypatch.setattr(dif, "gmm_eps", lambda p, s, x, t, whitened=None: orig_eps(p, s, x, t))
    monkeypatch.setattr(dif, "gmm_eps_jvp",
                        lambda p, s, x, t, v, whitened=None: orig_jvp(p, s, x, t, v))
    separate = step(RngStream(351))
    monkeypatch.undo()

    orig_whiten = small_prior._resp_and_whitened

    def count(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(small_prior, "_resp_and_whitened", count("whiten", orig_whiten))
    monkeypatch.setattr(dif, "gmm_eps", count("eps", orig_eps))
    monkeypatch.setattr(dif, "gmm_eps_jvp", count("jvp", orig_jvp))
    shared = step(RngStream(351))
    assert calls == {"whiten": 1, "eps": 1, "jvp": 1}
    for a, b in zip(shared, separate):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# noisers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_i, t_prev", [(500, 250), (250, 0)])
@pytest.mark.parametrize("eta", [0.5, 0.85, 1.0])
def test_noiser_ddim_exact_reconstruction(schedule, small_prior, eta, t_i, t_prev):
    stream = RngStream(70)
    ctx = make_ctx(small_prior, schedule, RngStream(71).standard_normal(6), t_i, t_prev,
                   stream=stream)
    xhat = RngStream(72).standard_normal(6)
    predicted_noise = clone(stream).standard_normal((6,))
    out = canon.noiser_ddim(bind(ctx, None, with_eta("DPS", eta)), xhat)
    c1, c2 = scalar_ddim_coeffs(schedule, t_i, t_prev, eta)
    expected = (
        math.sqrt(schedule.alphabar(t_prev)) * xhat
        + c2 * ctx.eps_cached
        + c1 * predicted_noise
    )
    assert np.array_equal(out, expected)


def test_noiser_ddim_rejects_negative_radicand(schedule, small_prior):
    # eta <= 1 keeps c1^2 <= 1 - ab_prev, so only an oversized eta drives it negative
    ctx = make_ctx(small_prior, schedule, RngStream(91).standard_normal(6), 500, 250)
    with pytest.raises(FloatingPointError, match=r"at \(500,250\)"):
        canon.noiser_ddim(bind(ctx, None, with_eta("DPS", 5.0)), np.zeros(6))


def test_noiser_ddim_deterministic_at_zero_eta(schedule, small_prior):
    ctx = make_ctx(small_prior, schedule, RngStream(73).standard_normal(6), 500, 250)
    xhat = np.ones(6)
    a = canon.noiser_ddim(bind(ctx, None, with_eta("DPS", 0.0)), xhat)
    b = canon.noiser_ddim(bind(ctx, None, with_eta("DPS", 0.0)), xhat)
    assert np.array_equal(a, b)


def test_noiser_dmps_full_eta_exact(schedule, small_prior):
    stream = RngStream(74)
    ctx = make_ctx(small_prior, schedule, RngStream(75).standard_normal(6), 500, 250,
                   stream=stream)
    xhat = RngStream(76).standard_normal(6)
    predicted = clone(stream).standard_normal((6,))
    out = canon.noiser_dmps(bind(ctx, None, with_eta("DMPS", 1.0)), xhat)
    sig_prev = schedule.sigma(250)
    expected = math.sqrt(schedule.alphabar(250)) * xhat + sig_prev * predicted
    assert np.array_equal(out, expected)


def test_noiser_direct_terminal_step_is_identity(schedule, small_prior):
    ctx = make_ctx(small_prior, schedule, RngStream(77).standard_normal(6), 250, 0)
    xhat = RngStream(78).standard_normal(6)
    out = canon.noiser_direct(bind(ctx, None, canon.default_params("REDdiff")), xhat)
    assert np.array_equal(out, math.sqrt(1.0) * xhat)


def test_noiser_direct_statistics(schedule, small_prior):
    stream = RngStream(79)
    xhat = np.zeros((4000, 6))
    ctx = make_ctx(small_prior, schedule, np.zeros((4000, 6)), 500, 250, stream=stream)
    out = canon.noiser_direct(bind(ctx, None, canon.default_params("DAPS")), xhat)
    sig = schedule.sigma(250)
    assert abs(out.std() - sig) / sig < 0.05


def test_noiser_diffpir_zero_eta_is_ddim_step(schedule, small_prior):
    x_t = RngStream(80).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250)
    xhat = ctx.x0_sampled
    out = canon.noiser_diffpir(bind(ctx, None, with_eta("DiffPIR", 0.0)), xhat)
    expected = dif.ddim_step(small_prior, schedule, x_t, 500, 250)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_ddnm_noiser_terminal_noiseless_is_identity(schedule, small_prior):
    op = ops.mask_operator(6, [0, 3])
    obs = ops.Observation(y=np.zeros(2), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(81).standard_normal(6), 250, 0)
    xhat = RngStream(82).standard_normal(6)
    out = canon.noiser_ddrm(bind(ctx, obs, canon.default_params("DDNM")), xhat)
    assert np.max(np.abs(out - xhat)) < 1e-12


def test_ddnm_noiser_range_statistics(schedule, small_prior):
    op = ops.mask_operator(6, list(range(6)))  # full observation, no null space
    obs = ops.Observation(y=np.zeros(6), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, np.zeros((3000, 6)), 500, 250,
                   stream=RngStream(83))
    out = canon.noiser_ddrm(bind(ctx, obs, canon.default_params("DDNM")), np.zeros((3000, 6)))
    sig_prev = schedule.sigma(250)
    assert abs(out.std() - sig_prev) / sig_prev < 0.05


def test_ddrm_noiser_rejects_negative_radicand(schedule, small_prior):
    # with eta_b <= 1 the branch guard masks the radicand, so an oversized
    # replacement weight is the only way to drive it negative
    op = ops.mask_operator(6, [0])
    obs = ops.Observation(y=np.array([0.0]), op=op, sigma_y=0.2)
    ctx = make_ctx(small_prior, schedule, RngStream(84).standard_normal(6), 200, 100)
    params = canon.default_params("DDRM")
    params.eta_b = 5.0
    with pytest.raises(ConfigError):
        canon.noiser_ddrm(bind(ctx, obs, params), np.zeros(6))


def test_resample_noiser_gamma_zero_is_encode(schedule, small_prior):
    x_t = RngStream(85).standard_normal(6)
    stream = RngStream(86)
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=stream)
    params = canon.default_params("ReSample")
    params.eta = 0.0
    params.gamma_rs = 0.0
    xhat = RngStream(87).standard_normal(6)
    out = canon.noiser_resample(bind(ctx, None, params), xhat)
    c1, c2 = scalar_ddim_coeffs(schedule, 500, 250, 0.0)
    expected = math.sqrt(schedule.alphabar(250)) * ctx.x0_sampled + c2 * ctx.eps_cached
    assert np.max(np.abs(out - expected)) < 1e-14


def test_resample_noiser_terminal_step_finite(schedule, small_prior):
    x_t = RngStream(88).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x_t, 250, 0, stream=RngStream(89))
    params = canon.default_params("ReSample")
    xhat = RngStream(90).standard_normal(6)
    out = canon.noiser_resample(bind(ctx, None, params), xhat)
    assert np.all(np.isfinite(out))
    # at t_prev = 0 the posterior blend carries no fresh noise
    ab_i = schedule.alphabar(250)
    g = params.gamma_rs * (1.0 - ab_i) / ab_i
    w = g / (g + 1.0)
    c1, c2 = scalar_ddim_coeffs(schedule, 250, 0, params.eta)
    x_prime = ctx.x0_sampled + c2 * ctx.eps_cached  # c1 = 0 at ab_prev = 1
    assert np.max(np.abs(out - (w * xhat + (1.0 - w) * x_prime))) < 1e-12


# ---------------------------------------------------------------------------
# per-run tables
# ---------------------------------------------------------------------------


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("S", [1, 4, 10])
def test_run_table_rows_equal_one_step_rows(schedule, small_prior, S):
    # a one-step run's table is the same table code, and every row holds the bits of
    # the per-step lookups it replaces
    ts = dif.make_time_grid(schedule, S).timesteps
    run = run_tables(small_prior, schedule, ts)
    assert len(run.rows) == S
    assert [_bits(v) for row in run.rows for v in row] == [
        _bits(v) for row in dif.step_rows(small_prior, schedule, ts[:-1], ts[1:]) for v in row]
    for i, (t_i, t_prev) in enumerate(zip(ts, ts[1:])):
        one = run_tables(small_prior, schedule, (t_i, t_prev)).rows[0]
        row = run.rows[i]
        assert [_bits(v) for v in row] == [_bits(v) for v in one]
        mixture = small_prior._constants(schedule.alphabars([t_i]))
        assert [_bits(v) for v in row[:5]] == [_bits(c[0]) for c in mixture]
        assert row[5:] == (schedule.alphabar(t_i), schedule.alphabar(t_prev),
                           math.sqrt(schedule.alphabar(t_prev)), schedule.sigma(t_prev))
        ctx = make_ctx(small_prior, schedule, np.zeros(6), t_i, t_prev)
        assert (ctx.ab, ctx.ab_prev, ctx.sigma, ctx.sigma_prev) == (
            schedule.alphabar(t_i), schedule.alphabar(t_prev), schedule.sigma(t_i),
            schedule.sigma(t_prev))


@pytest.mark.parametrize("name", [name for name in canon.ALGORITHMS if name != "DAPS"])
def test_driver_builds_the_mixture_constants_once_per_call(schedule, small_prior, monkeypatch,
                                                           name):
    # one prior._constants call over the whole grid, not one per step (DAPS's DDIM
    # chain sampler builds its own sub-grid's tables in dif.ddim_run)
    calls = []
    orig = small_prior._constants

    def spy(ab):
        calls.append(ab.shape)
        return orig(ab)

    monkeypatch.setattr(small_prior, "_constants", spy)
    op = ops.mask_operator(6, [0, 2, 4])
    obs = ops.Observation(y=RngStream(420).standard_normal((3, 1, 3)), op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 6)
    canon.run(canon.default_params(name), small_prior, schedule, obs, grid, seed=4)
    assert calls == [(6,)]


def test_run_tables_compute_ybar_and_the_norms_of_y_once(schedule, small_prior):
    # once per run, read-only, with y's own expressions, and read by every corrector from
    # the run; a nonlinear operator has no U, so its run holds ||y||^2 alone
    op = ops.dense_operator(RngStream(421).standard_normal((4, 6)) / 3.0)
    y = RngStream(422).standard_normal((3, 1, 4))
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 5)
    run = canon.RunTables(small_prior, schedule, grid.timesteps, obs,
                          canon.default_params("ReSample"))
    assert run.ybar.tobytes() == (y @ op.U).tobytes()
    for kept in (run.ybar, run.y_norm2, run.y_perp_norm2):
        with pytest.raises(ValueError, match="read-only"):
            kept *= 2.0
    for i in range(3):
        assert run.y_norm2[i, 0] == np.vdot(y[i, 0], y[i, 0])
        perp = y[i, 0] - (y[i, 0] @ op.U) @ op.U.T
        assert run.y_perp_norm2[i, 0] == np.vdot(perp, perp)
    nlop = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    nl = canon.RunTables(small_prior, schedule, grid.timesteps,
                         ops.Observation(y=y[..., :1].repeat(6, -1), op=nlop, sigma_y=0.05),
                         canon.default_params("DiffPIR"))
    assert nl.y_norm2.shape == (3, 1) and not hasattr(nl, "ybar")
    assert not hasattr(nl, "y_perp_norm2")
    x = RngStream(423).standard_normal((3, 1, 6))
    for name in ("DDRM", "DiffPIR", "DMPS", "ReSample", "DAPS"):  # every reader of them
        ctxs = [step_context(x, 500, 250, small_prior, schedule, RngStream(6), obs,
                             canon.default_params(name), x0_sampled=x) for _ in range(2)]
        ctxs[1].run.ybar = np.zeros_like(ctxs[1].run.ybar)  # read from the run, not obs
        assert not np.array_equal(canon.CORRECTORS[name](ctxs[0]),
                                  canon.CORRECTORS[name](ctxs[1])), name


@given(eta0=st.sampled_from([0.0, 1e-4, 5e-4, 1e-2]) | st.floats(0.0, 0.05),
       delta=st.floats(0.0, 1.0), sigma=st.none() | st.floats(0.01, 1.0),
       n=st.sampled_from([1, 2, 3, 7, 100]) | st.integers(1, 10**9),
       noiseless=st.booleans(), S=st.integers(1, 15))
@settings(max_examples=60, deadline=None)
def test_daps_run_factors_equal_the_one_step_form(schedule, eta0, delta, sigma, n, noiseless,
                                                  S):
    # the (S, r + 1) stack through one _geometric_sums call gives each step the bits
    # the per-step form gives, and a run's context corrects as a one-step one does
    prior = random_mixture(3, 6, 2)
    op = ops.dense_operator(RngStream(423).standard_normal((4, 6)) / 3.0)
    obs = ops.Observation(y=RngStream(424).standard_normal((2, 1, 4)), op=op, sigma_y=0.05)
    params = canon.default_params("DAPS")
    params.daps = canon.DAPSParams(n_langevin=n, eta0=eta0, delta=delta, sigma_langevin=sigma,
                                   noiseless_linear=noiseless)
    resolved = max(obs.sigma_y, 0.02) if sigma is None else sigma
    ts = dif.make_time_grid(schedule, S).timesteps
    run = canon.RunTables(prior, schedule, ts, obs, params)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = canon._daps_rows(run)
        for i, t_i in enumerate(ts[:-1]):
            eta_t = canon.daps_step_size(params.daps, t_i, schedule.T)
            pull = eta_t / (1.0 - schedule.alphabar(t_i))
            a = 1.0 - pull
            eta_w = 1.0 if noiseless else eta_t / resolved**2
            power, total, root = canon._geometric_sums(np.append(a - eta_w * op.s**2, a), n)
            keep = power + pull * total
            want = (math.sqrt(2.0 * eta_t), keep[-1], root[-1], keep[:-1] - keep[-1],
                    eta_w * op.s * total[:-1], root[:-1] - root[-1])
            assert [_bits(v) for v in rows[i]] == [_bits(v) for v in want]
        i = S // 2
        x0 = RngStream(425).standard_normal((2, 1, 6))
        outs = []
        for table in (run, None):
            ctx = step_context(x0, ts[i], ts[i + 1], prior, schedule, RngStream(426), obs,
                               params, x0_sampled=x0, run=table)
            outs.append(canon.corr_daps(ctx))
    assert outs[0].tobytes() == outs[1].tobytes()


def _noiser_ddrm_by_projection(ctx, xhat):
    """`noiser_ddrm` with each null part taken by its own `ops.project` call."""
    obs, params, sig_prev = ctx.obs, ctx.params, ctx.sigma_prev
    op, eta = obs.op, params.eta
    middle = canon._noisy_branch(ctx)
    rad = sig_prev**2 - obs.sigma_y**2 * params.eta_b**2 * ctx.ab_prev / op.s**2
    rad = np.where(middle, 0.0, rad)
    eps = ctx.stream.standard_normal(xhat.shape)
    sqrt_ab = math.sqrt(ctx.ab_prev)
    out_null = (sqrt_ab * ops.project(op, xhat, "null")
                + math.sqrt(max(0.0, 1.0 - eta * eta)) * sig_prev
                * ops.project(op, ctx.eps_cached, "null")
                + eta * sig_prev * ops.project(op, eps, "null"))
    std = np.where(middle, np.full(op.r, eta * sig_prev), np.sqrt(np.clip(rad, 0.0, None)))
    return out_null + (sqrt_ab * (xhat @ op.V) + std * (eps @ op.V)) @ op.V.T


@pytest.mark.parametrize("shape", [(), (3,), (3, 1)])
@pytest.mark.parametrize("sigma_y", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("kind", ["mask", "dense"])
def test_noiser_ddrm_equals_its_projection_form(schedule, small_prior, monkeypatch, kind,
                                                sigma_y, shape):
    # V^T xhat and V^T eps serve the null parts too: one projection call, for eps_theta
    op = (ops.mask_operator(6, [0, 2, 3]) if kind == "mask"
          else ops.dense_operator(RngStream(427).standard_normal((4, 6)) / 3.0))
    x_t = RngStream(428).standard_normal(shape + (6,))
    xhat = RngStream(429).standard_normal(shape + (6,))
    obs = ops.Observation(y=RngStream(430).standard_normal(shape + (op.m,)), op=op,
                          sigma_y=sigma_y)
    projected, project = [], ops.project
    for eta in (0.0, 0.85, 1.0):
        ctxs = [bind(make_ctx(small_prior, schedule, x_t, 500, 250, stream=RngStream(431)),
                     obs, with_eta("DDRM", eta)) for _ in range(2)]
        want = _noiser_ddrm_by_projection(ctxs[1], xhat)
        monkeypatch.setattr(ops, "project", lambda *a: projected.append(a[2]) or project(*a))
        got = canon.noiser_ddrm(ctxs[0], xhat)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()
    assert projected == ["null"] * 3


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def test_run_is_deterministic(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2, 4])
    obs = ops.Observation(y=np.array([0.5, -0.5, 0.1]), op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 4)
    params = canon.default_params("DPS")
    a = canon.run(params, small_prior, schedule, obs, grid, seed=17)
    b = canon.run(params, small_prior, schedule, obs, grid, seed=17)
    assert np.array_equal(a, b)
    c = canon.run(params, small_prior, schedule, obs, grid, seed=18)
    assert not np.array_equal(a, c)


def test_run_ddnm_noiseless_consistency(schedule, small_prior):
    op = ops.mask_operator(6, [1, 4])
    truth = small_prior.sample(RngStream(91), 1)[0]
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    for S in (1, 3, 6):
        grid = dif.make_time_grid(schedule, S)
        out = canon.run(canon.default_params("DDNM"), small_prior, schedule, obs, grid, seed=3)
        assert np.linalg.norm(ops.apply(op, out) - obs.y) < 1e-8


def test_run_with_combiner_visits_every_step(schedule, small_prior):
    op = ops.mask_operator(6, [0])
    obs = ops.Observation(y=np.array([0.3]), op=op, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 5)
    seen = []

    def combiner(ctx, xhat):
        # the step's state: the sampler has run, and history holds the earlier steps
        assert np.array_equal(ctx.x0_sampled, canon.sampler_tweedie(ctx))
        assert ctx.ab == schedule.alphabar(ctx.t_i)
        assert ctx.ab_prev == schedule.alphabar(ctx.t_prev)
        seen.append((ctx.t_i, ctx.t_prev, ctx.step, len(ctx.history)))
        return xhat

    params = canon.default_params("DDNM")
    canon.run_with_combiner(params, small_prior, schedule, obs, grid, RngStream(1),
                            combiner=combiner)
    ts = grid.timesteps
    assert seen == [(ts[k], ts[k + 1], k, k) for k in range(5)]
    assert ts == (1000, 800, 600, 400, 200, 0)


def test_reddiff_anchors_at_the_previous_combined_estimate(schedule, small_prior, monkeypatch):
    # a combiner that moves the estimate, so the combined and corrected estimates differ
    op = ops.mask_operator(6, [0, 3])
    obs = ops.Observation(y=np.array([0.3, -0.2]), op=op, sigma_y=0.1)
    params = canon.default_params("REDdiff")
    params.xi = 0.25  # at xi 1 the anchor cancels out of p + xi (x0 - p - lam grad)
    corrector = canon.CORRECTORS["REDdiff"]
    calls, combined = [], []

    def spy(ctx):
        out = corrector(ctx)
        calls.append((ctx.x0_sampled.copy(), out))
        return out

    def combiner(ctx, xhat):
        combined.append(0.5 * xhat)
        return combined[-1]

    monkeypatch.setitem(canon.CORRECTORS, "REDdiff", spy)
    canon.run_with_combiner(params, small_prior, schedule, obs, dif.make_time_grid(schedule, 4),
                            RngStream(8), combiner=combiner)
    assert len(calls) == 4
    for k, (x0, out) in enumerate(calls):
        anchor = combined[k - 1] if k else x0
        grad = 2.0 * ops.apply_adjoint(op, ops.apply(op, x0) - obs.y)
        expected = anchor + params.xi * ((x0 - anchor) - params.lam * grad)
        assert np.max(np.abs(out - expected)) < 1e-13, k


def test_spectral_algorithms_reject_nonlinear_operator(schedule, small_prior):
    nl = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    obs = ops.Observation(y=np.zeros(6), op=nl, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 2)
    spectral = ("DDRM", "DDNM", "PiGDM", "DMPS")
    assert {name for name, s in canon.SOLVERS.items() if s.linear is True} == set(spectral)
    for name in spectral:
        with pytest.raises(ConfigError, match=name):
            canon.run(canon.default_params(name), small_prior, schedule, obs, grid, seed=92)


@pytest.mark.parametrize("name", list(canon.SOLVERS))
def test_solver_linear_flag_decides_nonlinear_operator(schedule, small_prior, name):
    # a solver that always needs a linear operator fails once, before any draw; any other
    # runs at its preset
    op = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    y = ops.nl_apply(op, RngStream(95, 1).standard_normal((3, 6)))
    obs = ops.Observation(y=y, op=op, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 3)
    params = canon.default_params(name)
    params.daps.n_langevin = 5
    stream = RngStream(95, 2)
    if canon.SOLVERS[name].linear is True:
        with pytest.raises(ConfigError):
            canon.run(params, small_prior, schedule, obs, grid, seed=0, stream=stream)
        assert stream.counter == 0
    else:
        out = canon.run(params, small_prior, schedule, obs, grid, seed=0, stream=stream)
        assert out.shape == (3, 6) and np.all(np.isfinite(out))


def test_daps_noiseless_linear_on_a_nonlinear_operator_fails_before_any_draw(schedule,
                                                                              small_prior):
    # earlier x_T and the first DDIM chain were drawn before corr_daps raised
    op = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    obs = ops.Observation(y=np.zeros((3, 1, 6)), op=op, sigma_y=0.1)
    params = canon.default_params("DAPS")
    params.daps.noiseless_linear = True
    streams = RowStreams(RngStream(95, i) for i in range(3))
    with pytest.raises(ConfigError, match=re.escape("algorithm.daps.noiseless_linear")):
        canon.run_with_combiner(params, small_prior, schedule, obs,
                                dif.make_time_grid(schedule, 3), streams)
    assert [s.counter for s in streams.streams] == [0, 0, 0]


def test_resample_exact_hc_on_a_nonlinear_operator_fails_before_any_draw(schedule,
                                                                         small_prior):
    # earlier corr_resample fell back to the descent, and the run exited 0
    op = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    obs = ops.Observation(y=np.zeros((3, 1, 6)), op=op, sigma_y=0.1)
    params = canon.default_params("ReSample")
    params.exact_hc = True
    streams = RowStreams(RngStream(97, i) for i in range(3))
    with pytest.raises(ConfigError, match="^algorithm.exact_hc needs a linear operator$"):
        canon.run_with_combiner(params, small_prior, schedule, obs,
                                dif.make_time_grid(schedule, 3), streams)
    assert [s.counter for s in streams.streams] == [0, 0, 0]
    ctx = make_ctx(small_prior, schedule, np.zeros(6), 400, 200)
    with pytest.raises(ConfigError, match="^algorithm.exact_hc needs a linear operator$"):
        canon.corr_resample(bind(ctx, ops.Observation(y=np.zeros(6), op=op, sigma_y=0.1), params))


# ---- the read probe over the `algorithm` keys ------------------------------

# the tables of the `algorithm` block by the block they sit in (None: the top)
_ALGORITHM_TABLES = {None: canon.AlgoParams, "daps": canon.DAPSParams,
                     "inner_opt": canon.InnerOptParams}
# another valid value of each `algorithm` key; a bool is flipped
_OTHER = {"eta": 0.5, "eta_b": 0.5, "zeta": 0.5, "xi": 0.5, "lam": 2.0, "gamma_rs": 10.0,
          "daps.k_ddim": 3, "daps.n_langevin": 7, "daps.eta0": 3e-4, "daps.delta": 0.1,
          "daps.sigma_langevin": 0.3, "inner_opt.lr": 0.005, "inner_opt.momentum": 0.5,
          "inner_opt.steps": 7}
_PROBE_OPERATORS = {"mask": {"kind": "mask", "keep_indices": [0, 2, 3]},
                    "nonlinear": {"kind": "nonlinear", "scale": 0.8}}
# keys a config may set that still leave the run's bytes as they were (see CHANGES.md):
# at eta0 0 the linear chain is the anchor, and n_langevin only decides whether its one
# zero-scaled noise draw is made, which no value but 0 changes and 0 is rejected here
_UNMOVED = {("DAPS", "daps", "eta0", 0, "mask"): {"daps.n_langevin"}}


def _context(name, block, switch, value, kind):
    """The config of a solver at its preset with one switch at value (switch None: the
    preset); block "task" holds a switch of the task, as `Solver.unread_when` does."""
    cfg = {"prior": {"dim": 6, "components": 2, "seed": 3},
           "task": {"operator": _PROBE_OPERATORS[kind], "sigma_y": 0.05},
           "algorithm": {"name": name}, "steps": 2, "n_test": 1, "lle": "none",
           "seeds": {"train": 4, "test": 5}}
    if block == "task" and switch == "operator":  # the kind is the switch's value
        return cfg if value == ("nonlinear" if kind == "nonlinear" else "linear") else None
    if switch is not None:
        where = "task" if block == "task" else f"algorithm.{block}" if block else "algorithm"
        cfg = with_value(cfg, f"{where}.{switch}", value)
    return cfg


def _entries(name):
    """{(block, switch, value): the `algorithm` paths it leaves unread} of the preset and
    of each `unread_when` entry whose switch the solver reads."""
    entries = {(None, None, None): []}
    for block, cls in _ALGORITHM_TABLES.items():
        prefix = f"{block}." if block else ""
        for (switch, value), keys in cls.unread_when.items():
            if preset_lists(name, prefix + switch):
                entries.setdefault((block, switch, value), []).extend(prefix + k for k in keys)
    for (path, value), keys in canon.SOLVERS[name].unread_when.items():
        block, _, switch = path.rpartition(".")
        entries.setdefault((block or None, switch, value), []).extend(keys)
    return entries


def _loads(cfg) -> bool:
    try:
        return bool(cfg and loaded(cfg))
    except ConfigError:  # a linear switch on "nonlinear", a key the task leaves unread
        return False


# (solver, block, switch, value, operator kind) of each solver at its preset and at each
# switch value it reads, on a mask and on the nonlinear operator, wherever that loads
_PROBE_CASES = [(name, *entry, kind) for name in canon.SOLVERS for entry in _entries(name)
                for kind in _PROBE_OPERATORS if _loads(_context(name, *entry, kind))]


def _algorithm_paths(name):
    """The dotted `algorithm` path of every value the solver's preset lists."""
    values = field_values(canon.default_params(name))
    paths = [f"{key}.{sub}" if isinstance(value, dict) else key
             for key, value in values.items() if key != "name"
             for sub in (value if isinstance(value, dict) else [None])]
    return [path for path in paths if preset_lists(name, path)]


def _moved(params, path):
    """Another valid value of the `algorithm` key at path than params holds."""
    now = operator.attrgetter(path)(params)
    return (not now) if isinstance(now, bool) else _OTHER[path]


def _set_past_the_loader(params, path, value):
    block, _, key = path.rpartition(".")
    setattr(operator.attrgetter(block)(params) if block else params, key, value)


def _recon(config) -> bytes:
    return harness.run_experiment(config, seed=7)[0].tobytes()


def _moves(cfg, name):
    """(path, another valid value, the load error or None) of each key the preset lists."""
    params = loaded(cfg).params
    for path in _algorithm_paths(name):
        other = _moved(params, path)
        try:
            loaded(with_value(cfg, f"algorithm.{path}", other))
            yield path, other, None
        except ConfigError as exc:
            yield path, other, exc


def test_the_unread_when_cases_cover_every_algorithm_entry():
    # the probe reaches every entry of every table, for some solver on some operator
    entries = {(block, switch, value) for block, cls in _ALGORITHM_TABLES.items()
               for switch, value in cls.unread_when}
    entries |= {(path.rpartition(".")[0] or None, path.rpartition(".")[2], value)
                for solver in canon.SOLVERS.values() for path, value in solver.unread_when}
    assert entries <= {case[1:4] for case in _PROBE_CASES}
    assert {case[0] for case in _PROBE_CASES} == set(canon.SOLVERS)


@pytest.mark.parametrize("name, block, switch, value, kind", _PROBE_CASES)
def test_a_key_its_switch_leaves_unread_leaves_the_run_as_it_was(name, block, switch, value,
                                                                 kind):
    # earlier daps.eta0 at n_langevin 0, inner_opt.lr at steps 0 and DiffPIR's inner_opt
    # on a mask, among others, loaded and ran to the same bytes
    cfg = _context(name, block, switch, value, kind)
    base = _recon(loaded(cfg))
    rejected = set()
    for path, other, exc in _moves(cfg, name):
        if exc is None or not says_unread(exc, f"algorithm.{path}"):
            continue  # read, or another key's rule, or a move that needs a linear operator
        assert " when " in str(exc), str(exc)  # names the condition
        rejected.add(path)
        past = loaded(cfg)
        _set_past_the_loader(past.params, path, other)
        try:
            again = _recon(past)
        except ConfigError as err:  # a linear switch set on the nonlinear operator
            assert "needs a linear operator" in str(err)
            continue
        assert again == base, path
    listed = _entries(name)[block, switch, value]
    assert {path for path in _algorithm_paths(name)
            if any(path == key or path.startswith(f"{key}.") for key in listed)} <= rejected


@pytest.mark.parametrize("name, block, switch, value, kind", _PROBE_CASES)
def test_every_key_a_config_may_set_moves_the_run(name, block, switch, value, kind):
    cfg = _context(name, block, switch, value, kind)
    base = _recon(loaded(cfg))
    unmoved = _UNMOVED.get((name, block, switch, value, kind), set())
    for path, other, exc in _moves(cfg, name):
        if exc is None:
            moved = _recon(loaded(with_value(cfg, f"algorithm.{path}", other))) != base
            assert moved != (path in unmoved), path


def test_a_non_finite_estimate_stops_the_run_naming_its_step_and_rows(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2, 4])
    obs = ops.Observation(y=np.zeros((3, 3)), op=op, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 4)

    def combiner(ctx, xhat):
        if len(ctx.history) == 2:
            xhat = xhat.copy()
            xhat[1, 3] = np.inf
            xhat[2, 0] = np.nan
        return xhat

    message = f"DDNM's estimate at t_i = {grid.timesteps[2]} is not finite in row(s) [1, 2]"
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        canon.run_with_combiner(canon.default_params("DDNM"), small_prior, schedule, obs, grid,
                                RngStream(1), combiner=combiner)


def _unread_fields_set_to_nan(params):
    """params with every field its algorithm's preset does not list set to NaN."""
    for key, r in params.rules.items():
        value = getattr(params, r.attr)
        if r.nested is not None:
            for sub in r.nested.rules:
                if not preset_lists(params.algorithm, f"{key}.{sub}"):
                    setattr(value, sub, math.nan)
        elif key != "name" and not preset_lists(params.algorithm, key):
            setattr(params, r.attr, math.nan)
    return params


@pytest.mark.parametrize("name, kind", [(name, kind) for name, solver in canon.SOLVERS.items()
                                        for kind in ("mask", "nonlinear")
                                        if kind == "mask" or solver.linear is not True])
def test_the_preset_lists_every_key_its_solver_reads(schedule, small_prior, name, kind):
    # NaN in every field the preset does not list leaves the run's bytes as they were
    op = _inner_loop_operator(kind)
    y = RngStream(96, 1).standard_normal((2, 6 if kind == "nonlinear" else op.m))
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 3)
    base = canon.run(canon.default_params(name), small_prior, schedule, obs, grid, seed=96)
    nan = canon.run(_unread_fields_set_to_nan(canon.default_params(name)), small_prior,
                    schedule, obs, grid, seed=96)
    assert nan.tobytes() == base.tobytes()


def test_corrector_fuzz_outputs_finite(schedule):
    prior = random_mixture(93, 5, 2)
    op = ops.mask_operator(5, [0, 2, 3])
    stream = RngStream(94)
    grid = dif.make_time_grid(schedule, 8).timesteps
    draws_per_algo = 112
    for name in canon.ALGORITHMS:
        params = canon.default_params(name)
        params.inner_opt.steps = 5
        params.daps.n_langevin = 5
        params.daps.k_ddim = 2
        for j in range(draws_per_algo):
            idx = j % (len(grid) - 1)
            t_i, t_prev = grid[idx], grid[idx + 1]
            x_t = 5.0 * stream.standard_normal(5)
            y = stream.standard_normal(3)
            obs = ops.Observation(y=y, op=op, sigma_y=0.05 + 0.5 * float(stream.uniform(())))
            ctx = step_context(x_t, t_i, t_prev, prior, schedule, stream, obs, params)
            canon.sample_phi(ctx)
            try:
                xhat = canon.CORRECTORS[name](ctx)
                x_next = canon.apply_noiser(ctx, xhat)
            except ConvergenceError:
                continue
            assert np.all(np.isfinite(xhat)), (name, j)
            assert np.all(np.isfinite(x_next)), (name, j)
