import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from lle import canonical as canon
from lle import diffusion as dif
from lle import operators as ops
from lle.errors import ConfigError, ConvergenceError
from lle.numerics import RngStream, RowStreams

from conftest import preset_lists, random_mixture, random_spd, scalar_ddim_coeffs, tweedie


def make_ctx(prior, schedule, x_t, t_i, t_prev, stream=None, x0=None):
    ctx = canon.StepContext(
        x_t=np.asarray(x_t, dtype=float),
        t_i=t_i,
        t_prev=t_prev,
        prior=prior,
        schedule=schedule,
        stream=stream if stream is not None else RngStream(99),
    )
    if x0 is None:
        canon.sample_phi(canon.default_params("DDNM"), ctx)
    else:
        ctx.x0_sampled = np.asarray(x0, dtype=float)
    return ctx


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


def test_sampler_is_tweedie(schedule, small_prior):
    x = RngStream(40).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x, 700, 350)
    expected = tweedie(small_prior, schedule, x, 700)
    assert np.max(np.abs(ctx.x0_sampled - expected)) < 1e-13


def test_sampler_daps_uses_ddim_chain(schedule, small_prior):
    x = RngStream(41).standard_normal(6)
    params = canon.default_params("DAPS")
    params.daps.k_ddim = 3
    ctx = canon.StepContext(
        x_t=x, t_i=600, t_prev=300, prior=small_prior, schedule=schedule,
        stream=RngStream(0),
    )
    out = canon.sample_phi(params, ctx)
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
        out = corr(ctx, o, params)
        assert np.array_equal(out, ctx.x0_sampled), corr.__name__


# ---------------------------------------------------------------------------
# DDNM corrector: DDRM's spectral corrector at eta_b = 1
# ---------------------------------------------------------------------------


def test_ddnm_noiseless_is_exact_projection(schedule, small_prior):
    op = ops.mask_operator(6, [1, 3, 5])
    truth = RngStream(44).standard_normal(6)
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(45).standard_normal(6), 500, 250)
    out = canon.corr_ddrm(ctx, obs, canon.default_params("DDNM"))
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
    out = canon.corr_ddrm(ctx, obs, params)

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
    out = canon.corr_ddrm(ctx, obs, params)
    assert np.max(np.abs(ops.apply(op, out) - obs.y)) < 1e-12


def test_ddrm_zero_blend_weight_keeps_x0(schedule, small_prior):
    op = ops.mask_operator(6, [0, 1, 2])
    obs = ops.Observation(y=np.zeros(3), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(48).standard_normal(6), 600, 300)
    params = canon.default_params("DDRM")
    params.eta_b = 0.0
    out = canon.corr_ddrm(ctx, obs, params)
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
    out = canon.corr_ddrm(ctx, obs, params)

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
    out = canon.corr_dps(ctx, obs, params)
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
    out = canon.corr_dps(ctx, obs, canon.default_params("DPS"))
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
    out = canon.corr_pigdm(ctx, obs, canon.default_params("PiGDM"))

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
    out = canon.corr_pigdm(ctx, obs, canon.default_params("PiGDM"))
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
    out = canon.corr_reddiff(ctx, obs, params)
    x0 = ctx.x0_sampled
    grad = 2.0 * ops.apply_adjoint(op, ops.apply(op, x0) - y)
    assert np.max(np.abs(out - (x0 - 0.5 * grad))) < 1e-13


def test_reddiff_anchors_previous_estimate(schedule, small_prior):
    op = ops.mask_operator(6, [0])
    obs = ops.Observation(y=np.array([0.0]), op=op, sigma_y=0.1)
    ctx = make_ctx(small_prior, schedule, RngStream(56).standard_normal(6), 500, 250)
    prev = RngStream(57).standard_normal(6)
    ctx.prev_xhat = prev
    params = canon.default_params("REDdiff")
    params.xi = 0.25
    out = canon.corr_reddiff(ctx, obs, params)
    x0 = ctx.x0_sampled
    grad = 2.0 * ops.apply_adjoint(op, ops.apply(op, x0) - obs.y)
    expected = prev + 0.25 * ((x0 - prev) - 0.5 * grad)
    assert np.max(np.abs(out - expected)) < 1e-13
    params.xi = 0.0
    assert np.array_equal(canon.corr_reddiff(ctx, obs, params), prev)


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
    out = canon.corr_diffpir(ctx, obs, params)
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
    out = canon.corr_diffpir(ctx, obs, canon.default_params("DiffPIR"))
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
    out = canon.corr_diffpir(ctx, obs, params)
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
    out = canon.corr_dmps(ctx, obs, params)

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
    out = canon.corr_resample(ctx, obs, params)
    x0 = ctx.x0_sampled
    assert np.max(np.abs(out - (x0 + ops.pinv_apply(op, y - ops.apply(op, x0))))) < 1e-13


def test_resample_descent_reduces_residual(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2, 4])
    y = np.array([0.5, 0.5, -0.5])
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    ctx = make_ctx(small_prior, schedule, RngStream(64).standard_normal(6), 400, 200)
    params = canon.default_params("ReSample")
    out = canon.corr_resample(ctx, obs, params)
    before = np.linalg.norm(ops.apply(op, ctx.x0_sampled) - y)
    after = np.linalg.norm(ops.apply(op, out) - y)
    assert after < 0.3 * before


def test_resample_fixed_point_at_consistency(schedule, small_prior):
    op = ops.mask_operator(6, [1, 3])
    ctx = make_ctx(small_prior, schedule, RngStream(65).standard_normal(6), 400, 200)
    obs = ops.Observation(y=ops.apply(op, ctx.x0_sampled), op=op, sigma_y=0.05)
    out = canon.corr_resample(ctx, obs, canon.default_params("ReSample"))
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
    with pytest.raises(ConfigError, match=r"algorithm\.daps\.sigma_langevin"):
        canon.DAPSParams(sigma_langevin=0.0)
    params.daps = canon.DAPSParams(sigma_langevin=0.0, noiseless_linear=True)
    out = canon.corr_daps(ctx, obs, params)
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
        outs.append(canon.corr_daps(ctx, obs, canon.default_params("DAPS")))
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
    return canon.StepContext(
        x_t=ctx.x_t, t_i=ctx.t_i, t_prev=ctx.t_prev, prior=ctx.prior,
        schedule=ctx.schedule, stream=stream, x0_sampled=ctx.x0_sampled,
    )


def _rel_dev(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind, noiseless", [
    ("mask", False), ("blur", False), ("dense", False), ("nonlinear", False),
    ("mask", True), ("blur", True), ("dense", True),
])
def test_daps_matches_reference_loop(schedule, small_prior, kind, noiseless, batch):
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, batch,
                                0.0 if noiseless else 0.1, 320)
    params = canon.default_params("DAPS")
    params.daps.n_langevin = 23  # two full blocks of 10 and a short one of 3
    params.daps.eta0 = 1e-3
    params.daps.noiseless_linear = noiseless
    ref_ctx = copy_ctx(ctx, clone(ctx.stream))
    got = canon.corr_daps(ctx, obs, params)
    ref = _daps_reference(ref_ctx, obs, params)
    assert got.shape == ref.shape
    if kind == "nonlinear":
        assert np.array_equal(got, ref)  # the nonlinear drift is unchanged
    else:
        assert _rel_dev(got, ref) <= 1e-12
    assert ctx.stream.counter == ref_ctx.stream.counter


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 100])
def test_daps_advances_counter_once_per_block_of_ten(schedule, small_prior, n):
    obs, ctx = _inner_loop_case(small_prior, schedule, "mask", 4, 0.1, 322)
    params = canon.default_params("DAPS")
    params.daps.n_langevin = n
    start = ctx.stream.counter
    canon.corr_daps(ctx, obs, params)
    assert ctx.stream.counter - start == math.ceil(n / 10)


@pytest.mark.parametrize("n", [1, 10, 23])
@pytest.mark.parametrize("kind", ["mask", "nonlinear"])
def test_daps_batched_rows_equal_one_row_calls(schedule, small_prior, kind, n):
    # an (N, 1, d) batch drawing from RowStreams against N one-row calls, each
    # with its own RngStream: the same numbers in the same order, bit for bit
    N, d = 5, 6
    op = _inner_loop_operator(kind, d)
    m = d if kind == "nonlinear" else op.m
    y = RngStream(323, 1).standard_normal((N, 1, m))
    x_t = RngStream(323, 2).standard_normal((N, 1, d))
    x0 = RngStream(323, 4).standard_normal((N, 1, d))
    params = canon.default_params("DAPS")
    params.daps.n_langevin = n
    params.daps.eta0 = 1e-3
    rows = RowStreams(RngStream(323, 1000 + i) for i in range(N))
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=rows, x0=x0)
    got = canon.corr_daps(ctx, ops.Observation(y=y, op=op, sigma_y=0.1), params)
    assert got.shape == (N, 1, d)
    for i in range(N):
        one = make_ctx(small_prior, schedule, x_t[i], 500, 250,
                       stream=RngStream(323, 1000 + i), x0=x0[i])
        ref = canon.corr_daps(one, ops.Observation(y=y[i], op=op, sigma_y=0.1), params)
        assert np.array_equal(got[i], ref), i
        assert rows.streams[i].counter == one.stream.counter == math.ceil(n / 10)


def test_daps_memory_is_one_block_whatever_n_langevin(schedule):
    # 1024 rows, d = 4, 2000 iterations: one whole-call draw would hold
    # 2000 * 1024 * 4 floats (~65 MB); a block of 10 holds ~0.33 MB, and the
    # last block is released before the next is drawn
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 4)), np.eye(4)[None])
    anchor = np.tile([0.5, -1.0, 2.0, 0.0], (1024, 1))
    obs = ops.Observation(y=anchor.copy(), op=ops.dense_operator(np.eye(4)), sigma_y=0.1)
    params = canon.default_params("DAPS")
    params.daps.n_langevin = 1
    ctx = make_ctx(prior, schedule, anchor, 1000, 750, stream=RngStream(324), x0=anchor)
    canon.corr_daps(ctx, obs, params)  # the first draw loads numpy.random
    params.daps.n_langevin = 2000
    tracemalloc.start()
    try:
        canon.corr_daps(ctx, obs, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 550_000, peak


def test_daps_noiseless_variant_rejects_nonlinear(schedule, small_prior):
    obs, ctx = _inner_loop_case(small_prior, schedule, "nonlinear", 1, 0.1, 321)
    params = canon.default_params("DAPS")
    params.daps.noiseless_linear = True
    with pytest.raises(ConfigError):
        canon.corr_daps(ctx, obs, params)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("kind", ["mask", "blur", "dense", "nonlinear"])
def test_resample_matches_full_space_loop(schedule, small_prior, kind, batch):
    obs, ctx = _inner_loop_case(small_prior, schedule, kind, batch, 0.05, 330)
    params = canon.default_params("ReSample")
    opt = params.inner_opt
    got = canon.corr_resample(ctx, obs, params)
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
    canon.corr_diffpir(ctx, obs, params)
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
        canon.corr_resample(ctx, obs, params)


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
        canon.CORRECTORS[algo](ctx, obs, params)
    # each row alone gets the same verdict
    for i in range(3):
        row_obs = ops.Observation(y=y[i, 0], op=op, sigma_y=0.05)
        row_ctx = make_ctx(small_prior, schedule, x_t[i, 0], 500, 250, x0=x0[i, 0])
        if i == 1:
            with pytest.raises(ConvergenceError, match=r"row\(s\) \[0\]"):
                canon.CORRECTORS[algo](row_ctx, row_obs, params)
        else:
            assert np.all(np.isfinite(canon.CORRECTORS[algo](row_ctx, row_obs, params)))


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
        out = canon.corr_diffpir(ctx, obs, params)
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
    got = canon.corr_resample(ctx, obs, params)
    assert _rel_dev(got, ref) <= 1e-12


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
        ctx = canon.StepContext(x_t=x_t, t_i=600, t_prev=300, prior=small_prior,
                                schedule=schedule, stream=stream)
        canon.sample_phi(params, ctx)
        xhat = canon.CORRECTORS[name](ctx, obs, params)
        return xhat, canon.apply_noiser(params, ctx, obs, xhat)

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
    out = canon.noiser_ddim(xhat, ctx, None, with_eta("DPS", eta))
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
        canon.noiser_ddim(np.zeros(6), ctx, None, with_eta("DPS", 5.0))


def test_noiser_ddim_deterministic_at_zero_eta(schedule, small_prior):
    ctx = make_ctx(small_prior, schedule, RngStream(73).standard_normal(6), 500, 250)
    xhat = np.ones(6)
    a = canon.noiser_ddim(xhat, ctx, None, with_eta("DPS", 0.0))
    b = canon.noiser_ddim(xhat, ctx, None, with_eta("DPS", 0.0))
    assert np.array_equal(a, b)


def test_noiser_dmps_full_eta_exact(schedule, small_prior):
    stream = RngStream(74)
    ctx = make_ctx(small_prior, schedule, RngStream(75).standard_normal(6), 500, 250,
                   stream=stream)
    xhat = RngStream(76).standard_normal(6)
    predicted = clone(stream).standard_normal((6,))
    out = canon.noiser_dmps(xhat, ctx, None, with_eta("DMPS", 1.0))
    sig_prev = schedule.sigma(250)
    expected = math.sqrt(schedule.alphabar(250)) * xhat + sig_prev * predicted
    assert np.array_equal(out, expected)


def test_noiser_direct_terminal_step_is_identity(schedule, small_prior):
    ctx = make_ctx(small_prior, schedule, RngStream(77).standard_normal(6), 250, 0)
    xhat = RngStream(78).standard_normal(6)
    out = canon.noiser_direct(xhat, ctx, None, canon.default_params("REDdiff"))
    assert np.array_equal(out, math.sqrt(1.0) * xhat)


def test_noiser_direct_statistics(schedule, small_prior):
    stream = RngStream(79)
    xhat = np.zeros((4000, 6))
    ctx = make_ctx(small_prior, schedule, np.zeros((4000, 6)), 500, 250, stream=stream)
    out = canon.noiser_direct(xhat, ctx, None, canon.default_params("DAPS"))
    sig = schedule.sigma(250)
    assert abs(out.std() - sig) / sig < 0.05


def test_noiser_diffpir_zero_eta_is_ddim_step(schedule, small_prior):
    x_t = RngStream(80).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250)
    xhat = ctx.x0_sampled
    out = canon.noiser_diffpir(xhat, ctx, None, with_eta("DiffPIR", 0.0))
    expected = dif.ddim_step(small_prior, schedule, x_t, 500, 250)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_ddnm_noiser_terminal_noiseless_is_identity(schedule, small_prior):
    op = ops.mask_operator(6, [0, 3])
    obs = ops.Observation(y=np.zeros(2), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, RngStream(81).standard_normal(6), 250, 0)
    xhat = RngStream(82).standard_normal(6)
    out = canon.noiser_ddrm(xhat, ctx, obs, canon.default_params("DDNM"))
    assert np.max(np.abs(out - xhat)) < 1e-12


def test_ddnm_noiser_range_statistics(schedule, small_prior):
    op = ops.mask_operator(6, list(range(6)))  # full observation, no null space
    obs = ops.Observation(y=np.zeros(6), op=op, sigma_y=0.0)
    ctx = make_ctx(small_prior, schedule, np.zeros((3000, 6)), 500, 250,
                   stream=RngStream(83))
    out = canon.noiser_ddrm(np.zeros((3000, 6)), ctx, obs, canon.default_params("DDNM"))
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
        canon.noiser_ddrm(np.zeros(6), ctx, obs, params)


def test_resample_noiser_gamma_zero_is_encode(schedule, small_prior):
    x_t = RngStream(85).standard_normal(6)
    stream = RngStream(86)
    ctx = make_ctx(small_prior, schedule, x_t, 500, 250, stream=stream)
    params = canon.default_params("ReSample")
    params.eta = 0.0
    params.gamma_rs = 0.0
    xhat = RngStream(87).standard_normal(6)
    out = canon.noiser_resample(xhat, ctx, None, params)
    c1, c2 = scalar_ddim_coeffs(schedule, 500, 250, 0.0)
    expected = math.sqrt(schedule.alphabar(250)) * ctx.x0_sampled + c2 * ctx.eps_cached
    assert np.max(np.abs(out - expected)) < 1e-14


def test_resample_noiser_terminal_step_finite(schedule, small_prior):
    x_t = RngStream(88).standard_normal(6)
    ctx = make_ctx(small_prior, schedule, x_t, 250, 0, stream=RngStream(89))
    params = canon.default_params("ReSample")
    xhat = RngStream(90).standard_normal(6)
    out = canon.noiser_resample(xhat, ctx, None, params)
    assert np.all(np.isfinite(out))
    # at t_prev = 0 the posterior blend carries no fresh noise
    ab_i = schedule.alphabar(250)
    g = params.gamma_rs * (1.0 - ab_i) / ab_i
    w = g / (g + 1.0)
    c1, c2 = scalar_ddim_coeffs(schedule, 250, 0, params.eta)
    x_prime = ctx.x0_sampled + c2 * ctx.eps_cached  # c1 = 0 at ab_prev = 1
    assert np.max(np.abs(out - (w * xhat + (1.0 - w) * x_prime))) < 1e-12


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

    def combiner(i, history, xhat):
        seen.append((i, len(history)))
        return xhat

    canon.run_with_combiner(
        canon.default_params("DDNM"), small_prior, schedule, obs, grid,
        RngStream(1), combiner=combiner,
    )
    assert seen == [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4)]


def test_spectral_algorithms_reject_nonlinear_operator(schedule, small_prior):
    nl = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    obs = ops.Observation(y=np.zeros(6), op=nl, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 2)
    spectral = ("DDRM", "DDNM", "PiGDM", "DMPS")
    assert {name for name, s in canon.SOLVERS.items() if s.linear} == set(spectral)
    for name in spectral:
        with pytest.raises(ConfigError, match=name):
            canon.run(canon.default_params(name), small_prior, schedule, obs, grid, seed=92)


@pytest.mark.parametrize("name", list(canon.SOLVERS))
def test_solver_linear_flag_decides_nonlinear_operator(schedule, small_prior, name):
    # a solver marked linear fails once, before any draw; any other runs
    op = ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.0)
    y = ops.nl_apply(op, RngStream(95, 1).standard_normal((3, 6)))
    obs = ops.Observation(y=y, op=op, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 3)
    params = canon.default_params(name)
    params.daps.n_langevin = 5
    stream = RngStream(95, 2)
    if canon.SOLVERS[name].linear:
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


def test_a_non_finite_estimate_stops_the_run_naming_its_step_and_rows(schedule, small_prior):
    op = ops.mask_operator(6, [0, 2, 4])
    obs = ops.Observation(y=np.zeros((3, 3)), op=op, sigma_y=0.1)
    grid = dif.make_time_grid(schedule, 4)

    def combiner(i, history, xhat):
        if i == 2:
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
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            for g in dataclasses.fields(value):
                if not preset_lists(params.algorithm, f"{f.name}.{g.name}"):
                    setattr(value, g.name, math.nan)
        elif f.name != "algorithm" and not preset_lists(params.algorithm, f.name):
            setattr(params, f.name, math.nan)
    return params


@pytest.mark.parametrize("name, kind", [(name, kind) for name, solver in canon.SOLVERS.items()
                                        for kind in ("mask", "nonlinear")
                                        if kind == "mask" or not solver.linear])
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
            ctx = canon.StepContext(
                x_t=x_t, t_i=t_i, t_prev=t_prev, prior=prior,
                schedule=schedule, stream=stream,
            )
            canon.sample_phi(params, ctx)
            try:
                xhat = canon.CORRECTORS[name](ctx, obs, params)
                x_next = canon.apply_noiser(params, ctx, obs, xhat)
            except ConvergenceError:
                continue
            assert np.all(np.isfinite(xhat)), (name, j)
            assert np.all(np.isfinite(x_next)), (name, j)
