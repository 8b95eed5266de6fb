import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lle import diffusion as dif
from lle.numerics import RngStream

from conftest import random_mixture, random_spd


# ---------------------------------------------------------------------------
# schedule and grid
# ---------------------------------------------------------------------------


def test_alphabar_endpoints(schedule):
    assert schedule.alphabar(0) == 1.0
    # independent oracle: log-domain product of (1 - beta_t)
    betas = np.linspace(1e-4, 0.02, 1000)
    expected = math.exp(math.fsum(np.log1p(-betas)))
    assert abs(schedule.alphabar(1000) - expected) < 1e-16
    assert abs(schedule.alphabar(1000) - 4.0358e-5) < 1e-8


def test_alphabar_strictly_decreasing(schedule):
    table = schedule.alphabar_table
    assert np.all(np.diff(table) < 0)


def test_sigma_matches_alphabar(schedule):
    for t in (0, 1, 500, 1000):
        assert schedule.sigma(t) == math.sqrt(1.0 - schedule.alphabar(t))


def test_alphabar_bounds(schedule):
    with pytest.raises(dif.BoundsError):
        schedule.alphabar(1001)
    with pytest.raises(dif.BoundsError):
        schedule.alphabar(-1)


def test_time_grid_even_spacing(schedule):
    assert dif.make_time_grid(schedule, 4).timesteps == (1000, 750, 500, 250, 0)
    assert dif.make_time_grid(schedule, 1).timesteps == (1000, 0)
    g = dif.make_time_grid(schedule, 7)
    assert g.timesteps[0] == 1000 and g.timesteps[-1] == 0
    assert all(a > b for a, b in zip(g.timesteps, g.timesteps[1:]))


def test_time_grid_rejects_bad_s(schedule):
    with pytest.raises(dif.InvalidGridError):
        dif.make_time_grid(schedule, 0)
    with pytest.raises(dif.InvalidGridError):
        dif.make_time_grid(schedule, 1001)


# ---------------------------------------------------------------------------
# mixture prior
# ---------------------------------------------------------------------------


def test_prior_validates_weights():
    with pytest.raises(ValueError):
        dif.GaussianMixturePrior([0.5, 0.4], np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(np.linalg.LinAlgError):
        dif.GaussianMixturePrior([1.0], np.zeros((1, 2)), -np.eye(2)[None])


def test_prior_json_round_trip(small_prior):
    back = dif.GaussianMixturePrior.from_json(small_prior.to_json())
    assert np.array_equal(back.weights, small_prior.weights)
    assert np.array_equal(back.means, small_prior.means)
    assert np.array_equal(back.covariances, small_prior.covariances)


def test_prior_sampling_moments():
    mu = np.array([[1.0, -2.0]])
    cov = np.array([[[0.5, 0.2], [0.2, 0.4]]])
    prior = dif.GaussianMixturePrior([1.0], mu, cov)
    x = prior.sample(RngStream(6), 40_000)
    assert np.max(np.abs(x.mean(axis=0) - mu[0])) < 0.02
    assert np.max(np.abs(np.cov(x.T) - cov[0])) < 0.02


def test_mixture_sampling_weights():
    prior = dif.GaussianMixturePrior(
        [0.7, 0.3], np.array([[5.0], [-5.0]]), np.stack([np.eye(1) * 0.1] * 2)
    )
    x = prior.sample(RngStream(8), 20_000)
    frac = float(np.mean(x[:, 0] > 0))
    assert abs(frac - 0.7) < 0.02


# ---------------------------------------------------------------------------
# score / eps / tweedie
# ---------------------------------------------------------------------------


def test_eps_standard_normal_prior(schedule):
    # N(0, I): marginal at any t is N(0, I), so eps(x) = sqrt(1-ab) * x
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 4)), np.eye(4)[None])
    x = RngStream(2).standard_normal(4)
    for t in (1, 400, 1000):
        expected = schedule.sigma(t) * x
        assert np.max(np.abs(dif.gmm_eps(prior, schedule, x, t) - expected)) < 1e-12


def test_score_symmetric_mixture_vanishes_at_origin(schedule):
    prior = dif.GaussianMixturePrior(
        [0.5, 0.5], np.array([[2.0], [-2.0]]), np.stack([np.eye(1) * 0.3] * 2)
    )
    s = dif.gmm_score(prior, schedule, np.zeros(1), 300)
    assert abs(s[0]) < 1e-14


def test_tweedie_single_gaussian_conditioning(schedule):
    # Gaussian conditioning oracle: E[x0|xt] = mu + sqrt(ab) Sig C^-1 (xt - sqrt(ab) mu)
    stream = RngStream(17)
    d = 6
    mu = stream.standard_normal(d)
    Sig = random_spd(stream, d)
    prior = dif.GaussianMixturePrior([1.0], mu[None], Sig[None])
    for t in (5, 250, 999):
        ab = schedule.alphabar(t)
        C = ab * Sig + (1.0 - ab) * np.eye(d)
        for _ in range(10):
            x = 2.0 * stream.standard_normal(d)
            expected = mu + math.sqrt(ab) * Sig @ np.linalg.solve(C, x - math.sqrt(ab) * mu)
            got = dif.tweedie(prior, schedule, x, t)
            assert np.max(np.abs(got - expected)) < 1e-12


def test_tweedie_identity_at_zero(schedule, small_prior):
    x = RngStream(1).standard_normal(6)
    assert np.array_equal(dif.tweedie(small_prior, schedule, x, 0), x)


def test_score_far_from_support_stays_finite(schedule, small_prior):
    x = np.full(6, 1e6)
    s = dif.gmm_score(small_prior, schedule, x, 500)
    assert np.all(np.isfinite(s))


def test_batched_eps_matches_loop(schedule, small_prior):
    xs = RngStream(9).standard_normal((5, 6))
    batched = dif.gmm_eps(small_prior, schedule, xs, 321)
    for i in range(5):
        single = dif.gmm_eps(small_prior, schedule, xs[i], 321)
        assert np.max(np.abs(batched[i] - single)) < 1e-14


# ---------------------------------------------------------------------------
# jvp
# ---------------------------------------------------------------------------


def test_jvp_matches_finite_differences(schedule):
    prior = random_mixture(21, 8, 3)
    stream = RngStream(22)
    h = 1e-5
    for _ in range(10):
        x = 2.0 * stream.standard_normal(8)
        v = stream.standard_normal(8)
        v /= np.linalg.norm(v)
        t = int(stream.integers(1, 1000, ()))
        fd = (
            dif.gmm_eps(prior, schedule, x + h * v, t)
            - dif.gmm_eps(prior, schedule, x - h * v, t)
        ) / (2 * h)
        jvp = dif.gmm_eps_jvp(prior, schedule, x, t, v)
        rel = np.linalg.norm(jvp - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_jvp_is_symmetric(schedule, small_prior):
    stream = RngStream(23)
    x = stream.standard_normal(6)
    u = stream.standard_normal(6)
    v = stream.standard_normal(6)
    ju = dif.gmm_eps_jvp(small_prior, schedule, x, 700, u)
    jv = dif.gmm_eps_jvp(small_prior, schedule, x, 700, v)
    assert abs(v @ ju - u @ jv) < 1e-10


def test_jvp_zero_direction(schedule, small_prior):
    x = RngStream(24).standard_normal(6)
    assert np.all(dif.gmm_eps_jvp(small_prior, schedule, x, 100, np.zeros(6)) == 0.0)


# ---------------------------------------------------------------------------
# eigenbasis kernels against the per-timestep Cholesky reference
# ---------------------------------------------------------------------------


def cholesky_resp_and_whitened(prior, schedule, x, t):
    """Reference: factor C_k = ab*Sigma_k + (1-ab)*I at t and solve triangularly.

    Returns responsibilities r (B,K), u_k = C_k^-1 (x - m_k) (K,B,d), and the
    Cholesky factors.
    """
    ab = schedule.alphabar(t)
    means_t = math.sqrt(ab) * prior.means
    chols = np.empty_like(prior.covariances)
    lognorm = np.empty(prior.K)
    for k in range(prior.K):
        L = np.linalg.cholesky(ab * prior.covariances[k] + (1.0 - ab) * np.eye(prior.d))
        chols[k] = L
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        lognorm[k] = math.log(prior.weights[k]) - 0.5 * (
            logdet + prior.d * math.log(2.0 * math.pi)
        )
    u = np.empty((prior.K, x.shape[0], prior.d))
    logp = np.empty((x.shape[0], prior.K))
    for k in range(prior.K):
        z = np.linalg.solve(chols[k], (x - means_t[k]).T)
        u[k] = np.linalg.solve(chols[k].T, z).T
        logp[:, k] = lognorm[k] - 0.5 * np.sum(z * z, axis=0)
    r = np.exp(logp - logp.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    return r, u, chols


def cholesky_eps(prior, schedule, x, t):
    r, u, _ = cholesky_resp_and_whitened(prior, schedule, x, t)
    return schedule.sigma(t) * np.einsum("bk,kbd->bd", r, u)


def cholesky_eps_jvp(prior, schedule, x, t, v):
    r, u, chols = cholesky_resp_and_whitened(prior, schedule, x, t)
    score = -np.einsum("bk,kbd->bd", r, u)
    hv = np.zeros_like(x)
    for k in range(prior.K):
        cinv_v = np.linalg.solve(chols[k].T, np.linalg.solve(chols[k], v.T)).T
        gk_dot_v = np.sum(-u[k] * v, axis=1, keepdims=True)
        hv += r[:, k : k + 1] * (-cinv_v + (-u[k]) * gk_dot_v)
    hv -= score * np.sum(score * v, axis=1, keepdims=True)
    return -schedule.sigma(t) * hv


def ill_conditioned_mixture(rng, d, K, cond):
    """Random means and SPD covariances Q diag(lam) Q^T, lam spanning cond."""
    covs = np.empty((K, d, d))
    for k in range(K):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = rng.uniform(0.1, 3.0) * np.geomspace(1.0 / cond, 1.0, d)
        covs[k] = (Q * rng.permutation(lam)) @ Q.T
        covs[k] = 0.5 * (covs[k] + covs[k].T)
    w = rng.uniform(0.5, 1.5, K)
    return dif.GaussianMixturePrior(w / w.sum(), 2.0 * rng.standard_normal((K, d)), covs)


def max_rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    d=st.integers(min_value=1, max_value=8),
    K=st.integers(min_value=1, max_value=3),
    log_cond=st.floats(min_value=0.0, max_value=6.0),
    t=st.integers(min_value=1, max_value=1000),
    B=st.sampled_from([1, 7]),
)
@settings(max_examples=200, deadline=None)
def test_eigenbasis_kernels_match_cholesky_reference(schedule, seed, d, K, log_cond, t, B):
    # x is a draw from the noised marginal q_t, where DDIM and the solvers
    # evaluate eps. Far off the support at t near 1, with split
    # responsibilities, r depends on Mahalanobis distances of ~1e5 whose last
    # digits neither kernel gets right, and the two drift apart by up to ~1e-9.
    rng = np.random.default_rng(seed)
    prior = ill_conditioned_mixture(rng, d, K, 10.0**log_cond)
    ab = schedule.alphabar(t)
    x0 = prior.sample(RngStream(seed % 2**20), B)
    x = math.sqrt(ab) * x0 + schedule.sigma(t) * rng.standard_normal((B, d))
    v = rng.standard_normal((B, d))
    eps = dif.gmm_eps(prior, schedule, x, t)
    jvp = dif.gmm_eps_jvp(prior, schedule, x, t, v)
    assert max_rel(eps, cholesky_eps(prior, schedule, x, t)) <= 1e-10
    assert max_rel(jvp, cholesky_eps_jvp(prior, schedule, x, t, v)) <= 1e-10


def test_prior_sampling_uses_cholesky_draws():
    prior = random_mixture(31, 5, 3)
    got = prior.sample(RngStream(32), 50)
    stream = RngStream(32)
    u = stream.uniform(50)
    comp = np.clip(np.searchsorted(np.cumsum(prior.weights), u), 0, prior.K - 1)
    eps = stream.standard_normal((50, prior.d))
    for k in range(prior.K):
        L = np.linalg.cholesky(prior.covariances[k])
        assert np.array_equal(got[comp == k], prior.means[k] + eps[comp == k] @ L.T)


# ---------------------------------------------------------------------------
# DDIM
# ---------------------------------------------------------------------------


def test_ddim_coeff_variance_identity(schedule):
    for S in (2, 5, 10):
        ts = dif.make_time_grid(schedule, S).timesteps
        for t_from, t_to in zip(ts[:-1], ts[1:]):
            for eta in (0.0, 0.5, 0.85, 1.0):
                c1, c2 = dif.ddim_coeffs(schedule, t_from, t_to, eta)
                assert abs(c1 * c1 + c2 * c2 - (1.0 - schedule.alphabar(t_to))) < 1e-12


def test_ddim_step_same_timestep_is_identity(schedule, small_prior):
    x = RngStream(25).standard_normal(6)
    assert np.array_equal(dif.ddim_step(small_prior, schedule, x, 400, 400), x)


def test_ddim_step_rejects_upward(schedule, small_prior):
    with pytest.raises(dif.InvalidGridError):
        dif.ddim_step(small_prior, schedule, np.zeros(6), 100, 200)


def test_ddim_step_to_zero_is_tweedie(schedule, small_prior):
    x = RngStream(26).standard_normal(6)
    out = dif.ddim_step(small_prior, schedule, x, 600, 0, eta=0.0)
    assert np.max(np.abs(out - dif.tweedie(small_prior, schedule, x, 600))) < 1e-14


def test_ddim_step_evaluates_eps_once(schedule, small_prior, monkeypatch):
    calls = []
    original = dif.gmm_eps

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(dif, "gmm_eps", counting)
    x = RngStream(31).standard_normal((4, 6))
    dif.ddim_step(small_prior, schedule, x, 600, 300, eta=0.5, stream=RngStream(2))
    assert calls == [600]
    dif.ddim_run(small_prior, schedule, x, 900, 6, eta=0.0)
    assert calls == [600, 900, 750, 600, 450, 300, 150]


def test_ddim_step_stochastic_determinism(schedule, small_prior):
    x = RngStream(27).standard_normal(6)
    a = dif.ddim_step(small_prior, schedule, x, 600, 300, eta=1.0, stream=RngStream(1))
    b = dif.ddim_step(small_prior, schedule, x, 600, 300, eta=1.0, stream=RngStream(1))
    assert np.array_equal(a, b)


def test_ddim_run_telescopes_for_unit_gaussian(schedule):
    # N(0, I): each deterministic step scales x by a known scalar, so the
    # k-step run equals the product of those scalars applied to x.
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 3)), np.eye(3)[None])
    x = RngStream(28).standard_normal(3)
    t_start, k = 900, 5
    ts = [round(i * t_start / k) for i in range(k, -1, -1)]
    coef = 1.0
    for t_f, t_t in zip(ts[:-1], ts[1:]):
        ab_f, ab_t = schedule.alphabar(t_f), schedule.alphabar(t_t)
        _, c2 = dif.ddim_coeffs(schedule, t_f, t_t, 0.0)
        coef *= math.sqrt(ab_t * ab_f) + c2 * math.sqrt(1.0 - ab_f)
    out = dif.ddim_run(prior, schedule, x, t_start, k, eta=0.0)
    assert np.max(np.abs(out - coef * x)) < 1e-12


def test_ddim_run_single_step_equals_step(schedule, small_prior):
    x = RngStream(29).standard_normal(6)
    a = dif.ddim_run(small_prior, schedule, x, 500, 1, eta=0.0)
    b = dif.ddim_step(small_prior, schedule, x, 500, 0, eta=0.0)
    assert np.array_equal(a, b)


def test_ddim_run_from_zero_is_identity(schedule, small_prior):
    x = RngStream(30).standard_normal(6)
    assert np.array_equal(dif.ddim_run(small_prior, schedule, x, 0, 5), x)
