import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lle import canonical as canon
from lle import diffusion as dif
from lle import harness
from lle.errors import ConfigError
from lle.numerics import RngStream

from conftest import random_mixture, random_spd, scalar_ddim_coeffs, step_context, tweedie


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
    with pytest.raises(IndexError):
        schedule.alphabar(1001)
    with pytest.raises(IndexError):
        schedule.alphabar(-1)


def test_time_grid_even_spacing(schedule):
    assert dif.make_time_grid(schedule, 4).timesteps == (1000, 750, 500, 250, 0)
    assert dif.make_time_grid(schedule, 1).timesteps == (1000, 0)
    g = dif.make_time_grid(schedule, 7)
    assert g.timesteps[0] == 1000 and g.timesteps[-1] == 0
    assert all(a > b for a, b in zip(g.timesteps, g.timesteps[1:]))


def test_time_grid_rejects_bad_s(schedule):
    with pytest.raises(ConfigError):
        dif.make_time_grid(schedule, 0)
    with pytest.raises(ConfigError):
        dif.make_time_grid(schedule, 1001)


# ---------------------------------------------------------------------------
# mixture prior
# ---------------------------------------------------------------------------


def test_prior_validates_weights():
    with pytest.raises(ValueError):
        dif.GaussianMixturePrior([0.5, 0.4], np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    with pytest.raises(np.linalg.LinAlgError):
        dif.GaussianMixturePrior([1.0], np.zeros((1, 2)), -np.eye(2)[None])


def test_prior_json_round_trip(small_prior, tmp_path):
    # save writes the inline prior block that a config reads as prior.file
    small_prior.save(tmp_path / "prior.json")
    cfg = {"prior": {"file": "prior.json"}, "algorithm": {"name": "DDNM"},
           "task": {"operator": {"kind": "mask", "keep_ratio": 0.5}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    back = harness.load_config(tmp_path / "cfg.json").prior
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
    # the score is -eps / sigma, so it vanishes where eps does
    eps = dif.gmm_eps(prior, schedule, np.zeros(1), 300)
    assert abs(eps[0]) < 1e-14


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
            got = tweedie(prior, schedule, x, t)
            assert np.max(np.abs(got - expected)) < 1e-12


def test_tweedie_identity_at_zero(schedule, small_prior):
    x = RngStream(1).standard_normal(6)
    assert np.array_equal(tweedie(small_prior, schedule, x, 0), x)


def test_score_far_from_support_stays_finite(schedule, small_prior):
    x = np.full(6, 1e6)
    eps = dif.gmm_eps(small_prior, schedule, x, 500)  # -sigma * score
    assert np.all(np.isfinite(eps))


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


@pytest.mark.parametrize("t", [1, 5, 50, 500])
def test_kernels_on_support_with_far_means_match_cholesky_reference(schedule, t):
    # the eigenbasis kernel rotates x before it subtracts the projected mean,
    # so its cancellation error grows with |m|: means of norm ~500 against
    # eigenvalues down to 1e-4 of the largest, with x drawn from q_t
    worst = [0.0, 0.0]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        base = ill_conditioned_mixture(rng, 8, 2, 1e4)
        prior = dif.GaussianMixturePrior(base.weights, 100.0 * base.means, base.covariances)
        x0 = prior.sample(RngStream(seed, 4), 16)
        x = math.sqrt(schedule.alphabar(t)) * x0 + schedule.sigma(t) * rng.standard_normal((16, 8))
        v = rng.standard_normal((16, 8))
        eps = dif.gmm_eps(prior, schedule, x, t)
        jvp = dif.gmm_eps_jvp(prior, schedule, x, t, v)
        worst[0] = max(worst[0], max_rel(eps, cholesky_eps(prior, schedule, x, t)))
        worst[1] = max(worst[1], max_rel(jvp, cholesky_eps_jvp(prior, schedule, x, t, v)))
    assert worst[0] <= 1e-10 and worst[1] <= 1e-10


@given(
    d=st.integers(1, 40),
    K=st.integers(1, 4),
    t=st.integers(1, 1000),
    N=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_kernels_on_row_stacks_equal_one_row_calls(schedule, d, K, t, N, seed):
    # whiten, gmm_eps and gmm_eps_jvp on an (N, 1, d) stack give row i the
    # bits of the one-row (d,) call on x[i, 0]
    prior = random_mixture(seed % 97, d, K)
    stream = RngStream(seed, 6)
    x = 2.0 * stream.standard_normal((N, 1, d))
    v = stream.standard_normal((N, 1, d))
    r, y, w = dif.whiten(prior, schedule, x, t)
    eps = dif.gmm_eps(prior, schedule, x, t)
    jvp = dif.gmm_eps_jvp(prior, schedule, x, t, v)
    assert r.shape == (N, 1, K) and y.shape == (N, 1, K * d) and eps.shape == x.shape
    for i in range(N):
        r1, y1, w1 = dif.whiten(prior, schedule, x[i, 0], t)
        assert r[i].tobytes() == r1.tobytes()
        assert y[i].tobytes() == y1.tobytes()
        assert w.tobytes() == w1.tobytes()
        assert eps[i, 0].tobytes() == dif.gmm_eps(prior, schedule, x[i, 0], t).tobytes()
        one_jvp = dif.gmm_eps_jvp(prior, schedule, x[i, 0], t, v[i, 0])
        assert jvp[i, 0].tobytes() == one_jvp.tobytes()


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


def test_ddim_coeff_variance_identity(schedule, small_prior, monkeypatch):
    # the stochastic DDIM noiser's (c1, c2) split the variance 1 - alphabar(t_prev)
    seen = []
    monkeypatch.setattr(canon, "_ddim_noise", lambda ctx, xhat, c1, c2: seen.append((c1, c2)))
    for S in (2, 5, 10):
        ts = dif.make_time_grid(schedule, S).timesteps
        for t_from, t_to in zip(ts[:-1], ts[1:]):
            for eta in (0.0, 0.5, 0.85, 1.0):
                params = canon.default_params("DPS")
                params.eta = eta
                ctx = step_context(np.zeros(6), t_from, t_to, small_prior, schedule,
                                   RngStream(0), None, params)
                canon.noiser_ddim(ctx, np.zeros(6))
                c1, c2 = seen.pop()
                assert (c1, c2) == scalar_ddim_coeffs(schedule, t_from, t_to, eta)
                assert abs(c1 * c1 + c2 * c2 - (1.0 - schedule.alphabar(t_to))) < 1e-12


def test_ddim_step_same_timestep_is_identity(schedule, small_prior):
    x = RngStream(25).standard_normal(6)
    assert np.array_equal(dif.ddim_step(small_prior, schedule, x, 400, 400), x)


def test_ddim_step_rejects_upward(schedule, small_prior):
    with pytest.raises(ConfigError):
        dif.ddim_step(small_prior, schedule, np.zeros(6), 100, 200)


def test_ddim_step_to_zero_is_tweedie(schedule, small_prior):
    x = RngStream(26).standard_normal(6)
    out = dif.ddim_step(small_prior, schedule, x, 600, 0)
    assert np.max(np.abs(out - tweedie(small_prior, schedule, x, 600))) < 1e-14


def test_ddim_step_evaluates_eps_once(schedule, small_prior, monkeypatch):
    # eps is one whitening per DDIM step, at t_from; the row it gets tells t_from apart
    calls = []
    original = small_prior._resp_and_whitened

    def counting(row, x):
        calls.append(row[0])
        return original(row, x)

    monkeypatch.setattr(small_prior, "_resp_and_whitened", counting)

    def sqrt_ab(ts):
        return [math.sqrt(schedule.alphabar(t)) for t in ts]

    x = RngStream(31).standard_normal((4, 6))
    dif.ddim_step(small_prior, schedule, x, 600, 300)
    assert calls == sqrt_ab([600])
    dif.ddim_run(small_prior, schedule, x, 900, 6)
    assert calls == sqrt_ab([600, 900, 750, 600, 450, 300, 150])
    # colliding grid points (k_steps > t_start) are identity steps and whiten nothing
    calls.clear()
    dif.ddim_run(small_prior, schedule, x, 3, 6)
    assert calls == sqrt_ab([3, 2, 1])


@pytest.mark.parametrize("shape", [(6,), (4, 6), (3, 1, 6)])
def test_ddim_step_is_the_ddim_update_bit_for_bit(schedule, small_prior, shape):
    # sqrt(ab_to) x0 + sigma_to eps with x0 the Tweedie estimate from eps
    x = RngStream(32).standard_normal(shape)
    eps = dif.gmm_eps(small_prior, schedule, x, 600)
    x0 = (x - schedule.sigma(600) * eps) / math.sqrt(schedule.alphabar(600))
    expected = math.sqrt(schedule.alphabar(300)) * x0 + schedule.sigma(300) * eps
    got = dif.ddim_step(small_prior, schedule, x, 600, 300)
    assert got.tobytes() == expected.tobytes()


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
        _, c2 = scalar_ddim_coeffs(schedule, t_f, t_t, 0.0)
        coef *= math.sqrt(ab_t * ab_f) + c2 * math.sqrt(1.0 - ab_f)
    out = dif.ddim_run(prior, schedule, x, t_start, k)
    assert np.max(np.abs(out - coef * x)) < 1e-12


def test_ddim_run_single_step_equals_step(schedule, small_prior):
    x = RngStream(29).standard_normal(6)
    a = dif.ddim_run(small_prior, schedule, x, 500, 1)
    b = dif.ddim_step(small_prior, schedule, x, 500, 0)
    assert np.array_equal(a, b)


def test_ddim_run_from_zero_is_identity(schedule, small_prior):
    x = RngStream(30).standard_normal(6)
    assert np.array_equal(dif.ddim_run(small_prior, schedule, x, 0, 5), x)


@pytest.mark.parametrize("d", [1, 3, 9, 33, 130])
def test_step_table_rows_equal_per_step_scalars(schedule, d):
    # every `step_rows` row holds the bits of the per-step scalars and (K*d,)
    # arrays it replaces, whatever the table's length: on an irregular list of
    # steps, a driver grid and a DAPS sub-grid (k_ddim = 5 from t_i = 900)
    prior = random_mixture(40 + d, d, 3)
    driver = dif.make_time_grid(schedule, 10).timesteps
    daps = [round(i * 900 / 5) for i in range(5, -1, -1)]
    grids = [([1000, 999, 731, 500, 17, 2, 1], [999, 731, 500, 17, 2, 1, 0]),
             (driver[:-1], driver[1:]), (daps[:-1], daps[1:])]
    for t_from, t_to in grids:
        rows = dif.step_rows(prior, schedule, t_from, t_to)
        assert len(rows) == len(t_from)
        for row, tf, tt in zip(rows, t_from, t_to):
            sqrt_ab, sigma, w, lognorm, mean_coords, ab, ab_to, sqrt_ab_to, sigma_to = row
            assert w.shape == mean_coords.shape == (3 * d,)
            assert ab == schedule.alphabar(tf) and ab_to == schedule.alphabar(tt)
            ev = ab * prior._lam + (1.0 - ab)
            expected_lognorm = np.log(prior.weights) - 0.5 * (
                np.log(ev).sum(axis=1) + d * math.log(2.0 * math.pi)
            )
            assert sqrt_ab == math.sqrt(ab)
            assert sigma == schedule.sigma(tf)
            assert w.tobytes() == (1.0 / ev).tobytes()
            assert lognorm.tobytes() == expected_lognorm.tobytes()
            assert mean_coords.tobytes() == (math.sqrt(ab) * prior._mean_coords).tobytes()
            assert sqrt_ab_to == math.sqrt(schedule.alphabar(tt))
            # the eta = 0 noiser's c2, the coefficient the step replaces
            assert sigma_to == scalar_ddim_coeffs(schedule, tf, tt, 0.0)[1]
            assert sigma_to == schedule.sigma(tt)
            # a one-step call gives the row's bits
            (one_row,) = dif.step_rows(prior, schedule, [tf], [tt])
            assert [np.asarray(v).tobytes() for v in one_row] == [
                np.asarray(v).tobytes() for v in row]


def test_ddim_run_rejects_bad_grids(schedule, small_prior):
    with pytest.raises(IndexError):
        dif.ddim_run(small_prior, schedule, np.zeros(6), 1001, 2)
    with pytest.raises(ConfigError):
        dif.ddim_run(small_prior, schedule, np.zeros(6), -5, 2)


@given(
    shape=st.sampled_from(["d", "Bd", "N1d"]),
    d=st.integers(1, 5),
    rows=st.integers(1, 3),
    t_start=st.integers(1, 1000),
    k_steps=st.integers(1, 150),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ddim_run_equals_chain_of_steps(schedule, shape, d, rows, t_start, k_steps, seed):
    # the tabled run replays one `ddim_step` per grid pair bit for bit, across
    # table blocks and through the identity steps of colliding grid points
    prior = random_mixture(seed % 97, d, 2)
    lead = {"d": (), "Bd": (rows,), "N1d": (rows, 1)}[shape]
    x = RngStream(seed, 1).standard_normal(lead + (d,))
    got = dif.ddim_run(prior, schedule, x, t_start, k_steps)
    ts = [round(i * t_start / k_steps) for i in range(k_steps, -1, -1)]
    chain = x
    for t_from, t_to in zip(ts[:-1], ts[1:]):
        chain = dif.ddim_step(prior, schedule, chain, t_from, t_to)
    assert got.shape == x.shape
    assert got.tobytes() == chain.tobytes()


# ---------------------------------------------------------------------------
# accuracy envelope off the support against a 50-digit reference
# ---------------------------------------------------------------------------


def _ill_conditioned_split_case(seed, d=8, share=0.19):
    """Two components with covariance condition number 1e6 (eigenvalues
    1e-3..1e3, random eigenvectors), and x on the segment between two
    2·N(0, I) draws where the first component's responsibility at t=1 is
    `share` (found by bisection)."""
    s = RngStream(seed, 3)
    lam = np.logspace(-3.0, 3.0, d)
    covs = []
    for _ in range(2):
        Q, _ = np.linalg.qr(s.standard_normal((d, d)))
        S = (Q * lam) @ Q.T
        covs.append((S + S.T) / 2.0)
    prior = dif.GaussianMixturePrior([0.5, 0.5], 0.5 * s.standard_normal((2, d)), np.array(covs))
    schedule = dif.linear_beta_schedule()
    while True:
        xa, xb = 2.0 * s.standard_normal(d), 2.0 * s.standard_normal(d)

        def excess(u):
            x = (1.0 - u) * xa + u * xb
            return dif.whiten(prior, schedule, x, 1)[0][0, 0] - share

        lo, hi = 0.0, 1.0
        if excess(lo) * excess(hi) < 0.0:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid) * excess(lo) > 0.0:
            lo = mid
        else:
            hi = mid
    return prior, schedule, (1.0 - lo) * xa + lo * xb


def _mp_eps(mp, prior, schedule, x, t):
    """eps at (x, t) in 50-digit arithmetic from the float64 inputs."""
    ab = mp.mpf(float(schedule.alphabar_table[t]))
    d = prior.d
    logs, sols = [], []
    for k in range(prior.K):
        C = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                C[i, j] = ab * mp.mpf(prior.covariances[k][i, j]) + (1 - ab if i == j else 0)
        diff = mp.matrix([mp.mpf(x[i]) - mp.sqrt(ab) * mp.mpf(prior.means[k][i]) for i in range(d)])
        sol = mp.lu_solve(C, diff)
        maha = sum(diff[i] * sol[i] for i in range(d))
        logs.append(mp.log(mp.mpf(prior.weights[k])) - (mp.log(mp.det(C)) + maha) / 2)
        sols.append(sol)
    top = max(logs)
    w = [mp.exp(v - top) for v in logs]
    r = [wk / sum(w) for wk in w]
    # eps = -sqrt(1 - ab) * score, score = -sum_k r_k C_k^-1 (x - sqrt(ab) m_k)
    eps = [mp.sqrt(1 - ab) * sum(r[k] * sols[k][i] for k in range(prior.K)) for i in range(d)]
    return np.array([float(e) for e in eps]), [float(rk) for rk in r]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eps_accuracy_envelope_ill_conditioned_off_support(seed):
    # Off the support at t = 1 with condition number 1e6 the Mahalanobis
    # distances are ~1e3-1e4 and the responsibilities amplify their rounding;
    # the eigenbasis kernel's eps is then ~1e-8 relative off the exact value
    # (a per-timestep Cholesky kernel: ~1e-9). This pins that envelope.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    prior, schedule, x = _ill_conditioned_split_case(seed)
    assert np.linalg.cond(prior.covariances[0]) == pytest.approx(1e6, rel=1e-6)
    ref, r = _mp_eps(mp, prior, schedule, x, 1)
    assert 0.1 < r[0] < 0.3  # split responsibilities, also in exact arithmetic
    eps = dif.gmm_eps(prior, schedule, x, 1)
    assert np.linalg.norm(eps - ref) <= 2e-8 * np.linalg.norm(ref)
