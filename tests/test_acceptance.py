"""End-to-end acceptance gate.

Each test exercises one numbered verification criterion at its stated
tolerance and prints a single pass line; a raised assertion marks the
criterion failed.
"""

import math
import time

import numpy as np

from lle import canonical as canon
from lle import cli
from lle import diffusion as dif
from lle import extrapolation as lle
from lle import harness
from lle import operators as ops
from lle.numerics import RngStream

from conftest import identity_coeffs, random_mixture, scalar_ddim_coeffs, step_context, tweedie


def report(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def base_training_final(params, prior, schedule, op, sigma_y, grid, tc):
    """Replay the training data flow without extrapolation (identity path).

    The driver call lle.train makes, on the same observation and stream, with
    no combiner: the noise draws coincide and the result is the base
    algorithm's trajectory on the training batch.
    """
    base = RngStream(tc.base_seed)
    refs = lle.generate_references(prior, schedule, tc)
    y = ops.observe(op, refs, sigma_y, base.child(12))
    observation = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    return refs, canon.run_with_combiner(params, prior, schedule, observation, grid,
                                         base.child(13))


# ---------------------------------------------------------------------------


def test_criterion_01_operator_algebra():
    start = time.perf_counter()
    operators = [
        ops.mask_operator(64, list(range(0, 64, 2))),
        ops.random_mask_operator(48, 0.4, seed=2),
        ops.avgpool_operator(64, 4),
        ops.blur_operator(32, ops.gaussian_kernel(7, 1.5)),
        ops.hadamard_operator(64, 0.5, seed=2),
        ops.dense_operator(RngStream(201).standard_normal((20, 40))),
    ]
    for op in operators:
        A = op.dense()
        Ap = np.stack([ops.pinv_apply(op, e) for e in np.eye(op.m)]).T
        assert np.linalg.norm(A @ Ap @ A - A) <= 1e-10
        assert np.linalg.norm(Ap @ A @ Ap - Ap) <= 1e-10 * max(1.0, np.linalg.norm(Ap))
        x = RngStream(202).standard_normal(op.n)
        rng = ops.project(op, x, "range")
        null = ops.project(op, x, "null")
        assert np.linalg.norm(ops.project(op, rng, "range") - rng) <= 1e-10
        assert abs(rng @ null) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"pseudoinverse/projector identities on 6 operator kinds ({elapsed:.2f}s)")


def test_criterion_02_score_and_dps_gradients():
    start = time.perf_counter()
    schedule = dif.linear_beta_schedule()
    h = 1e-5
    stream = RngStream(203)
    op = ops.mask_operator(8, [0, 2, 3, 6])
    params = canon.default_params("DPS")
    for draw in range(20):
        prior = random_mixture(300 + draw, 8, 3)
        x = 2.0 * stream.standard_normal(8)
        t = int(stream.integers(1, 1000, ()))
        t_prev = t // 2
        v = stream.standard_normal(8)
        v /= np.linalg.norm(v)
        fd = (
            dif.gmm_eps(prior, schedule, x + h * v, t)
            - dif.gmm_eps(prior, schedule, x - h * v, t)
        ) / (2 * h)
        jvp = dif.gmm_eps_jvp(prior, schedule, x, t, v)
        assert np.linalg.norm(jvp - fd) / max(np.linalg.norm(fd), 1e-10) <= 1e-5

        y = stream.standard_normal(4)
        obs = ops.Observation(y=y, op=op, sigma_y=0.1)
        ctx = step_context(x, t, t_prev, prior, schedule, stream, obs, params)
        canon.sample_phi(ctx)
        out = canon.corr_dps(ctx)
        ab, ab_prev = schedule.alphabar(t), schedule.alphabar(t_prev)
        grad = (ctx.x0_sampled - out) * math.sqrt(ab_prev) / (params.zeta * math.sqrt(ab))

        def f(z):
            x0 = tweedie(prior, schedule, z, t)
            r = ops.apply(op, x0) - y
            return float(r @ r)

        fd_grad = np.empty(8)
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd_grad[i] = (f(x + e) - f(x - e)) / (2 * h)
        assert np.linalg.norm(grad - fd_grad) / max(np.linalg.norm(fd_grad), 1e-10) <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, f"score JVP and DPS gradient match finite differences ({elapsed:.2f}s)")


def test_criterion_03_tweedie_exactness():
    schedule = dif.linear_beta_schedule()
    stream = RngStream(204)
    d = 5
    W = stream.standard_normal((d, d))
    Sig = 0.3 * (W @ W.T) / d + 0.1 * np.eye(d)
    mu = stream.standard_normal(d)
    prior = dif.GaussianMixturePrior([1.0], mu[None], Sig[None])
    for _ in range(100):
        t = int(stream.integers(1, 1000, ()))
        x = 2.0 * stream.standard_normal(d)
        ab = schedule.alphabar(t)
        C = ab * Sig + (1.0 - ab) * np.eye(d)
        expected = mu + math.sqrt(ab) * Sig @ np.linalg.solve(C, x - math.sqrt(ab) * mu)
        got = tweedie(prior, schedule, x, t)
        assert np.max(np.abs(got - expected)) <= 1e-12
    report(3, "single-Gaussian posterior mean exact to 1e-12 on 100 draws")


def test_criterion_04_ddim_variance_identity():
    schedule = dif.linear_beta_schedule()
    for S in (1, 2, 3, 5, 7, 10, 15, 50):
        ts = dif.make_time_grid(schedule, S).timesteps
        for t_from, t_to in zip(ts[:-1], ts[1:]):
            for eta in (0.0, 0.5, 0.85, 1.0):
                c1, c2 = scalar_ddim_coeffs(schedule, t_from, t_to, eta)
                err = abs(c1 * c1 + c2 * c2 - (1.0 - schedule.alphabar(t_to)))
                assert err <= 1e-12
    report(4, "c1^2 + c2^2 = 1 - alphabar across all grid pairs and etas")


def test_criterion_05_noiseless_consistency():
    schedule = dif.linear_beta_schedule()
    prior = random_mixture(205, 8, 2)
    op = ops.mask_operator(8, [0, 3, 5, 6])
    truth = prior.sample(RngStream(206), 1)[0]
    obs = ops.Observation(y=ops.apply(op, truth), op=op, sigma_y=0.0)
    for S in (1, 4, 9):
        grid = dif.make_time_grid(schedule, S)
        out = canon.run(canon.default_params("DDNM"), prior, schedule, obs, grid, seed=4)
        assert np.linalg.norm(ops.apply(op, out) - obs.y) <= 1e-8, S
    ctx = step_context(RngStream(207).standard_normal(8), 500, 250, prior, schedule,
                       RngStream(0), obs, canon.default_params("DiffPIR"))
    canon.sample_phi(ctx)
    out = canon.corr_diffpir(ctx)
    assert np.linalg.norm(ops.apply(op, out) - obs.y) <= 1e-8
    report(5, "DDNM runs and the DiffPIR zero-noise corrector hit ||Ax-y|| <= 1e-8")


def test_criterion_06_identity_coefficients_reproduce_base():
    schedule = dif.linear_beta_schedule()
    prior = random_mixture(208, 6, 2)
    op = ops.mask_operator(6, [0, 2, 4])
    truth = prior.sample(RngStream(209), 1)[0]
    y = ops.observe(op, truth, 0.05, RngStream(210))
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 4)
    ident = identity_coeffs(grid)
    for name in canon.ALGORITHMS:
        params = canon.default_params(name)
        base = canon.run(params, prior, schedule, obs, grid, seed=77)
        via = lle.infer(params, prior, schedule, obs, grid, ident, seed=77)
        assert np.array_equal(base, via), name
    report(6, "identity-coefficient inference bit-identical for all nine algorithms")


def test_criterion_07_search_space_nesting():
    schedule = dif.linear_beta_schedule()
    prior = random_mixture(211, 16, 3)
    op = ops.random_mask_operator(16, 0.5, seed=6)
    sigma_y = 0.05

    # replicated coupled coefficients act identically in decoupled form
    grid = dif.make_time_grid(schedule, 3)
    stream = RngStream(212)
    gamma = [stream.standard_normal(i + 1) for i in range(3)]
    coupled = lle.LLECoefficients.from_theta(grid.timesteps[:3], gamma, False)
    replicated = lle.LLECoefficients.from_theta(
        grid.timesteps[:3], [np.concatenate([g, g]) for g in gamma], True)
    truth = prior.sample(RngStream(213), 1)[0]
    y = ops.observe(op, truth, sigma_y, RngStream(214))
    obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    params = canon.default_params("DPS")
    a = lle.infer(params, prior, schedule, obs, grid, coupled, seed=3)
    b = lle.infer(params, prior, schedule, obs, grid, replicated, seed=3)
    assert np.max(np.abs(a - b)) <= 1e-12

    # closed-form training: the larger decoupled space is never worse
    losses = {}
    for decoupled in (False, True):
        tc = lle.TrainConfig(n_refs=16, ref_steps=200, closed_form=True,
                             decoupled=decoupled, base_seed=9)
        _, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
        losses[decoupled] = {t: min(tr) for t, tr in traces.items()}
    for t in losses[False]:
        assert losses[True][t] <= losses[False][t] + 1e-9, t
    report(7, "decoupled space nests the coupled one and never trains worse")


def test_criterion_08_training_monotonicity_and_improvement():
    schedule = dif.linear_beta_schedule()
    prior = random_mixture(215, 8, 2)
    op = ops.mask_operator(8, [0, 2, 5, 7])
    params = canon.default_params("DDNM")
    grid = dif.make_time_grid(schedule, 4)
    tc = lle.TrainConfig(n_refs=16, ref_steps=200, epochs=80, warmup=20, base_seed=5)
    coeffs, traces = lle.train(params, prior, schedule, op, 0.05, grid, tc)
    for t, trace in traces.items():
        assert min(trace) <= trace[0] + 1e-9, t
    refs, base_final = base_training_final(params, prior, schedule, op, 0.05, grid, tc)
    base_mse = float(np.mean((base_final - refs) ** 2))
    lle_loss = min(traces[grid.timesteps[grid.S - 1]])
    lle_mse = lle_loss / prior.d
    assert lle_mse <= base_mse + 1e-9
    report(8, f"per-step monotone; training-set MSE {lle_mse:.4g} <= base {base_mse:.4g}")


def test_criterion_09_optimizer_vs_closed_form():
    stream = RngStream(216)
    for instance in range(10):
        bases = [stream.standard_normal((6, 5)) for _ in range(4)]
        x_gt = stream.standard_normal((6, 5))
        ls = lle.LeastSquares(bases, x_gt)
        loss_star = ls.loss(ls.solve())
        tc = lle.TrainConfig(epochs=2000, warmup=50)
        theta, _ = lle.train_timestep(ls, np.zeros(4), tc, lr_t=0.05, t_i=500)
        loss_opt = ls.loss(theta)
        assert loss_opt - loss_star <= 1e-6, instance
    report(9, "2000-epoch schedule-free training within 1e-6 of the least-squares solve")


def test_criterion_10_langevin_stationarity():
    start = time.perf_counter()
    schedule = dif.linear_beta_schedule()
    prior = dif.GaussianMixturePrior([1.0], np.zeros((1, 4)), np.eye(4)[None])
    anchor = np.array([0.5, -1.0, 2.0, 0.0])
    n_chains = 1024
    op = ops.dense_operator(np.eye(4))
    # enormous observation noise turns the data term off without changing code paths
    obs = ops.Observation(y=anchor.copy(), op=op, sigma_y=0.0)
    params = canon.default_params("DAPS")
    params.daps.n_langevin = 5000
    params.daps.eta0 = 0.05
    params.daps.sigma_langevin = 1e8
    t_i = 1000
    ctx = step_context(np.tile(anchor, (n_chains, 1)), t_i, 750, prior, schedule,
                       RngStream(217), obs, params, x0_sampled=np.tile(anchor, (n_chains, 1)))
    out = canon.corr_daps(ctx)
    eta = canon.daps_step_size(params.daps, t_i, schedule.T)
    r2 = 1.0 - schedule.alphabar(t_i)
    a = 1.0 - eta / r2
    var_stat = 2.0 * eta / (1.0 - a * a)
    mean_err = np.abs(out.mean(axis=0) - anchor)
    se = math.sqrt(var_stat / n_chains)
    assert np.all(mean_err <= 3.0 * se), (mean_err, 3.0 * se)
    var_emp = float(np.mean(out.var(axis=0)))
    assert abs(var_emp - var_stat) / var_stat <= 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(10, f"5000-step chain mean/variance match the stationary law ({elapsed:.1f}s)")


def test_criterion_11_ddim_sampling_fidelity():
    schedule = dif.linear_beta_schedule()
    weights = np.array([0.6, 0.4])
    means = np.array([[3.0, 0.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]])
    covs = np.stack([0.25 * np.eye(4)] * 2)
    prior = dif.GaussianMixturePrior(weights, means, covs)
    n = 4000
    x = RngStream(218).standard_normal((n, 4))
    samples = dif.ddim_run(prior, schedule, x, schedule.T, 500)
    d0 = np.linalg.norm(samples - means[0], axis=1)
    d1 = np.linalg.norm(samples - means[1], axis=1)
    assign = (d1 < d0).astype(int)  # 1 -> second component
    w_hat = np.array([(assign == 0).mean(), (assign == 1).mean()])
    assert np.max(np.abs(w_hat - weights)) <= 0.03, w_hat
    for k in range(2):
        sel = samples[assign == k]
        tol = 4.0 * 0.5 / math.sqrt(sel.shape[0])
        assert np.max(np.abs(sel.mean(axis=0) - means[k])) <= tol, (k, sel.mean(axis=0))
    report(11, f"4000 deterministic samples recover weights {w_hat.round(3)} and means")


def test_criterion_12_end_to_end_sweep(tmp_path):
    start = time.perf_counter()
    prior = harness.random_prior(32, 4, seed=7)
    schedule = dif.linear_beta_schedule()
    op = ops.random_mask_operator(32, 0.5, seed=3)
    sigma_y = 0.05
    params = canon.default_params("DPS")

    held_out = {}
    for S in (3, 5, 10):
        grid = dif.make_time_grid(schedule, S)
        tc = lle.TrainConfig(n_refs=50, ref_steps=999, closed_form=True,
                             base_seed=13)
        coeffs, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
        refs, base_final = base_training_final(params, prior, schedule, op, sigma_y,
                                               grid, tc)
        base_mse = float(np.mean((base_final - refs) ** 2))
        lle_mse = min(traces[grid.timesteps[grid.S - 1]]) / prior.d
        assert lle_mse <= base_mse + 1e-9, S  # hard gate on the training set

        # held-out comparison (soft gate: reported, not failed)
        test_stream = RngStream(31, stream_id=21)
        truths = prior.sample(test_stream, 50)
        ys = ops.observe(op, truths, sigma_y, RngStream(31, stream_id=22))
        errs = {"base": 0.0, "lle": 0.0}
        for i in range(50):
            obs = ops.Observation(y=ys[i], op=op, sigma_y=sigma_y)
            stream = RngStream(41, stream_id=1000 + i)
            rec = lle.infer(params, prior, schedule, obs, grid, coeffs, 41,
                            stream=stream)
            errs["lle"] += float(np.mean((rec - truths[i]) ** 2)) / 50
            stream = RngStream(41, stream_id=1000 + i)
            base = canon.run(params, prior, schedule, obs, grid, 41, stream=stream)
            errs["base"] += float(np.mean((base - truths[i]) ** 2)) / 50
        held_out[S] = (errs["base"], errs["lle"])

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    for S, (b, l) in held_out.items():
        ratio = l / b
        status = "ok" if ratio <= 1.05 else "above soft gate"
        print(f"  held-out S={S}: base {b:.4g}, extrapolated {l:.4g} "
              f"(ratio {ratio:.3f}, {status})")
    report(12, f"dim-32 sweep trained and evaluated in {elapsed:.0f}s; "
               "training-set gate holds for S in {3, 5, 10}")


def test_criterion_13_noisy_ground_truth_variant():
    schedule = dif.linear_beta_schedule()
    prior = random_mixture(219, 8, 2)
    op = ops.mask_operator(8, [1, 3, 4, 6])
    sigma_y = 0.05
    params = canon.default_params("DDNM")
    truth = prior.sample(RngStream(220), 4)
    y = ops.observe(op, truth, sigma_y, RngStream(221))
    obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
    ctx = step_context(truth, 500, 250, prior, schedule, RngStream(0), obs, params,
                       x0_sampled=truth.copy())
    got = lle.make_ground_truth(ctx, truth, noisy_gt=True)
    direct = canon.corr_ddrm(ctx)
    assert np.max(np.abs(got - direct)) <= 1e-12

    grid = dif.make_time_grid(schedule, 3)
    tc = lle.TrainConfig(n_refs=12, ref_steps=150, epochs=40, warmup=10,
                         noisy_gt=True, base_seed=6)
    _, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    for t, trace in traces.items():
        assert min(trace) <= trace[0] + 1e-9, t
    report(13, "noisy-target training matches the corrector and stays monotone")


def test_criterion_14_sweep_determinism(tmp_path):
    import json

    cfg = {
        "prior": {"dim": 6, "components": 2, "seed": 12},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 4},
                 "sigma_y": 0.05},
        "algorithm": {"name": "DDNM"},
        "steps": 2,
        "n_test": 4,
        "seeds": {"train": 5, "test": 6},
        "lle": {"n_refs": 6, "ref_steps": 50, "epochs": 10, "warmup": 5,
                "base_seed": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cli.main(["sweep", "--config", str(cfg_path), "--steps", "2,3",
                  "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(14, "repeated sweep produces byte-identical CSV")
