import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lle import canonical as canon
from lle import diffusion as dif
from lle import extrapolation as lle
from lle import operators as ops
from lle.errors import ConfigError, ConvergenceError
from lle.numerics import RngStream, RowStreams
from lle.optim import Adam, ScheduleFreeAdamW

from conftest import identity_coeffs, random_mixture, step_context


def mask_obs(prior, seed=100, sigma_y=0.05, keep=(0, 2, 4)):
    op = ops.mask_operator(prior.d, list(keep))
    truth = prior.sample(RngStream(seed), 1)[0]
    y = ops.observe(op, truth, sigma_y, RngStream(seed, 1))
    return ops.Observation(y=y, op=op, sigma_y=sigma_y), truth


# ---------------------------------------------------------------------------
# losses and the gradient-domain term
# ---------------------------------------------------------------------------


def test_loss_is_squared_error():
    x = np.array([[1.0, 2.0]])
    gt = np.array([[0.0, 0.0]])
    assert lle.LeastSquares([x], gt).loss(np.ones(1)) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        lle.LeastSquares([np.zeros((1, 2))], np.zeros((1, 3)))


def test_least_squares_loss_averages_over_rows():
    xs = np.array([[1.0, 0.0], [0.0, 2.0]])
    gts = np.zeros((2, 2))
    assert lle.LeastSquares([xs], gts).loss(np.ones(1)) == pytest.approx(2.5, rel=1e-15)


def _row_loss_reference(x, g, omega, with_plugin):
    """The per-sample loss written row by row, as a reference for the batch kernel."""
    val = float(np.sum((x - g) ** 2))
    if with_plugin:
        r = np.diff(x) - np.diff(g)
        val += omega * float(np.sum(r * r))
    return val


def _plugin_grad_reference(x, g):
    r = np.diff(x) - np.diff(g)
    grad = np.zeros_like(x)
    grad[:-1] -= 2.0 * r
    grad[1:] += 2.0 * r
    return grad


def _objective(bases, x_gt, theta, omega=0.0):
    """The mean loss of theta's combination, written row by row."""
    xt = lle._combined(np.asarray(bases), theta)
    return float(np.mean([_row_loss_reference(x, g, omega, omega != 0.0)
                          for x, g in zip(xt, x_gt)]))


_LOSS_CASES = dict(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=70),
    n_bases=st.integers(min_value=1, max_value=4),
    log_scale=st.integers(min_value=-5, max_value=5),
    omega=st.floats(min_value=0.0, max_value=10.0),
    with_plugin=st.booleans(),
    decoupled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)


def _loss_case(n, d, n_bases, log_scale, omega, with_plugin, decoupled, seed):
    """(stacked bases, x_gt, theta, omega) of one drawn case."""
    stream = RngStream(seed)
    scale = 10.0**log_scale
    bases = [scale * stream.standard_normal((n, d)) for _ in range(n_bases)]
    x_gt = scale * stream.standard_normal((n, d))
    theta = stream.standard_normal(2 * n_bases if decoupled else n_bases)
    op = ops.mask_operator(d, list(range(0, d, 2))) if decoupled else None
    omega = omega if with_plugin else 0.0  # the term applies wherever omega != 0
    return lle.stack_bases(bases, op, decoupled), x_gt, theta, omega


@given(**_LOSS_CASES)
@settings(max_examples=200, deadline=None)
def test_least_squares_loss_and_gradient_equal_per_sample_loop(**case):
    stacked, x_gt, theta, omega = _loss_case(**case)
    n = len(x_gt)
    xt = lle._combined(stacked, theta)
    loss = np.mean([_row_loss_reference(x, g, omega, omega != 0.0) for x, g in zip(xt, x_gt)])
    sens = 2.0 * (xt - x_gt)
    if omega != 0.0:
        sens = sens + omega * np.stack([_plugin_grad_reference(x, g) for x, g in zip(xt, x_gt)])
    grad = np.array([np.sum(sens * b) for b in stacked]) / n
    scale = (np.sum(x_gt**2) + np.sum(stacked**2)) / n
    ls = lle.LeastSquares(stacked, x_gt, omega)
    assert abs(ls.loss(theta) - loss) <= 1e-12 * scale
    assert np.max(np.abs(ls.grad(theta) - grad)) <= 1e-12 * scale


def test_gradient_domain_plugin_shift_invariant():
    # the omega term, the loss with omega less the loss without, ignores a constant shift
    x = RngStream(101).standard_normal((2, 8))
    ref = RngStream(102).standard_normal((2, 8))

    def term(est):
        one = np.ones(1)
        return lle.LeastSquares([est], ref, 0.3).loss(one) - lle.LeastSquares([est], ref).loss(one)

    assert term(x) > 0.1
    assert abs(term(x) - term(x + 3.0)) < 1e-12 * lle.LeastSquares([x + 3.0], ref).loss(np.ones(1))


# ---------------------------------------------------------------------------
# combine and coefficients
# ---------------------------------------------------------------------------


def test_combine_identity_short_circuit():
    xhat = np.array([1.0, 2.0])
    hist = [np.array([5.0, 5.0])]
    out = lle.combine(np.array([0.0, 1.0]), hist, xhat)
    assert np.array_equal(out, xhat)
    assert out is not xhat  # a fresh copy, safe to mutate downstream


def test_combine_matches_manual_sum():
    stream = RngStream(104)
    hist = [stream.standard_normal(4) for _ in range(2)]
    xhat = stream.standard_normal(4)
    gamma = np.array([0.2, -0.3, 0.9])
    out = lle.combine(gamma, hist, xhat)
    expected = 0.9 * xhat + 0.2 * hist[0] - 0.3 * hist[1]
    assert np.max(np.abs(out - expected)) < 1e-14
    # bit for bit: xhat's term first, then the history oldest first
    assert np.array_equal(out, expected)


def test_combine_length_check():
    with pytest.raises(ValueError):
        lle.combine(np.array([1.0]), [np.zeros(2)], np.zeros(2))


def test_combine_decoupled_requires_operator():
    with pytest.raises(ValueError):
        lle.combine(np.array([1.0, 1.0]), [], np.zeros(4), decoupled=True)


def test_combine_decoupled_replicated_equals_coupled():
    op = ops.mask_operator(5, [0, 3])
    stream = RngStream(105)
    hist = [stream.standard_normal(5)]
    xhat = stream.standard_normal(5)
    gamma = np.array([0.4, 0.7])
    coupled = lle.combine(gamma, hist, xhat)
    decoupled = lle.combine(np.concatenate([gamma, gamma]), hist, xhat, op=op, decoupled=True)
    assert np.max(np.abs(coupled - decoupled)) < 1e-12


def test_decoupled_identity_reproduces_base_on_dense_operator(schedule):
    # a dense operator's projections do not sum back to x bit for bit, so only
    # the identity shortcut keeps the base solver's bytes
    prior = random_mixture(130, 16, 3)
    op = ops.dense_operator(RngStream(131).standard_normal((6, 16)) / 4.0)
    truth = prior.sample(RngStream(132), 1)[0]
    obs = ops.Observation(y=ops.observe(op, truth, 0.05, RngStream(133)), op=op, sigma_y=0.05)
    grid = dif.make_time_grid(schedule, 4)
    ident = identity_coeffs(grid)
    coeffs = lle.LLECoefficients.from_theta(ident.timesteps,
                                            [np.concatenate([g, g]) for g in ident.theta], True)
    for name in canon.ALGORITHMS:
        params = canon.default_params(name)
        base = canon.run(params, prior, schedule, obs, grid, seed=17)
        via = lle.infer(params, prior, schedule, obs, grid, coeffs, seed=17)
        assert np.array_equal(base, via), name


def test_coefficients_validation_and_identity(schedule):
    grid = dif.make_time_grid(schedule, 3)
    ident = identity_coeffs(grid)
    assert [g.tolist() for g in ident.theta] == [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError, match=r"gamma\[1\] must have 2 entries"):
        lle.LLECoefficients.from_theta((1000, 500), [np.ones(1), np.ones(3)], False)
    with pytest.raises(ValueError, match="^gamma must have 2 entries, one per step, got 1$"):
        lle.LLECoefficients(S=2, decoupled=False, timesteps=[1000, 500], gamma=[[1.0]])
    with pytest.raises(ValueError, match=r"gamma\[0\]\[0\] must be a finite number"):
        lle.LLECoefficients.from_theta((1000,), [np.array([np.nan])], False)


def test_coefficients_json_round_trip(schedule):
    grid = dif.make_time_grid(schedule, 3)
    stream = RngStream(106)
    gamma = [stream.standard_normal(i + 1) for i in range(3)]
    gperp = [stream.standard_normal(i + 1) for i in range(3)]
    theta = [np.concatenate([g, p]) for g, p in zip(gamma, gperp)]
    coeffs = lle.LLECoefficients.from_theta(grid.timesteps[:3], theta, True)
    back = lle.LLECoefficients.from_json(coeffs.to_json())
    assert back.S == 3 and back.decoupled
    for a, b in zip(back.theta, theta):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("decoupled", [False, True], ids=["coupled", "decoupled"])
def test_coefficients_file_layout(tmp_path, schedule, decoupled):
    # the file keeps one list per part, entry j oldest first and xhat last,
    # whatever the in-memory layout
    grid = dif.make_time_grid(schedule, 2)
    par = [[1.0], [0.25, 0.75]]
    perp = [[0.5], [-0.125, 1.0]]
    theta = [np.array(g + p) if decoupled else np.array(g) for g, p in zip(par, perp)]
    coeffs = lle.LLECoefficients.from_theta(grid.timesteps[:2], theta, decoupled)
    expected = {"steps": 2, "decoupled": decoupled, "timesteps": list(grid.timesteps[:2])}
    if decoupled:
        expected.update(gamma_par=par, gamma_perp=perp)
    else:
        expected["gamma"] = par
    assert coeffs.to_json() == json.dumps(expected, indent=2)
    if decoupled:  # parts that add up to 2J but split it elsewhere are refused
        bad = dict(expected, gamma_par=[[1.0], [0.25, 0.75, 0.5]], gamma_perp=[[0.5], [1.0]])
        with pytest.raises(ValueError, match="gamma_par"):
            lle.LLECoefficients.from_json(json.dumps(bad))
    path = tmp_path / "coeffs.json"
    coeffs.save(path)
    back = lle.LLECoefficients.load(path)
    assert back.decoupled == decoupled and back.timesteps == coeffs.timesteps
    for a, b in zip(back.theta, theta, strict=True):
        assert np.array_equal(a, b)


def _coeffs_file(decoupled):
    obj = {"steps": 2, "decoupled": decoupled, "timesteps": [1000, 500]}
    if decoupled:
        obj.update(gamma_par=[[1.0], [0.25, 0.75]], gamma_perp=[[0.5], [-0.125, 1.0]])
    else:
        obj["gamma"] = [[1.0], [0.25, 0.75]]
    lle.LLECoefficients.from_json(json.dumps(obj))  # the unbroken file loads
    return obj


@pytest.mark.parametrize("decoupled, key", [
    (False, "steps"), (False, "decoupled"), (False, "timesteps"), (False, "gamma"),
    (True, "gamma_par"), (True, "gamma_perp"),
])
def test_coefficients_file_missing_key_is_config_error_naming_it(decoupled, key):
    obj = _coeffs_file(decoupled)
    del obj[key]
    with pytest.raises(ConfigError, match=rf"^missing config key {key}$"):
        lle.LLECoefficients.from_json(json.dumps(obj))


@pytest.mark.parametrize("decoupled, key, value", [
    (False, "steps", "2"), (False, "steps", True), (False, "decoupled", "no"),
    (False, "timesteps", 1000), (False, "timesteps", [1000, "500"]),
    (False, "gamma", [[1.0], "0 1"]), (False, "gamma", [[1.0], [0.0, "x"]]),
    (True, "gamma_par", {"0": [1.0]}), (True, "gamma_perp", [[0.5], [None, 1.0]]),
])
def test_coefficients_file_wrongly_typed_key_is_config_error_naming_it(decoupled, key, value):
    obj = dict(_coeffs_file(decoupled), **{key: value})
    # the key, or the entry of it (gamma[1][1]), as a config key is named
    with pytest.raises(ConfigError, match=rf"^{key}(\[\d+\])* must be"):
        lle.LLECoefficients.from_json(json.dumps(obj))


def test_coefficients_file_rejects_unknown_and_unread_keys():
    # earlier loaders ignored both
    obj = dict(_coeffs_file(False), algorithm="DPS")
    with pytest.raises(ConfigError, match=r"unknown config key\(s\) algorithm$"):
        lle.LLECoefficients.from_json(json.dumps(obj))
    obj = dict(_coeffs_file(True), gamma=[[1.0], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="^gamma is not read when decoupled is true"):
        lle.LLECoefficients.from_json(json.dumps(obj))


@pytest.mark.parametrize("text, where", [("", "line 1 column 1"),
                                         ('{"steps": 2,\n', "line 2 column 1")])
def test_coefficients_file_that_is_no_json_names_file_line_and_column(tmp_path, text, where):
    # earlier loaders raised a bare JSONDecodeError
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    named = "^" + re.escape(f"{path} is not valid JSON")
    with pytest.raises(ConfigError, match=named) as err:
        lle.LLECoefficients.load(path)
    assert where in str(err.value) and str(err.value).count(str(path)) == 1
    with pytest.raises(ConfigError, match="coefficients file is not valid JSON"):
        lle.LLECoefficients.from_json(text)


@pytest.mark.parametrize("decoupled, key, value, error", [
    (False, "steps", "2", "steps must be an integer, got '2'"),
    (False, "gamma", [[1.0], [0.0, "x"]], "gamma[1][1] must be a finite number, got 'x'"),
    (True, "gamma_perp", [[0.5]], "gamma_perp must have 2 entries, one per step, got 1"),
    # an int past the largest float, which float() cannot convert
    pytest.param(False, "gamma", [[10**400], [0.0, 1.0]],
                 f"gamma[0][0] must be a finite number, got {10**400}", id="gamma-huge-int"),
])
def test_coefficients_file_with_a_bad_key_names_the_file(tmp_path, decoupled, key, value, error):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(dict(_coeffs_file(decoupled), **{key: value})))
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: {error}")):
        lle.LLECoefficients.load(path)


def test_coefficients_file_that_cannot_be_read_is_config_error(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path} cannot be read")) \
            as err:
        lle.LLECoefficients.load(path)
    assert str(err.value).count(str(path)) == 1


def test_coefficients_file_that_is_no_object_is_config_error():
    with pytest.raises(ConfigError, match="must be an object"):
        lle.LLECoefficients.from_json(json.dumps([_coeffs_file(False)]))


def test_coefficients_file_round_trip(tmp_path, schedule):
    grid = dif.make_time_grid(schedule, 2)
    coeffs = identity_coeffs(grid)
    path = tmp_path / "coeffs.json"
    coeffs.save(path)
    back = lle.LLECoefficients.load(path)
    assert back.timesteps == coeffs.timesteps


# ---------------------------------------------------------------------------
# per-timestep objective
# ---------------------------------------------------------------------------


def _flat(stacked):
    """The stack as the (N*d, J) least-squares matrix."""
    return np.asarray(stacked).reshape(len(stacked), -1).T


def test_closed_form_matches_lstsq():
    stream = RngStream(107)
    bases = [stream.standard_normal((6, 4)) for _ in range(3)]
    x_gt = stream.standard_normal((6, 4))
    theta = lle.LeastSquares(bases, x_gt).solve()
    expected, *_ = np.linalg.lstsq(_flat(bases), x_gt.ravel(), rcond=None)
    assert np.max(np.abs(theta - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_closed_form_with_gradient_domain_matches_stacked_lstsq():
    stream = RngStream(136)
    omega = 0.3
    bases = np.stack([stream.standard_normal((6, 5)) for _ in range(4)])
    x_gt = stream.standard_normal((6, 5))
    rows = np.concatenate([_flat(bases), np.sqrt(omega) * _flat(np.diff(bases, axis=-1))])
    target = np.concatenate([x_gt.ravel(), np.sqrt(omega) * np.diff(x_gt, axis=-1).ravel()])
    expected, *_ = np.linalg.lstsq(rows, target, rcond=None)
    ls = lle.LeastSquares(bases, x_gt, omega)
    config = lle.TrainConfig(closed_form=True, plugin="gradient-domain", omega=omega)
    theta, _ = lle.train_timestep(ls, np.eye(4)[3], config, 0.05, 500)
    assert np.max(np.abs(theta - expected)) <= 1e-10 * np.max(np.abs(expected))
    first_order = lle.TrainConfig(epochs=2000, warmup=50, plugin="gradient-domain", omega=omega)
    fitted, _ = lle.train_timestep(ls, np.eye(4)[3], first_order, 0.05, 500)
    loss = _objective(bases, x_gt, theta, omega)
    assert loss <= _objective(bases, x_gt, fitted, omega) * (1.0 + 1e-12)


def test_decoupled_closed_form_is_minimum_norm_when_range_parts_coincide():
    # DDNM on a mask: every estimate's range projection is A^+ y, so only the
    # sum of the range coefficients is identified; the fit takes the equal split
    op = ops.mask_operator(8, [0, 3, 4, 6])
    stream = RngStream(137)
    J = 3
    p = ops.pinv_apply(op, stream.standard_normal((6, op.m)))
    bases = [p + ops.project(op, stream.standard_normal((6, 8)), "null") for _ in range(J)]
    x_gt = stream.standard_normal((6, 8))
    stacked = lle.stack_bases(bases, op, decoupled=True)
    assert all(np.array_equal(stacked[j], p) for j in range(J))
    theta = lle.LeastSquares(stacked, x_gt).solve()
    expected = np.linalg.pinv(_flat(stacked)) @ x_gt.ravel()
    assert np.max(np.abs(theta - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(theta[:J] - theta[0])) <= 1e-12 * abs(theta[0])
    apart = np.concatenate([lle.LeastSquares(stacked[:J], x_gt).solve(),
                            lle.LeastSquares(stacked[J:], x_gt).solve()])
    assert np.max(np.abs(theta - apart)) <= 1e-12 * np.max(np.abs(apart))


@pytest.mark.parametrize("op", [
    ops.mask_operator(8, [0, 3, 4, 6]),
    ops.blur_operator(8, [0.25, 0.5, 0.25]),
    ops.dense_operator(RngStream(134).standard_normal((5, 8))),
], ids=["mask", "blur", "dense"])
def test_joint_decoupled_solve_separates_into_range_and_null(op):
    # range and null projections are orthogonal, so the 2J Gram is block diagonal
    stream = RngStream(135)
    J = 3
    bases = [stream.standard_normal((6, 8)) for _ in range(J)]
    x_gt = stream.standard_normal((6, 8))
    stacked = lle.stack_bases(bases, op, decoupled=True)
    assert stacked.shape == (2 * J, 6, 8)
    joint = lle.LeastSquares(stacked, x_gt).solve()
    apart = np.concatenate([lle.LeastSquares(stacked[:J], x_gt).solve(),
                            lle.LeastSquares(stacked[J:], x_gt).solve()])
    assert np.max(np.abs(joint - apart)) <= 1e-12 * np.max(np.abs(apart))


def test_gamma_gradient_fd():
    stream = RngStream(108)
    bases = [stream.standard_normal((4, 5)) for _ in range(3)]
    x_gt = stream.standard_normal((4, 5))
    theta = stream.standard_normal(3)
    grad = lle.LeastSquares(bases, x_gt, 0.3).grad(theta)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (
            _objective(bases, x_gt, theta + e, 0.3)
            - _objective(bases, x_gt, theta - e, 0.3)
        ) / (2 * h)
        assert abs(grad[j] - fd) < 1e-5


def test_train_timestep_monotone():
    stream = RngStream(109)
    bases = [stream.standard_normal((8, 3)) for _ in range(4)]
    x_gt = stream.standard_normal((8, 3))
    theta0 = np.array([0.0, 0.0, 0.0, 1.0])
    config = lle.TrainConfig(epochs=60, warmup=10)
    init_loss = _objective(bases, x_gt, theta0)
    theta, trace = lle.train_timestep(lle.LeastSquares(bases, x_gt), theta0, config,
                                      lr_t=0.05, t_i=500)
    final = _objective(bases, x_gt, theta)
    assert final <= init_loss + 1e-9
    assert trace[0] == pytest.approx(init_loss)
    assert min(trace) == pytest.approx(final)


def test_train_timestep_closed_form_is_optimal():
    stream = RngStream(110)
    bases = [stream.standard_normal((5, 4)) for _ in range(2)]
    x_gt = stream.standard_normal((5, 4))
    config = lle.TrainConfig(closed_form=True)
    theta, _ = lle.train_timestep(lle.LeastSquares(bases, x_gt), np.array([0.0, 1.0]), config,
                                  0.01, 500)
    star, *_ = np.linalg.lstsq(_flat(bases), x_gt.ravel(), rcond=None)
    assert np.max(np.abs(theta - star)) < 1e-9


def test_train_timestep_detects_divergence():
    ls = lle.LeastSquares([np.full((2, 2), np.nan)], np.zeros((2, 2)))
    with pytest.raises(ConvergenceError):
        lle.train_timestep(ls, np.array([1.0]), lle.TrainConfig(), 0.01, 250)


@pytest.mark.parametrize("optimizer", ["schedule-free", "adam"])
def test_train_timestep_detects_divergence_after_a_finite_start(optimizer):
    # the first loss is finite; the optimizer's steps at lr_t 1e300 overflow it
    stream = RngStream(111)
    ls = lle.LeastSquares([stream.standard_normal((4, 3)) for _ in range(3)],
                          stream.standard_normal((4, 3)))
    theta0 = np.array([0.0, 0.0, 1.0])
    assert np.isfinite(ls.loss(theta0))
    config = lle.TrainConfig(epochs=lle._EPOCH_BLOCK + 5, optimizer=optimizer)
    with np.errstate(all="ignore"), pytest.raises(
            ConvergenceError, match="^training diverged at timestep 250$"):
        lle.train_timestep(ls, theta0, config, 1e300, 250)


@settings(max_examples=60, deadline=None)
@given(J=st.integers(min_value=1, max_value=30), n=st.integers(min_value=1, max_value=12),
       E=st.integers(min_value=1, max_value=2 * lle._EPOCH_BLOCK + 1),
       omega=st.sampled_from([0.0, 0.3]), seed=st.integers(min_value=0, max_value=2**31))
def test_losses_equal_each_rows_loss_bit_for_bit(J, n, E, omega, seed):
    stream = RngStream(seed)
    ls = lle.LeastSquares(stream.standard_normal((J, n, 5)), stream.standard_normal((n, 5)),
                          omega)
    thetas = stream.standard_normal((E, J))
    assert ls.losses(thetas).tolist() == [ls.loss(theta) for theta in thetas]


def _train_timestep_by_epoch(ls, theta0, config, lr_t):
    """train_timestep as one loss call per epoch."""
    if config.optimizer == "adam":
        opt = Adam(theta0, lr=lr_t)
    else:
        opt = ScheduleFreeAdamW(theta0, lr=lr_t, warmup=config.warmup)
    best, best_loss = theta0, ls.loss(theta0)
    trace = [best_loss]
    for _ in range(config.epochs):
        theta = opt.step(ls.grad(opt.eval_point()))
        trace.append(ls.loss(theta))
        if trace[-1] < best_loss:
            best, best_loss = theta, trace[-1]
    return np.asarray(best, dtype=float), trace


@pytest.mark.parametrize("J", [1, 5])
@pytest.mark.parametrize("epochs", [0, 1, lle._EPOCH_BLOCK, 2 * lle._EPOCH_BLOCK + 7])
@pytest.mark.parametrize("keys", [{"warmup": 0}, {"warmup": 10},
                                  {"warmup": 3 * lle._EPOCH_BLOCK}, {"optimizer": "adam"}])
def test_train_timestep_scores_blocks_as_each_epoch(epochs, keys, J):
    # a last block that is not full when epochs is not a multiple of the block length,
    # a warmup longer than the fit, no epochs at all, and a one-entry theta
    stream = RngStream(112)
    ls = lle.LeastSquares([stream.standard_normal((6, 4)) for _ in range(J)],
                          stream.standard_normal((6, 4)), 0.2)
    theta0 = np.eye(J)[J - 2]
    config = lle.TrainConfig(epochs=epochs, **keys)
    theta, trace = lle.train_timestep(ls, theta0, config, 0.05, 500)
    want_theta, want_trace = _train_timestep_by_epoch(ls, theta0, config, 0.05)
    assert len(trace) == epochs + 1 and trace == want_trace
    assert theta.tobytes() == want_theta.tobytes()


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_first_timestep_is_identity():
    ls = lle.LeastSquares([np.zeros((2, 3))], np.zeros((2, 3)))
    g = lle.init_coeffs(ls, "adaptive-linear", 0.5, RngStream(0))
    assert np.array_equal(g, [1.0])


def test_init_prefers_better_estimate():
    gt = np.zeros((4, 3))
    good = 0.01 * np.ones((4, 3))
    bad = np.ones((4, 3))
    stream = RngStream(111)
    # latest estimate better -> one-hot on it
    g = lle.init_coeffs(lle.LeastSquares([bad, good], gt), "adaptive-linear", 0.5, stream)
    assert g[1] == 1.0 and abs(g[0]) < 0.01
    # previous better -> adaptive-linear puts the mass there
    g = lle.init_coeffs(lle.LeastSquares([good, bad], gt), "adaptive-linear", 0.5, stream)
    assert g[0] == 1.0 and abs(g[1]) < 0.01


def test_init_soft_nonlinear_split():
    gt = np.zeros((4, 3))
    good = 0.01 * np.ones((4, 3))
    bad = np.ones((4, 3))
    ls = lle.LeastSquares([good, bad], gt)
    g = lle.init_coeffs(ls, "soft-nonlinear", 0.8, RngStream(112))
    assert g[0] == pytest.approx(0.8)
    assert g[1] == pytest.approx(0.2)


def test_init_decoupled_duplicates():
    op = ops.mask_operator(2, [0])
    ls = lle.LeastSquares(lle.stack_bases([np.zeros((2, 2))], op, True), np.zeros((2, 2)))
    g = lle.init_coeffs(ls, "adaptive-linear", 0.5, RngStream(113), decoupled=True)
    assert np.array_equal(g, [1.0, 1.0])


@pytest.mark.parametrize("op", [
    ops.mask_operator(8, [0, 3, 4, 6]),
    ops.blur_operator(8, [0.25, 0.5, 0.25]),
    ops.dense_operator(RngStream(138).standard_normal((5, 8))),
], ids=["mask", "blur", "dense"])
def test_init_doubled_one_hot_loss_is_the_estimates_row_loss(op):
    # the decoupled init compares two estimates by ls.loss of their doubled one-hots:
    # range plus null part of one estimate, so that estimate's own loss, omega term included
    stream = RngStream(139)
    J, omega = 3, 0.4
    bases = [stream.standard_normal((5, 8)) for _ in range(J)]
    x_gt = stream.standard_normal((5, 8))
    ls = lle.LeastSquares(lle.stack_bases(bases, op, decoupled=True), x_gt, omega)
    for j, x in enumerate(bases):
        onehot = np.tile(np.eye(J)[j], 2)
        rows = np.mean([_row_loss_reference(r, g, omega, True) for r, g in zip(x, x_gt)])
        assert abs(ls.loss(onehot) - rows) <= 1e-12 * rows, j


# ---------------------------------------------------------------------------
# ground truth variants
# ---------------------------------------------------------------------------


def step_ctx(prior, schedule, obs, algorithm, x_t, stream=None, **kw):
    """A run's step context at (t_i, t_prev) = (500, 250), as the driver builds it."""
    return step_context(x_t, 500, 250, prior, schedule, stream or RngStream(0), obs,
                        canon.default_params(algorithm), **kw)


def test_noisy_gt_restricted_to_spectral_algorithms(schedule, small_prior):
    obs, truth = mask_obs(small_prior)
    with pytest.raises(ConfigError):
        lle.make_ground_truth(step_ctx(small_prior, schedule, obs, "DPS", truth), truth,
                              noisy_gt=True)


def test_noisy_gt_is_corrector_of_x0(schedule, small_prior):
    obs, truth = mask_obs(small_prior)
    ctx = step_ctx(small_prior, schedule, obs, "DDNM", truth, x0_sampled=truth.copy())
    got = lle.make_ground_truth(ctx, truth, noisy_gt=True)
    expected = canon.corr_ddrm(ctx)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_noisy_gt_runs_the_corrector_on_a_fresh_context(schedule, small_prior, monkeypatch):
    # the run's context has drawn, sampled and cached eps and the whitening at its own
    # x_t; the target shares none of them, and moves none of them
    obs, truth = mask_obs(small_prior)
    run = step_ctx(small_prior, schedule, obs, "DDRM", RngStream(101).standard_normal(6),
                   stream=RngStream(102), history=[truth + 1.0])
    run.stream.standard_normal(3)
    canon.sample_phi(run)
    counter, eps, whitened = run.stream.counter, run._eps.copy(), run._whitened
    seen = []

    def spy(ctx):
        seen.append(ctx)
        return canon.corr_ddrm(ctx)

    monkeypatch.setitem(canon.CORRECTORS, "DDRM", spy)
    got = lle.make_ground_truth(run, truth, noisy_gt=True)
    fresh = step_ctx(small_prior, schedule, obs, "DDRM", truth, x0_sampled=truth.copy())
    assert np.array_equal(got, canon.corr_ddrm(fresh))
    (used,) = seen
    assert used.stream is not run.stream and used.history == []
    assert used._eps is None and used._whitened is None
    assert used.run is run.run  # the step's row of the run's x-independent tables
    assert np.array_equal(used.x_t, truth) and (used.t_i, used.t_prev) == (500, 250)
    assert run.stream.counter == counter and run._whitened is whitened
    assert np.array_equal(run._eps, eps)


def test_clean_gt_is_reference(schedule, small_prior):
    obs, truth = mask_obs(small_prior)
    got = lle.make_ground_truth(step_ctx(small_prior, schedule, obs, "DPS", truth), truth,
                                noisy_gt=False)
    assert np.array_equal(got, truth)


# ---------------------------------------------------------------------------
# training and inference end to end
# ---------------------------------------------------------------------------


def small_training_setup(algorithm="DDNM", **tc_kwargs):
    prior = random_mixture(120, 6, 2)
    schedule = dif.linear_beta_schedule()
    op = ops.mask_operator(6, [0, 2, 4])
    sigma_y = 0.05
    params = canon.default_params(algorithm)
    grid = dif.make_time_grid(schedule, 3)
    defaults = dict(n_refs=8, ref_steps=60, epochs=30, warmup=10, base_seed=7)
    defaults.update(tc_kwargs)
    tc = lle.TrainConfig(**defaults)
    return params, prior, schedule, op, sigma_y, grid, tc


def test_train_produces_monotone_traces():
    params, prior, schedule, op, sigma_y, grid, tc = small_training_setup()
    coeffs, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    assert coeffs.S == 3
    assert set(traces) == set(grid.timesteps[:3])
    for t, trace in traces.items():
        assert min(trace) <= trace[0] + 1e-9


def test_train_decoupled_produces_two_vectors():
    params, prior, schedule, op, sigma_y, grid, tc = small_training_setup(
        decoupled=True, closed_form=True
    )
    coeffs, _ = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    assert coeffs.decoupled and [t.size for t in coeffs.theta] == [2, 4, 6]


def test_decoupled_fit_on_a_full_rank_operator_is_the_coupled_fit():
    # at full rank x - x V V^T is rounding alone; fitting it gave |gamma_perp| ~ 1e14
    fits = []
    for decoupled in (False, True):
        params, prior, schedule, _, sigma_y, grid, tc = small_training_setup(
            "DDRM", decoupled=decoupled, closed_form=True)
        op = ops.blur_operator(6, ops.gaussian_kernel(5, 1.2))
        assert op.r == op.n
        fits.append(lle.train(params, prior, schedule, op, sigma_y, grid, tc)[0].theta)
    for coupled, theta in zip(*fits):
        J = coupled.size
        assert np.array_equal(theta[J:], np.zeros(J))
        assert np.max(np.abs(theta[:J] - coupled)) <= 1e-12 * np.max(np.abs(coupled))


def test_decoupled_training_projects_once_per_timestep(monkeypatch):
    calls = []
    real = ops.project

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ops, "project", spy)
    counts = []
    for epochs in (3, 12):
        params, prior, schedule, op, sigma_y, grid, tc = small_training_setup(
            "DPS", decoupled=True, epochs=epochs
        )
        calls.clear()
        lle.train(params, prior, schedule, op, sigma_y, grid, tc)
        counts.append(len(calls))
    # one for the fit's stacked basis, one for the combined estimate
    assert counts == [2 * grid.S, 2 * grid.S]


def test_identity_inference_is_bit_identical_to_base():
    params, prior, schedule, op, sigma_y, grid, tc = small_training_setup("DPS")
    y = ops.observe(op, prior.sample(RngStream(5), 1), sigma_y, RngStream(6))
    obs = ops.Observation(y=y[0], op=op, sigma_y=sigma_y)
    base = canon.run(params, prior, schedule, obs, grid, seed=31)
    ident = identity_coeffs(grid)
    via_lle = lle.infer(params, prior, schedule, obs, grid, ident, seed=31)
    assert np.array_equal(base, via_lle)


def test_trained_inference_runs_and_differs():
    params, prior, schedule, op, sigma_y, grid, tc = small_training_setup(
        closed_form=True
    )
    coeffs, _ = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    truth = prior.sample(RngStream(8), 1)[0]
    y = ops.observe(op, truth, 0.05, RngStream(9))
    obs = ops.Observation(y=y, op=op, sigma_y=0.05)
    out = lle.infer(params, prior, schedule, obs, grid, coeffs, seed=12)
    assert np.all(np.isfinite(out))
    base = canon.run(params, prior, schedule, obs, grid, seed=12)
    assert not np.array_equal(out, base)


def test_infer_rejects_grid_mismatch(schedule, small_prior):
    grid3 = dif.make_time_grid(schedule, 3)
    grid4 = dif.make_time_grid(schedule, 4)
    obs, _ = mask_obs(small_prior)
    coeffs = identity_coeffs(grid3)
    with pytest.raises(ConfigError):
        lle.infer(canon.default_params("DDNM"), small_prior, schedule, obs,
                  grid4, coeffs, seed=1)


def test_infer_rejects_coefficients_of_another_time_grid(small_prior):
    # S = 2 on both sides, but trained at T = 1000 and applied at T = 400
    trained = identity_coeffs(dif.make_time_grid(dif.linear_beta_schedule(), 2))
    schedule = dif.linear_beta_schedule(T=400)
    obs, _ = mask_obs(small_prior)
    with pytest.raises(ConfigError, match=r"\[1000, 500\].*\[400, 200\]"):
        lle.infer(canon.default_params("DDNM"), small_prior, schedule, obs,
                  dif.make_time_grid(schedule, 2), trained, seed=1)


def test_coefficients_need_one_timestep_per_vector():
    theta = [np.ones(1), np.array([0.0, 1.0])]
    with pytest.raises(ValueError, match="timestep"):
        lle.LLECoefficients.from_theta((1000, 500, 0), theta, False)


def test_train_config_omega_resolution():
    assert lle.TrainConfig().resolved_omega() == 0.0
    assert lle.TrainConfig(plugin="gradient-domain").resolved_omega() == 0.1
    assert lle.TrainConfig(plugin="gradient-domain", omega=0.7).resolved_omega() == 0.7
    # earlier null meant the default 0.1: two values that fit alike
    with pytest.raises(ConfigError, match="^lle.omega must be a finite number, got None$"):
        lle.TrainConfig.from_dict({"plugin": "gradient-domain", "omega": None})


# ---- the read probe over the `lle` keys ------------------------------------

# another valid value of each `lle` key; a bool is flipped, a choice is the other one
_FIT_OTHER = {"n_refs": 6, "ref_steps": 40, "omega": 0.5, "epochs": 7, "warmup": 3,
              "base_seed": 8}
# every entry's switch value, alone and with the gradient-domain term
_FIT_CONTEXTS = [dict(ctx, **plugin) for ctx in (dict([entry]) for entry in
                                                 lle.TrainConfig.unread_when)
                 for plugin in ({}, {"plugin": "gradient-domain"}) if not (plugin and
                                                                            "plugin" in ctx)]


def _fit(given: dict) -> tuple:
    """(coefficients file, traces) of a DDNM fit on a mask, the lle block given as JSON."""
    params, prior, schedule, op, sigma_y, grid, _ = small_training_setup("DDNM")
    tc = lle.TrainConfig.from_dict({"n_refs": 8, "ref_steps": 60, "base_seed": 7, **given})
    coeffs, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    return coeffs.to_json(), traces


def _fit_other(key, now):
    choices = lle.TrainConfig.rules[key].rule[0]
    if choices:
        return next(c for c in choices if c != now)
    return (not now) if isinstance(now, bool) else _FIT_OTHER[key]


def test_the_train_unread_cases_cover_every_entry():
    # every key is settable, so probed, in some context, and every entry has its context
    settable = set()
    for ctx in _FIT_CONTEXTS:
        tc = lle.TrainConfig.from_dict(ctx)
        settable |= {key for key in tc.rules if not any(
            getattr(tc, switch) == value and key in keys
            for (switch, value), keys in tc.unread_when.items())}
    assert settable == set(lle.TrainConfig.rules)
    assert {next(iter(ctx.items())) for ctx in _FIT_CONTEXTS} == set(lle.TrainConfig.unread_when)


@pytest.mark.parametrize("switch, on, key", [(switch, on, key) for (switch, on), keys
                                             in lle.TrainConfig.unread_when.items()
                                             for key in keys])
def test_a_key_its_switch_leaves_unread_leaves_the_fit_as_it_was(switch, on, key):
    # earlier omega was read under plugin "none" when set past the load-time rule, and
    # epochs 0 took warmup, lr_rule and optimizer
    other = _fit_other(key, getattr(lle.TrainConfig(), key))
    with pytest.raises(ConfigError, match=f"^lle.{key} is not read when lle.{switch} is "):
        lle.TrainConfig.from_dict({switch: on, key: other})
    params, prior, schedule, op, sigma_y, grid, _ = small_training_setup("DDNM")
    tc = lle.TrainConfig.from_dict({"n_refs": 8, "ref_steps": 60, "base_seed": 7, switch: on})
    coeffs, traces = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    setattr(tc, key, other)
    again, traces_again = lle.train(params, prior, schedule, op, sigma_y, grid, tc)
    assert again.to_json() == coeffs.to_json()
    assert traces_again == traces


@pytest.mark.parametrize("context", _FIT_CONTEXTS, ids=lambda ctx: json.dumps(ctx))
def test_every_lle_key_a_config_may_set_moves_the_fit(context):
    base = _fit(context)
    now = lle.TrainConfig.from_dict(context)
    for key in lle.TrainConfig.rules:
        moved = dict(context, **{key: _fit_other(key, getattr(now, key))})
        try:
            lle.TrainConfig.from_dict(moved)
        except ConfigError:  # unread here, or it leaves another given key unread
            continue
        assert _fit(moved) != base, key


@pytest.mark.parametrize("decoupled", [False, True])
def test_a_coefficient_part_decoupled_leaves_unread_is_rejected_and_unused(decoupled):
    obj = _coeffs_file(decoupled)
    unread = lle.LLECoefficients.unread_when["decoupled", decoupled]
    junk = {key: [[9.0], [9.0, 9.0]] for key in unread}
    message = f"^{unread[0]} is not read when decoupled is {json.dumps(decoupled)}$"
    with pytest.raises(ConfigError, match=message):
        lle.LLECoefficients.from_json(json.dumps(dict(obj, **junk)))
    read = lle.LLECoefficients.from_dict(obj)
    built = lle.LLECoefficients(S=read.S, decoupled=decoupled, timesteps=read.timesteps,
                                **{k: v for k, v in obj.items() if k.startswith("gamma")}, **junk)
    assert [t.tobytes() for t in built.theta] == [t.tobytes() for t in read.theta]


def test_generate_references_shape_and_determinism(schedule, small_prior):
    tc = lle.TrainConfig(n_refs=4, ref_steps=40, base_seed=2)
    a = lle.generate_references(small_prior, schedule, tc)
    b = lle.generate_references(small_prior, schedule, tc)
    assert a.shape == (4, 6)
    assert np.array_equal(a, b)


def test_learning_rate_rules(schedule):
    grid = dif.make_time_grid(schedule, 4)
    const = lle._learning_rate(lle.TrainConfig(), schedule, grid, 0)
    assert const == pytest.approx(0.04 / 4)
    dyn = lle._learning_rate(lle.TrainConfig(lr_rule="dynamic"), schedule, grid, 2)
    assert dyn == pytest.approx(0.2 * schedule.alphabar(750) / 4)
    with pytest.raises(ConfigError, match="lr_rule"):
        lle.TrainConfig(lr_rule="cosine")


# ---------------------------------------------------------------------------
# batched inference against the per-row loop
# ---------------------------------------------------------------------------

NONLINEAR_CAPABLE = ("DPS", "REDdiff", "DiffPIR", "ReSample", "DAPS")


def _batch_operator(kind, d):
    if kind == "mask":
        return ops.mask_operator(d, [0, 2, 3])
    if kind == "blur":
        return ops.blur_operator(d, [0.25, 0.5, 0.25])
    if kind == "dense":
        return ops.dense_operator(RngStream(401).standard_normal((4, d)))
    return ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=1.5)


def _random_coeffs(kind, grid, seed):
    if kind == "identity":
        return identity_coeffs(grid)
    s = RngStream(seed, 9)

    def near_identity(J):
        return np.eye(J)[J - 1] + 0.2 * s.standard_normal(J)

    theta = [near_identity(J) for J in range(1, grid.S + 1)]
    if kind == "decoupled":
        perp = [near_identity(J) for J in range(1, grid.S + 1)]
        theta = [np.concatenate([g, p]) for g, p in zip(theta, perp)]
    return lle.LLECoefficients.from_theta(grid.timesteps[:grid.S], theta, kind == "decoupled")


@settings(max_examples=60, deadline=None)
@given(
    algo=st.sampled_from(canon.ALGORITHMS),
    n=st.sampled_from([1, 3, 7]),
    op_kind=st.sampled_from(["mask", "blur", "dense", "nonlinear"]),
    coeff_kind=st.sampled_from(["identity", "coupled", "decoupled"]),
    sigma_y=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**20),
)
def test_batched_infer_equals_per_row_infer(schedule, algo, n, op_kind, coeff_kind,
                                            sigma_y, seed):
    # An (N, 1, m) batch with one stream per row reproduces each row's own
    # one-row inference bit for bit, for every algorithm, operator and kind of
    # coefficients (decoupled ones need a linear operator).
    assume(op_kind != "nonlinear" or (algo in NONLINEAR_CAPABLE and coeff_kind != "decoupled"))
    prior = random_mixture(402, 6, 2)
    op = _batch_operator(op_kind, prior.d)
    truths = prior.sample(RngStream(seed, 1), n)
    ys = ops.observe(op, truths, sigma_y, RngStream(seed, 2))
    grid = dif.make_time_grid(schedule, 3)
    coeffs = _random_coeffs(coeff_kind, grid, seed)
    params = canon.default_params(algo)
    params.daps.n_langevin = 10
    params.inner_opt.steps = 10

    def infer(y, stream):
        obs = ops.Observation(y=y, op=op, sigma_y=sigma_y)
        try:
            return lle.infer(params, prior, schedule, obs, grid, coeffs, seed, stream=stream)
        except ConvergenceError as exc:
            return exc

    rows = [infer(ys[i], RngStream(seed, 1000 + i)) for i in range(n)]
    batch = infer(ys[:, None, :], RowStreams(RngStream(seed, 1000 + i) for i in range(n)))
    failed = {i for i, row in enumerate(rows) if isinstance(row, Exception)}
    if failed:  # the batch raises at the first failure, naming rows that fail alone
        assert isinstance(batch, ConvergenceError)
        named = re.search(r"row\(s\) \[([\d, ]+)\]", str(batch)).group(1)
        assert {int(i) for i in named.split(",")} <= failed
        return
    assert batch.shape == (n, 1, prior.d)
    for i in range(n):
        assert np.array_equal(batch[i, 0], rows[i]), (i, algo, op_kind, coeff_kind)
