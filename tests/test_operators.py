import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lle import operators as ops
from lle.errors import ConfigError
from lle.numerics import RngStream


def all_test_operators():
    return {
        "mask": ops.mask_operator(8, [0, 2, 5]),
        "random_mask": ops.random_mask_operator(16, 0.5, seed=4),
        "avgpool": ops.avgpool_operator(12, 3),
        "blur": ops.blur_operator(16, ops.gaussian_kernel(5, 1.2)),
        "hadamard": ops.hadamard_operator(16, 0.25, seed=4),
        "dense": ops.dense_operator(RngStream(31).standard_normal((5, 9))),
    }


# ---------------------------------------------------------------------------
# pseudoinverse / projector algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(all_test_operators()))
def test_pseudoinverse_identities(kind):
    op = all_test_operators()[kind]
    A = op.dense()
    Ap = np.linalg.pinv(A)
    # A^+ from the factor form matches numpy's pinv
    got = np.stack([ops.pinv_apply(op, e) for e in np.eye(op.m)]).T
    scale = max(1.0, np.max(np.abs(Ap)))
    assert np.max(np.abs(got - Ap)) < 1e-10 * scale
    assert np.max(np.abs(A @ got @ A - A)) < 1e-10
    assert np.max(np.abs(got @ A @ got - got)) < 1e-10 * scale


@pytest.mark.parametrize("kind", list(all_test_operators()))
def test_projectors(kind):
    op = all_test_operators()[kind]
    x = RngStream(32).standard_normal(op.n)
    rng = ops.project(op, x, "range")
    null = ops.project(op, x, "null")
    assert np.max(np.abs(rng + null - x)) < 1e-12
    assert np.max(np.abs(ops.project(op, rng, "range") - rng)) < 1e-10
    assert abs(rng @ null) < 1e-10
    # null space is exactly the kernel of A
    assert np.max(np.abs(ops.apply(op, null))) < 1e-10


@pytest.mark.parametrize("kind", list(all_test_operators()))
def test_adjoint_inner_product(kind):
    op = all_test_operators()[kind]
    stream = RngStream(33)
    x = stream.standard_normal(op.n)
    y = stream.standard_normal(op.m)
    assert abs(ops.apply(op, x) @ y - x @ ops.apply_adjoint(op, y)) < 1e-10


def test_project_rejects_bad_tag():
    op = ops.mask_operator(4, [0])
    with pytest.raises(ValueError):
        ops.project(op, np.zeros(4), "rowspace")


def test_apply_dimension_check():
    op = ops.mask_operator(4, [0, 1])
    with pytest.raises(ValueError):
        ops.apply(op, np.zeros(5))


# ---------------------------------------------------------------------------
# individual builders
# ---------------------------------------------------------------------------


def test_mask_selects_coordinates():
    op = ops.mask_operator(5, [4, 1])
    x = np.arange(5.0)
    assert np.array_equal(ops.apply(op, x), np.array([1.0, 4.0]))


def test_mask_validation():
    with pytest.raises(ConfigError):
        ops.mask_operator(4, [])
    with pytest.raises(ConfigError):
        ops.mask_operator(4, [4])


def test_random_mask_keep_count():
    op = ops.random_mask_operator(10, 0.3, seed=0)
    assert op.m == 3
    assert np.array_equal(
        op.dense(), ops.random_mask_operator(10, 0.3, seed=0).dense()
    )


def test_avgpool_averages():
    op = ops.avgpool_operator(4, 2)
    assert np.max(np.abs(ops.apply(op, np.array([1.0, 3.0, 5.0, 7.0])) - [2.0, 6.0])) < 1e-14
    assert np.max(np.abs(op.s - 1.0 / math.sqrt(2.0))) < 1e-15


def test_avgpool_divisibility():
    with pytest.raises(ConfigError):
        ops.avgpool_operator(10, 3)


def _circulant(n, kernel):
    """The circular blur's matrix, entry by entry: (A x)_i = sum_off kernel[half + off] x_{i+off}."""
    C = np.zeros((n, n))
    half = kernel.size // 2
    for i in range(n):
        for off in range(-half, half + 1):
            C[i, (i + off) % n] += kernel[half + off]
    return C


def test_blur_matches_explicit_circulant():
    n = 12
    kernel = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
    op = ops.blur_operator(n, kernel)
    assert np.max(np.abs(op.dense() - _circulant(n, kernel))) < 1e-12


def test_blur_kernel_validation():
    with pytest.raises(ConfigError):
        ops.blur_operator(8, [0.5, 0.5])  # even length
    with pytest.raises(ConfigError):
        ops.blur_operator(8, [0.2, 0.5, 0.3])  # asymmetric


def test_gaussian_kernel_normalized():
    k = ops.gaussian_kernel(9, 1.5)
    assert abs(k.sum() - 1.0) < 1e-14
    assert np.array_equal(k, k[::-1])


def test_hadamard_integer_orthogonality():
    H = ops._hadamard(16)
    assert H.dtype == np.int64
    assert np.array_equal(H.T @ H, 16 * np.eye(16, dtype=np.int64))


def test_hadamard_two_point():
    op = ops.hadamard_operator(2, 1.0, seed=0)
    out = ops.apply(op, np.array([1.0, 0.0]))
    assert np.max(np.abs(np.abs(out) - 1.0 / math.sqrt(2.0))) < 1e-14


def test_hadamard_rejects_non_power_of_two():
    with pytest.raises(ConfigError):
        ops.hadamard_operator(12, 0.5, seed=0)


def test_dense_drops_zero_singular_values():
    op = ops.dense_operator(np.diag([2.0, 0.0]))
    assert op.r == 1
    assert np.max(np.abs(op.dense() - np.diag([2.0, 0.0]))) < 1e-12


def _explicit_matrices():
    """(operator, its matrix written out entry by entry) for each structured builder."""
    pool = np.zeros((4, 12))
    for i in range(4):
        pool[i, 3 * i : 3 * i + 3] = 1.0 / 3.0
    cases = {"avgpool": (ops.avgpool_operator(12, 3), pool)}
    for name, n, kernel in (("blur-gaussian", 16, ops.gaussian_kernel(5, 1.2)),
                            ("blur-rank-deficient", 8, np.array([0.25, 0.5, 0.25]))):
        cases[name] = (ops.blur_operator(n, kernel), _circulant(n, kernel))
    rows = np.sort(RngStream(4, stream_id=702).permutation(16)[:4])
    cases["hadamard"] = (ops.hadamard_operator(16, 0.25, seed=4), ops._hadamard(16)[rows] / 4.0)
    return cases


@pytest.mark.parametrize("name", list(_explicit_matrices()))
def test_structured_operator_is_its_matrix_with_orthonormal_factors(name):
    op, A = _explicit_matrices()[name]
    assert np.max(np.abs(op.dense() - A)) < 1e-12
    assert np.max(np.abs(op.V.T @ op.V - np.eye(op.r))) < 1e-13
    assert np.max(np.abs(op.U.T @ op.U - np.eye(op.r))) < 1e-13


# a value of the key that selects each `ops.OPERATORS` form, on signals of size 16
_SELECTS = {"keep_indices": [1, 4], "keep_ratio": 0.5, "factor": 2, "kernel": [0.25, 0.5, 0.25],
            "sigma": 1.5, "matrix": np.eye(3, 16).tolist()}


def test_build_operator_dispatch():
    spec = {"kind": "avgpool", "factor": 2}
    pooled = np.kron(np.eye(4), [0.5, 0.5])
    assert np.max(np.abs(ops.build_operator(8, spec).dense() - pooled)) < 1e-12
    with pytest.raises(ConfigError):
        ops.build_operator(8, {"kind": "fft"})
    for kind, forms in ops.OPERATORS.items():
        for select, (reads, build) in forms.items():
            # the form's key picks it, and an absent or None key is read at its default
            keys = {select: _SELECTS[select]} if select else {}
            expected = vars(build(16, **keys, **reads))
            for spec in ({"kind": kind, **keys}, {"kind": kind, **keys, **dict.fromkeys(reads)}):
                built = vars(ops.build_operator(16, spec))
                assert built.keys() == expected.keys(), (kind, select)
                assert all(np.array_equal(built[k], expected[k]) for k in built), (kind, select)


def test_observe_noiseless_and_seeded():
    op = ops.mask_operator(6, [1, 3])
    x = np.arange(6.0)
    assert np.array_equal(ops.observe(op, x, 0.0), np.array([1.0, 3.0]))
    a = ops.observe(op, x, 0.5, RngStream(2))
    b = ops.observe(op, x, 0.5, RngStream(2))
    assert np.array_equal(a, b)


def test_observe_with_noise_and_no_stream_names_the_missing_stream():
    # earlier an AttributeError on None.standard_normal
    for op in (ops.mask_operator(4, [0, 2]), ops.nonlinear_operator(4, [0.25, 0.5, 0.25], 0.5)):
        with pytest.raises(ValueError, match="sigma_y 0.1 > 0 needs a noise stream"):
            ops.observe(op, np.ones(4), 0.1)
        assert np.isfinite(ops.observe(op, np.ones(4), 0.0)).all()


def test_observation_validation():
    op = ops.mask_operator(4, [0])
    with pytest.raises(ValueError):
        ops.Observation(y=np.array([np.nan]), op=op, sigma_y=0.1)
    with pytest.raises(ValueError):
        ops.Observation(y=np.array([1.0]), op=op, sigma_y=-0.1)


@pytest.mark.parametrize("sigma_y", [math.nan, math.inf, -math.inf, -0.1])
def test_observation_and_observe_reject_a_sigma_y_that_is_not_finite_and_nonnegative(sigma_y):
    # NaN compares false with 0, so a sign check alone lets it through
    op = ops.mask_operator(4, [0, 2])
    with pytest.raises(ValueError, match="sigma_y must be a finite number >= 0"):
        ops.Observation(y=np.array([1.0, 2.0]), op=op, sigma_y=sigma_y)
    with pytest.raises(ValueError, match="sigma_y must be a finite number >= 0"):
        ops.observe(op, np.ones(4), sigma_y, RngStream(3))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_avgpool_pinv_property(factor, seed):
    n = 8 * factor
    op = ops.avgpool_operator(n, factor)
    x = RngStream(seed).standard_normal(n)
    y = ops.apply(op, x)
    # A A^+ y = y for any y in the range (avgpool is surjective)
    assert np.max(np.abs(ops.apply(op, ops.pinv_apply(op, y)) - y)) < 1e-10


# ---------------------------------------------------------------------------
# nonlinear operator
# ---------------------------------------------------------------------------


def nl_op(scale=2.0):
    return ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=scale)


def test_nonlinear_validation():
    with pytest.raises(ConfigError):
        ops.NonlinearOperator(kernel=np.array([0.5, 0.5]), scale=1.0)
    with pytest.raises(ConfigError):
        ops.NonlinearOperator(kernel=np.array([0.2, 0.5, 0.3]), scale=1.0)
    with pytest.raises(ConfigError):
        ops.NonlinearOperator(kernel=np.array([0.3, 0.5, 0.3]), scale=1.0)
    with pytest.raises(ConfigError):
        ops.NonlinearOperator(kernel=np.array([0.25, 0.5, 0.25]), scale=0.0)


def test_nonlinear_small_signal_linearizes():
    # tanh(cu) ~ cu for small u, so the map reduces to a scaled blur
    op = nl_op(scale=0.5)
    x = 1e-6 * RngStream(34).standard_normal(10)
    lin = 0.5 * ops._circ_conv(op.kernel, x)
    assert np.max(np.abs(ops.nl_apply(op, x) - lin)) < 1e-13


def test_nonlinear_output_bounded():
    out = ops.nl_apply(nl_op(), 100.0 * RngStream(35).standard_normal(16))
    assert np.max(np.abs(out)) <= 1.0


def test_nonlinear_vjp_finite_differences():
    op = nl_op()
    stream = RngStream(36)
    x = stream.standard_normal(10)
    v = stream.standard_normal(10)
    h = 1e-6
    got = ops.nl_vjp(op, x, v)
    fd = np.empty(10)
    for i in range(10):
        e = np.zeros(10)
        e[i] = h
        fd[i] = (v @ ops.nl_apply(op, x + e) - v @ ops.nl_apply(op, x - e)) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-6
