"""The float optimizers give the bits of their array forms.

`ScheduleFreeAdamW` and `Adam` hold Python floats; `BatchScheduleFreeAdamW` is the
schedule-free rule on arrays (DiffPIR's inner loop), and `_ArrayAdam` below is
plain Adam on arrays as it was written before the float form. Each float form
is driven epoch by epoch through `step` and in blocks through `run`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lle.numerics import RngStream
from lle.optim import Adam, BatchScheduleFreeAdamW, ScheduleFreeAdamW


class _ArrayAdam:
    def __init__(self, init_params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.x = np.array(init_params, dtype=float, copy=True)
        self.m = np.zeros_like(self.x)
        self.v = np.zeros_like(self.x)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def eval_point(self):
        return self.x.copy()

    def params(self):
        return self.x.copy()

    def step(self, grad):
        self.t += 1
        g = np.asarray(grad, dtype=float)
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        self.x = self.x - self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return self.params()


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _drive(floats, arrays, J, seed, n=1, block=None, steps=300):
    """Step both forms on one noisy quadratic, each from its own eval point, and
    require the same bits at every step.

    With block None the float form takes one `step` per gradient. Otherwise it
    takes `run` calls of `block` epochs each (and one of none between them), its
    gradient formed by the loop as 2.0 * h / n, as the coefficient fit forms it
    on n rows, and each epoch's parameters must equal the array form's at that
    epoch.
    """
    stream = RngStream(seed)
    target = stream.standard_normal(J)
    scale = np.exp(16.0 * stream.uniform(J) - 8.0)  # gradients over 7 decades

    def grad(y):
        assert _bits(y) == _bits(arrays.eval_point())
        return scale * (np.asarray(y) - target) + 1e-3 * stream.standard_normal(J)

    if block is None:
        for _ in range(steps):
            g = grad(floats.eval_point())
            out = floats.step(g.tolist())
            assert _bits(out) == _bits(arrays.step(g))
            assert _bits(floats.params()) == _bits(arrays.params())
        return
    want = []

    def residual(y):
        h = grad(y)
        want.append(_bits(arrays.step(2.0 * h / n)))
        return h.tolist()

    for start in range(0, steps, block):
        outs = floats.run(residual, min(block, steps - start), 2.0, n)
        assert [_bits(out) for out in outs] == want[start:]
        assert floats.run(residual, 0, 2.0, n) == []
        assert _bits(floats.eval_point()) == _bits(arrays.eval_point())
        assert _bits(floats.params()) == _bits(arrays.params())
    assert len(want) == steps


_CASES = dict(
    J=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
    log_lr=st.floats(min_value=-4.0, max_value=0.0),
    n=st.integers(min_value=1, max_value=2000),  # the block driver's row count
)

# epoch by epoch through `step`, or through `run` in the fit's 64-epoch blocks
_DRIVERS = pytest.mark.parametrize("block", [None, 64], ids=["step", "run"])


@_DRIVERS
@settings(max_examples=40, deadline=None)
@example(J=10, seed=1, log_lr=-2.0, n=3, warmup=0)
@example(J=10, seed=1, log_lr=-2.0, n=3, warmup=10)
@given(warmup=st.one_of(st.just(0), st.integers(min_value=1, max_value=400)), **_CASES)
def test_schedule_free_floats_match_the_array_form(block, J, seed, log_lr, n, warmup):
    init = RngStream(seed, 1).standard_normal(J)
    lr = 10.0**log_lr
    floats = ScheduleFreeAdamW(init, lr=lr, warmup=warmup)
    arrays = BatchScheduleFreeAdamW(init, lr=lr, warmup=warmup)
    _drive(floats, arrays, J, seed, n, block)
    assert _bits(floats.z) == _bits(arrays.z) and _bits(floats.v) == _bits(arrays.v)


@_DRIVERS
@settings(max_examples=40, deadline=None)
@example(J=10, seed=1, log_lr=-2.0, n=3)
@given(**_CASES)
def test_adam_floats_match_the_array_form(block, J, seed, log_lr, n):
    init = RngStream(seed, 1).standard_normal(J)
    floats, arrays = Adam(init, lr=10.0**log_lr), _ArrayAdam(init, lr=10.0**log_lr)
    _drive(floats, arrays, J, seed, n, block)
    assert _bits(floats.m) == _bits(arrays.m) and _bits(floats.v) == _bits(arrays.v)


def test_batch_form_steps_each_row_as_its_own_vector():
    # DiffPIR's (B, d) batch: row i equals a one-vector run on row i, bit for bit;
    # the batch keeps its array step and has no float epoch loop
    assert not hasattr(BatchScheduleFreeAdamW, "run")
    stream = RngStream(5)
    x0 = stream.standard_normal((3, 4))
    grads = [stream.standard_normal((3, 4)) for _ in range(20)]
    batch = BatchScheduleFreeAdamW(x0, lr=0.1, warmup=5)
    rows = [ScheduleFreeAdamW(x0[i], lr=0.1, warmup=5) for i in range(3)]
    for g in grads:
        batch.step(g)
        for i, opt in enumerate(rows):
            opt.step(g[i].tolist())
    assert _bits(batch.params()) == _bits([opt.params() for opt in rows])


def test_float_steps_return_a_new_list_each_step():
    # the coefficient fit keeps each step's return value as that epoch's parameters
    for opt in (ScheduleFreeAdamW([1.0, 2.0], lr=0.1), Adam([1.0, 2.0], lr=0.1)):
        first = opt.step([0.5, -0.5])
        kept = list(first)
        second = opt.step([0.5, -0.5])
        assert second is not first and first == kept and second != kept
