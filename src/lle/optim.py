"""Schedule-free AdamW: averaged-iterate Adam needing no decay schedule.

Two sequences are maintained: a fast iterate z updated by Adam-normalized
steps, and a slow average x. Gradients are evaluated at the interpolation
y = (1 - beta1) z + beta1 x; the averaged iterate is the returned parameter
vector. A plain-Adam fallback exists for ablation.

`ScheduleFreeAdamW` and `Adam` step the coefficient fit's few-entry vector on
Python floats, where a NumPy call costs more than its arithmetic. Their `run`
takes a block of epochs from a gradient callback, and each epoch is one pass
over the entries: it scales the gradient entry, updates the optimizer state
and forms the entry of the next evaluation point. `step(g)` is one epoch of
that loop. Each entry takes the array expression's operations in its order,
and `math.sqrt` is correctly rounded, so the bits are the array form's.
`BatchScheduleFreeAdamW` is that array form, for DiffPIR's inner loop on a
(B, d) batch.
"""

from __future__ import annotations

import math

import numpy as np


class _ScheduleFree:
    """The schedule-free rule's state and step schedule, whatever holds the vectors."""

    def __init__(self, init_params, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, warmup: int = 0):
        self.z, self.x = self._vector(init_params), self._vector(init_params)
        self.v = self._vector(np.zeros_like(init_params, dtype=float))
        self.lr, self.beta1, self.beta2, self.eps, self.warmup = lr, beta1, beta2, eps, warmup
        self.t = 0
        self._lr2_sum = 0.0

    def _advance(self):
        """Count a step; its (lr_t, 1 - beta2^t, averaging weight c)."""
        self.t += 1
        lr_t = self.lr
        if self.warmup > 0:
            lr_t *= min(1.0, self.t / self.warmup)
        self._lr2_sum += lr_t * lr_t
        c = (lr_t * lr_t / self._lr2_sum) if self._lr2_sum > 0 else 1.0
        return lr_t, 1.0 - self.beta2**self.t, c

    def params(self) -> np.ndarray:
        """Current parameters (the averaged iterate)."""
        return np.array(self.x)


class ScheduleFreeAdamW(_ScheduleFree):
    """The rule on one vector of Python floats; `run` and `step` return each
    epoch's parameters as a new list."""

    @staticmethod
    def _vector(a):
        return np.asarray(a, dtype=float).tolist()

    def eval_point(self) -> np.ndarray:
        """Interpolation point y at which the next gradient must be evaluated."""
        b1 = self.beta1
        return np.array([(1.0 - b1) * z + b1 * x for z, x in zip(self.z, self.x)])

    def run(self, grad, epochs: int, mul: float = 1.0, div: float = 1.0) -> list:
        """Run `epochs` epochs; returns each epoch's parameters.

        An epoch's gradient entry j is mul * h[j] / div for h = grad(y), y the
        epoch's evaluation point as a list that the next epoch overwrites.
        """
        b1, b2, eps = self.beta1, self.beta2, self.eps
        a1, a2 = 1.0 - b1, 1.0 - b2
        z, v, x = self.z[:], self.v[:], self.x
        y = [a1 * zj + b1 * xj for zj, xj in zip(z, x)]
        entries = range(len(x))
        out = []
        for _ in range(epochs):
            lr_t, bc, c = self._advance()
            keep = 1.0 - c
            h = grad(y)
            x = x[:]
            for j in entries:
                g = mul * h[j] / div
                vj = v[j] = b2 * v[j] + a2 * g * g
                zj = z[j] = z[j] - lr_t * g / (math.sqrt(vj / bc) + eps)
                xj = x[j] = keep * x[j] + c * zj
                y[j] = a1 * zj + b1 * xj
            out.append(x)
        self.z, self.v, self.x = z, v, x
        return out

    def step(self, grad) -> list:
        """Consume a gradient taken at eval_point(); returns updated params."""
        return self.run(lambda y: grad, 1)[0]


class BatchScheduleFreeAdamW(_ScheduleFree):
    """The same rule on NumPy arrays of any shape, each entry its own
    coordinate: DiffPIR's inner loop steps a (B, d) batch at once."""

    @staticmethod
    def _vector(a):
        return np.array(a, dtype=float, copy=True)

    def eval_point(self) -> np.ndarray:
        return (1.0 - self.beta1) * self.z + self.beta1 * self.x

    def step(self, grad) -> np.ndarray:
        lr_t, bc, c = self._advance()
        g = np.asarray(grad, dtype=float)
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        self.z = self.z - lr_t * g / (np.sqrt(self.v / bc) + self.eps)
        self.x = (1.0 - c) * self.x + c * self.z
        return self.params()


class Adam:
    """Plain Adam on Python floats, kept as an ablation fallback for
    coefficient training; `run` and `step` return each epoch's parameters as
    a new list."""

    def __init__(self, init_params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.x = np.asarray(init_params, dtype=float).tolist()
        self.m, self.v = [0.0] * len(self.x), [0.0] * len(self.x)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def params(self) -> np.ndarray:
        return np.array(self.x)

    eval_point = params  # gradients are taken at the parameters

    def run(self, grad, epochs: int, mul: float = 1.0, div: float = 1.0) -> list:
        """Run `epochs` epochs as `ScheduleFreeAdamW.run` does; the evaluation
        point is the parameters, which grad must not change."""
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        a1, a2 = 1.0 - b1, 1.0 - b2
        m, v, x = self.m[:], self.v[:], self.x
        entries = range(len(x))
        out = []
        for _ in range(epochs):
            self.t += 1
            bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
            h = grad(x)
            x = x[:]
            for j in entries:
                g = mul * h[j] / div
                mj = m[j] = b1 * m[j] + a1 * g
                vj = v[j] = b2 * v[j] + a2 * g * g
                x[j] = x[j] - lr * (mj / bc1) / (math.sqrt(vj / bc2) + eps)
            out.append(x)
        self.m, self.v, self.x = m, v, x
        return out

    def step(self, grad) -> list:
        return self.run(lambda x: grad, 1)[0]
