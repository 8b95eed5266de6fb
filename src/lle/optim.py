"""Schedule-free AdamW: averaged-iterate Adam needing no decay schedule.

Two sequences are maintained: a fast iterate z updated by Adam-normalized
steps, and a slow average x. Gradients are evaluated at the interpolation
y = (1 - beta1) z + beta1 x; the averaged iterate is the returned parameter
vector. A plain-Adam fallback exists for ablation.

`ScheduleFreeAdamW` and `Adam` step the coefficient fit's few-entry vector on
Python floats, where a NumPy call costs more than its arithmetic: each entry
takes the array expression's operations in its order, and `math.sqrt` is
correctly rounded, so the bits are the array form's. `BatchScheduleFreeAdamW`
is that array form, for DiffPIR's inner loop on a (B, d) batch.
"""

from __future__ import annotations

import math

import numpy as np


class ScheduleFreeAdamW:
    """The rule on one vector of Python floats; `step` takes any sequence of
    floats and returns the new parameters as a new list."""

    def __init__(self, init_params, lr: float = 0.01, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, warmup: int = 0):
        self.z, self.x = self._vector(init_params), self._vector(init_params)
        self.v = self._vector(np.zeros_like(init_params, dtype=float))
        self.lr, self.beta1, self.beta2, self.eps, self.warmup = lr, beta1, beta2, eps, warmup
        self.t = 0
        self._lr2_sum = 0.0

    @staticmethod
    def _vector(a):
        return np.asarray(a, dtype=float).tolist()

    def _advance(self):
        """Count a step; its (lr_t, 1 - beta2^t, averaging weight c)."""
        self.t += 1
        lr_t = self.lr
        if self.warmup > 0:
            lr_t *= min(1.0, self.t / self.warmup)
        self._lr2_sum += lr_t * lr_t
        c = (lr_t * lr_t / self._lr2_sum) if self._lr2_sum > 0 else 1.0
        return lr_t, 1.0 - self.beta2**self.t, c

    def eval_point(self) -> np.ndarray:
        """Interpolation point y at which the next gradient must be evaluated."""
        b1 = self.beta1
        return np.array([(1.0 - b1) * z + b1 * x for z, x in zip(self.z, self.x)])

    def params(self) -> np.ndarray:
        """Current parameters (the averaged iterate)."""
        return np.array(self.x)

    def step(self, grad) -> list:
        """Consume a gradient taken at eval_point(); returns updated params."""
        lr_t, bc, c = self._advance()
        b2, a2, eps, keep = self.beta2, 1.0 - self.beta2, self.eps, 1.0 - c
        self.v = [b2 * v + a2 * g * g for v, g in zip(self.v, grad)]
        self.z = [z - lr_t * g / (math.sqrt(v / bc) + eps)
                  for z, g, v in zip(self.z, grad, self.v)]
        self.x = [keep * x + c * z for x, z in zip(self.x, self.z)]
        return self.x


class BatchScheduleFreeAdamW(ScheduleFreeAdamW):
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
    coefficient training; `step` returns the new parameters as a list."""

    def __init__(self, init_params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.x = np.asarray(init_params, dtype=float).tolist()
        self.m, self.v = [0.0] * len(self.x), [0.0] * len(self.x)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def params(self) -> np.ndarray:
        return np.array(self.x)

    eval_point = params  # gradients are taken at the parameters

    def step(self, grad) -> list:
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        a1, a2 = 1.0 - b1, 1.0 - b2
        self.m = [b1 * m + a1 * g for m, g in zip(self.m, grad)]
        self.v = [b2 * v + a2 * g * g for v, g in zip(self.v, grad)]
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        self.x = [x - lr * (m / bc1) / (math.sqrt(v / bc2) + eps)
                  for x, m, v in zip(self.x, self.m, self.v)]
        return self.x
