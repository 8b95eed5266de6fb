"""Schedule-free AdamW: averaged-iterate Adam needing no decay schedule.

Two sequences are maintained: a fast iterate z updated by Adam-normalized
steps, and a slow average x. Gradients are evaluated at the interpolation
y = (1 - beta1) z + beta1 x; the averaged iterate is the returned parameter
vector. A plain-Adam fallback exists for ablation.
"""

from __future__ import annotations

import numpy as np


class ScheduleFreeAdamW:
    def __init__(
        self,
        init_params: np.ndarray,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        warmup: int = 0,
    ):
        self.z = np.array(init_params, dtype=float, copy=True)
        self.x = np.array(init_params, dtype=float, copy=True)
        self.v = np.zeros_like(self.z)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.warmup = warmup
        self.t = 0
        self._lr2_sum = 0.0

    def eval_point(self) -> np.ndarray:
        """Interpolation point y at which the next gradient must be evaluated."""
        return (1.0 - self.beta1) * self.z + self.beta1 * self.x

    def params(self) -> np.ndarray:
        """Current parameters (the averaged iterate)."""
        return self.x.copy()

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Consume a gradient taken at eval_point(); returns updated params."""
        self.t += 1
        g = np.asarray(grad, dtype=float)
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        vhat = self.v / (1.0 - self.beta2**self.t)
        lr_t = self.lr
        if self.warmup > 0:
            lr_t *= min(1.0, self.t / self.warmup)
        self.z = self.z - lr_t * g / (np.sqrt(vhat) + self.eps)
        self._lr2_sum += lr_t * lr_t
        c = (lr_t * lr_t / self._lr2_sum) if self._lr2_sum > 0 else 1.0
        self.x = (1.0 - c) * self.x + c * self.z
        return self.params()


class Adam:
    """Plain Adam, kept as an ablation fallback for coefficient training."""

    def __init__(self, init_params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.x = np.array(init_params, dtype=float, copy=True)
        self.m = np.zeros_like(self.x)
        self.v = np.zeros_like(self.x)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def eval_point(self) -> np.ndarray:
        return self.x.copy()

    def params(self) -> np.ndarray:
        return self.x.copy()

    def step(self, grad) -> np.ndarray:
        self.t += 1
        g = np.asarray(grad, dtype=float)
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        self.x = self.x - self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return self.params()
