"""Reference kernel timed around each measured pass, to take machine speed out of timings.

On a shared machine the CPU's speed drifts by 10-50% over seconds to
minutes (in CPU time as much as in wall time), so raw pass times of the
same code differ more from run to run than any bound a regression check
can use. Each timed pass is bracketed by runs of this fixed kernel, which
never touches ``lle``. A pass's time divided by the mean of the two kernel
times around it is its cost in kernel units, and ``REFERENCE_S`` turns that
back into seconds at a fixed reference speed. A change to the program moves
the pass time but not the kernel's, so it shows in full.

The kernel does the program's kind of work: it evaluates the score of a
Gaussian mixture (Cholesky factors, triangular solves, responsibilities) at
d=32, K=4, for a batch of 50 rows and for single rows, so small LAPACK
calls, element-wise NumPy calls and interpreted Python between them. NumPy is
imported on first use, so importing this module does not shorten the
measured set-up.
"""

from __future__ import annotations

import time

ITERATIONS = 25
# The kernel's median time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3, NumPy with OpenBLAS pinned to one thread).
REFERENCE_S = 0.08

DIM, COMPONENTS, BATCH = 32, 4, 50

_state = {}


def _inputs():
    import numpy as np

    if not _state:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((COMPONENTS, DIM, DIM)) / np.sqrt(DIM)
        _state["covs"] = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(DIM)
        _state["means"] = rng.standard_normal((COMPONENTS, DIM))
        _state["x"] = rng.standard_normal((BATCH, DIM))
    return _state


def _mixture_score(x, covs, means, level):
    """Score of a Gaussian mixture at noise level `level`, for each row of x."""
    import numpy as np

    eye = np.eye(DIM)
    u = np.empty((COMPONENTS,) + x.shape)
    logp = np.empty((x.shape[0], COMPONENTS))
    for k in range(COMPONENTS):
        chol = np.linalg.cholesky((1.0 - level) * covs[k] + level * eye)
        z = np.linalg.solve(chol, (x - means[k]).T)
        u[k] = np.linalg.solve(chol.T, z).T
        logp[:, k] = -np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(z * z, axis=0)
    r = np.exp(logp - logp.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    return -np.einsum("bk,kbd->bd", r, u)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    inputs = _inputs()
    covs, means, x = inputs["covs"], inputs["means"], inputs["x"]
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(ITERATIONS):
        level = 0.01 + 0.98 * i / ITERATIONS
        acc += float(_mixture_score(x, covs, means, level).sum())  # a batch of rows
        for row in x[:8]:  # and single rows
            acc += float(_mixture_score(row[None, :], covs, means, level).sum())
    seconds = time.perf_counter() - t0
    if acc != acc:  # NaN: the kernel's inputs broke, so its time means nothing
        raise ArithmeticError("reference kernel produced NaN")
    return seconds


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
