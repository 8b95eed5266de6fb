"""Observation operators in spectral (SVD) form, plus a smooth nonlinear operator.

Every linear operator is stored as A = U diag(s) V^T with orthonormal U, V
and strictly positive s; zero singular values are represented by omission,
so the null space is the orthogonal complement of the columns of V. This
makes pseudoinverse, range/null projections, and the coordinatewise
corrector algebra exact. The mask's factors are built exactly (V selects
coordinates, U = I, s = 1); every other linear operator is its matrix,
factored by the one SVD in `dense_operator`, exact to rounding. `OPERATORS` maps
each `task.operator` kind of a config to its forms, and `build_operator` builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import RngStream

_SVD_TOL = 1e-12


@dataclass(frozen=True, repr=False, eq=False)
class LinearOperator:
    n: int
    m: int
    V: np.ndarray  # (n, r) right singular vectors
    U: np.ndarray  # (m, r) left singular vectors
    s: np.ndarray  # (r,) positive singular values

    @property
    def r(self) -> int:
        return self.s.size

    def dense(self) -> np.ndarray:
        """Materialize A as an m x n matrix."""
        return (self.U * self.s) @ self.V.T


def apply(op: LinearOperator, x: np.ndarray) -> np.ndarray:
    """A x = U diag(s) V^T x, batched over the leading axis."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != op.n:
        raise ValueError(f"expected last dim {op.n}, got {x.shape[-1]}")
    return ((x @ op.V) * op.s) @ op.U.T


def apply_adjoint(op: LinearOperator, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != op.m:
        raise ValueError(f"expected last dim {op.m}, got {y.shape[-1]}")
    return ((y @ op.U) * op.s) @ op.V.T


def pinv_apply(op: LinearOperator, y: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse: A^+ y = V diag(1/s) U^T y."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != op.m:
        raise ValueError(f"expected last dim {op.m}, got {y.shape[-1]}")
    return ((y @ op.U) / op.s) @ op.V.T


def project(op: LinearOperator, x: np.ndarray, which: str) -> np.ndarray:
    """Range (V V^T x) or null (x - V V^T x) component of x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != op.n:
        raise ValueError(f"expected last dim {op.n}, got {x.shape[-1]}")
    rng = (x @ op.V) @ op.V.T
    if which == "range":
        return rng
    if which == "null":
        return x - rng
    raise ValueError(f"which must be 'range' or 'null', got {which!r}")


def check_sigma_y(sigma_y: float) -> None:
    """Raise ValueError unless sigma_y is a finite number >= 0 (NaN compares false)."""
    if not (math.isfinite(sigma_y) and sigma_y >= 0):
        raise ValueError(f"sigma_y must be a finite number >= 0, got {sigma_y}")


def observe(op, x, sigma_y: float, stream: RngStream | None = None) -> np.ndarray:
    """y = A(x) + sigma_y * n, n from a dedicated stream; exact, needing none, at sigma_y = 0."""
    check_sigma_y(sigma_y)
    if isinstance(op, NonlinearOperator):
        y = nl_apply(op, x)
    else:
        y = apply(op, x)
    if sigma_y > 0:
        if stream is None:
            raise ValueError(f"observe at sigma_y {sigma_y} > 0 needs a noise stream, got None")
        y = y + sigma_y * stream.standard_normal(y.shape)
    return y


def row_dot(a: np.ndarray) -> np.ndarray:
    """a . a over the last axis, one BLAS dot per row, as np.vdot on one row."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


@dataclass(frozen=True, repr=False, eq=False)
class Observation:
    """The data y = A(x) + sigma_y n of a run, with its operator and noise level. What a
    run computes from it once (U^T y and the norms of y) lives in `canonical.RunTables`."""

    y: np.ndarray
    op: object  # LinearOperator or NonlinearOperator
    sigma_y: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.y)):
            raise ValueError("observation contains non-finite entries")
        check_sigma_y(self.sigma_y)

    @property
    def is_linear(self) -> bool:
        return isinstance(self.op, LinearOperator)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _hadamard(n: int) -> np.ndarray:
    """Sylvester Walsh-Hadamard matrix; H^T H = n I exactly in integers."""
    if n & (n - 1) != 0 or n < 1:
        raise ConfigError(f"hadamard size {n} is not a power of two")
    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def mask_operator(n: int, keep_indices) -> LinearOperator:
    keep = np.asarray(sorted(keep_indices), dtype=int)
    if keep.size == 0:
        raise ConfigError("mask must keep at least one coordinate")
    if keep.min() < 0 or keep.max() >= n:
        raise ConfigError("mask indices out of range")
    if np.any(keep[1:] == keep[:-1]):  # a repeat gives V equal, not orthonormal, columns
        raise ConfigError("mask indices must be distinct")
    r = keep.size
    V = np.zeros((n, r))
    V[keep, np.arange(r)] = 1.0
    return LinearOperator(n=n, m=r, V=V, U=np.eye(r), s=np.ones(r))


def _kept(n: int, keep_ratio: float) -> int:
    """round(keep_ratio * n), the coordinates or rows a keep_ratio keeps; none is an error."""
    k = round(keep_ratio * n)
    if k == 0:
        raise ConfigError(f"keep_ratio {keep_ratio} keeps none of the {n} coordinates")
    return k


def random_mask_operator(n: int, keep_ratio: float, seed: int) -> LinearOperator:
    """Random mask keeping round(keep_ratio * n) coordinates, seeded."""
    k = _kept(n, keep_ratio)
    perm = RngStream(seed, stream_id=701).permutation(n)
    return mask_operator(n, perm[:k])


def avgpool_operator(n: int, factor: int) -> LinearOperator:
    if n % factor != 0:
        raise ConfigError(f"n={n} not divisible by pooling factor {factor}")
    return dense_operator(np.kron(np.eye(n // factor), np.full(factor, 1.0 / factor)))


def _fits(n: int, key: str, length: int) -> None:
    """Reject a kernel that `_circ_conv` would wrap onto itself, naming its config key."""
    if length > n:
        said = f"{length} is" if key == "width" else f"has length {length},"
        raise ConfigError(f"task.operator.{key} {said} longer than the signal ({n})")


def blur_operator(n: int, kernel) -> LinearOperator:
    """Symmetric circular blur: the matrix of x -> _circ_conv(kernel, x)."""
    kernel = np.asarray(kernel, dtype=float)
    if kernel.size % 2 != 1:
        raise ConfigError("blur kernel length must be odd")
    if not np.allclose(kernel, kernel[::-1]):
        raise ConfigError("blur kernel must be symmetric about its center")
    _fits(n, "kernel", kernel.size)
    return dense_operator(_circ_conv(kernel, np.eye(n)).T)  # row j of the blurred I is A e_j


def gaussian_kernel(width: int, sigma: float) -> np.ndarray:
    """Odd-length normalized Gaussian kernel for the blur operator."""
    if width % 2 != 1:
        raise ConfigError("kernel width must be odd")
    x = np.arange(width) - width // 2
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur_operator(n: int, sigma: float, width: int) -> LinearOperator:
    """The blur by gaussian_kernel(width, sigma); the kernel is width long, so a width
    past the signal is named as the config key that sets it."""
    kernel = gaussian_kernel(width, sigma)
    _fits(n, "width", width)
    return blur_operator(n, kernel)


def hadamard_operator(n: int, keep_ratio: float, seed: int) -> LinearOperator:
    """Selected rows of the normalized Walsh-Hadamard matrix H_n / sqrt(n)."""
    H = _hadamard(n)
    k = _kept(n, keep_ratio)
    rows = np.sort(RngStream(seed, stream_id=702).permutation(n)[:k])
    return dense_operator(H[rows] / math.sqrt(n))


def dense_operator(matrix) -> LinearOperator:
    A = np.asarray(matrix, dtype=float)
    m, n = A.shape
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > _SVD_TOL
    return LinearOperator(n=n, m=m, V=Vt[keep].T, U=U[:, keep], s=s[keep])


def nonlinear_operator(n: int, kernel, scale: float, key: str = "kernel") -> "NonlinearOperator":
    """The nonlinear operator on size-n signals; key names what set the kernel's length."""
    op = NonlinearOperator(np.asarray(kernel, dtype=float), scale)
    _fits(n, key, op.kernel.size)
    return op


# kind -> its forms, each the key whose being given selects it (None: the form when no
# key selects another) -> (every other key it reads, at its default, build(n, **keys))
OPERATORS = {
    "mask": {"keep_indices": ({}, mask_operator),
             "keep_ratio": ({"seed": 0}, random_mask_operator)},
    "avgpool": {"factor": ({}, avgpool_operator)},
    "blur": {"kernel": ({}, blur_operator), "sigma": ({"width": 9}, gaussian_blur_operator)},
    "hadamard": {"keep_ratio": ({"seed": 0}, hadamard_operator)},
    "dense": {"matrix": ({}, lambda n, matrix: dense_operator(matrix))},
    "nonlinear": {"kernel": ({"scale": 1.0}, nonlinear_operator),
                  None: ({"width": 5, "sigma": 1.0, "scale": 1.0}, lambda n, width, sigma, scale:
                         nonlinear_operator(n, gaussian_kernel(width, sigma), scale, "width"))},
}


def build_operator(n: int, spec: dict):
    """The operator on size-n signals of a config-style spec (see `harness.OperatorSpec`):
    its kind's form whose key spec gives, else the one under None, reading each key at
    spec's value, or at its default where spec has none or None."""
    forms = OPERATORS.get(spec.get("kind"))
    if forms is None:
        raise ConfigError(f"unknown operator kind {spec.get('kind')!r}")
    given = {key: value for key, value in spec.items() if value is not None}
    select = next(key for key in forms if key in given or key is None)
    reads, build = forms[select]
    return build(n, **{**reads, **{key: given[key] for key in (select, *reads) if key in given}})


# ---------------------------------------------------------------------------
# nonlinear operator: y = tanh(c * (K (*) x)) with a symmetric circular kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False, eq=False)
class NonlinearOperator:
    kernel: np.ndarray
    scale: float

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.size % 2 != 1:
            raise ConfigError("kernel length must be odd")
        if not np.allclose(k, k[::-1]):
            raise ConfigError("kernel must be symmetric")
        if abs(k.sum() - 1.0) > 1e-12:
            raise ConfigError("kernel must be normalized to sum 1")
        if self.scale <= 0:
            raise ConfigError("scale must be positive")


def _circ_conv(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circular convolution along the last axis; kernel centered."""
    n = x.shape[-1]
    half = kernel.size // 2
    out = np.zeros_like(x, dtype=float)
    for offset in range(-half, half + 1):
        out += kernel[half + offset] * np.roll(x, -offset, axis=-1)
    return out


def nl_apply(nlop: NonlinearOperator, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.tanh(nlop.scale * _circ_conv(np.asarray(nlop.kernel), x))


def nl_vjp(nlop: NonlinearOperator, x: np.ndarray, v: np.ndarray, fx=None) -> np.ndarray:
    """v^T (d nl_apply/dx); the symmetric kernel makes correlation = convolution.

    fx: nl_apply(nlop, x), when the caller already has it.
    """
    y = nl_apply(nlop, x) if fx is None else fx
    return _circ_conv(np.asarray(nlop.kernel), nlop.scale * (1.0 - y * y) * np.asarray(v))
