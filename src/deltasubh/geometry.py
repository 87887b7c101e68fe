"""The radial kernel, the reduced dimension, and the one extended-real product.

The dimension d >= 2 belongs to the objects that carry it (a measure, its
components, a function model); where a formula takes a bare d, it is
checked once here (_check_dimension), as a DIMENSION ScenarioError: the
coded ValueError lives in this bottom module, so each constructor that states
a hypothesis raises its own code.  The reduced dimension is d_hat =
max(1, d-2) (_d_hat), and the strictly increasing kernel is

    k(t) = ln t        (d = 2)
    k(t) = -t^{2-d}    (d > 2),      k(0) = -inf.

Extended reals are plain IEEE floats with +-inf.  ext_mul takes 0 * inf = 0,
the convention of h(t) k(t) at t = 0 (measures.dini_limits_check) and of
the counting lemma's right-hand side (lab.verify_counting_lemma).  A NaN cannot fake a passing inequality: every
constructor of a measure component, function model and scenario rejects a
non-finite number, and lab._verdict turns a NaN slack into "inconclusive".

Every inner product in the package is _dots and every distance between two
points is _distances, both adding their terms left to right.  No BLAS
reduction is used, so such a sum is the same floats whatever shares its
call and whatever kernel the machine's BLAS picks (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 4), and a distance is the same
floats whether its point comes as a tuple or an array row.  The one
exception is math.hypot(*p), the norm of a component's own stored point
(its outer radius, the arc's rounding scale), computed that way only.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

__all__ = ["ScenarioError", "ext_mul", "kernel"]


def ext_mul(x: float, y: float) -> float:
    """x * y on the extended reals, with 0 * (+-inf) = 0."""
    if (x == 0.0 and math.isinf(y)) or (y == 0.0 and math.isinf(x)):
        return 0.0
    return x * y


class ScenarioError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def _check_dimension(d) -> int:
    """d, or a DIMENSION ScenarioError unless d is an integer >= 2."""
    if not isinstance(d, int) or d < 2:
        raise ScenarioError("DIMENSION", f"dimension must be an integer >= 2, got {d!r}")
    return d


def _d_hat(d: int) -> int:
    """The reduced dimension d_hat = max(1, d-2) = 1 + (d-3)^+."""
    return max(1, _check_dimension(d) - 2)


ArrayLike = Union[float, np.ndarray]


def kernel(d: int, t: ArrayLike) -> ArrayLike:
    """The radial kernel k_{d-2}: ln t for d=2, -t^{2-d} for d>2, k(0) = -inf.

    Accepts a scalar or an ndarray of radii t >= 0; negative t is a domain
    error.  Strictly increasing on [0, inf).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("kernel argument must be >= 0")
    out = _kernel_values(_check_dimension(d), arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def _dots(a, b):
    """sum_k a[..., k] b[..., k] over the last axis, b broadcasting against
    a, with the terms added left to right: a 1-d a gives a scalar, an (n, d)
    one n sums.  Each sum is the same floats whatever shares its call.
    Coordinates (2 or 3 terms) are added column by column over all rows,
    which is 4 to 7 times faster there than np.cumsum (2,049 rows of 2:
    8.9 against 64 us; of 3: 15 against 69 us; numpy 2.4.6 on an Intel
    Xeon); a longer axis, a rule's weights, by np.cumsum, which also adds
    left to right and takes one call whatever the length."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    if n > 3:
        return np.cumsum(a * b, axis=-1)[..., -1]
    if not n:  # the empty sum
        return np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1])
    total = a[..., 0] * b[..., 0]
    for k in range(1, n):
        total = total + a[..., k] * b[..., k]
    return total


def _distances(pts: np.ndarray, p) -> np.ndarray:
    """|x - p| at each row x of an (n, d) array (p = 0.0 gives the row
    norms; a p of shape (m, 1, d) or (m, n, d) gives an (m, n) array; a
    1-d pts gives a scalar): np.sqrt(_dots(v, v)) for v = pts - p, from one
    column-major buffer of v squared in place, its columns added into the
    first, so every step runs on contiguous columns whatever the layout of
    pts and only the root is a second array."""
    v = np.subtract(pts, p, order="F")
    v *= v
    total = v[..., 0]
    for k in range(1, v.shape[-1]):
        total += v[..., k]
    return np.sqrt(total)


def _kernel_values(d: int, arr: np.ndarray) -> np.ndarray:
    """kernel on an array of radii already known to be >= 0 (distances)."""
    return _kernel_in_place(d, np.array(arr, dtype=float))


def _kernel_in_place(d: int, arr: np.ndarray) -> np.ndarray:
    """_kernel_values written over arr, an ndarray of float radii >= 0: the
    same floats, as numpy's log and power take the same loop in place."""
    with np.errstate(divide="ignore"):  # k(0) = -inf
        if d == 2:
            return np.log(arr, out=arr)
        arr **= float(2 - d)  # -1.0 is numpy's exact reciprocal, as in arr ** -1.0
    return np.negative(arr, out=arr)
