"""Explicitly parameterized subharmonic and delta-subharmonic functions.

A subharmonic model is a harmonic part (the real part of a complex polynomial
for d=2, an affine function for d>=3: one kind per dimension) plus the kernel
potential of a positive measure from the measures module,

    u(x) = harmonic(x) + integral k(|x - y|) d nu(y),

so its Riesz measure equals nu by construction and never has to be extracted
by distributional differentiation.  The model's dimension is nu's:
SubharmonicFn(harmonic, riesz) takes no d of its own.  A delta-subharmonic
function is a pair U = u - v; its Riesz charge is nu_u - nu_v, and the Jordan
parts are obtained by cancelling coincident atoms / identical continuous
components.

The logarithm of the modulus of a rational-type meromorphic function
f = c e^{p} prod (z-a_i)^{m_i} / prod (z-b_j)^{n_j} is the d=2 bridge case:
log|f| = ln|c| + Re p + sum m_i ln|z-a_i| - sum n_j ln|z-b_j|.

The kernel potential of a measure is the sum, in component order, of the
closed-form potentials its components carry (Atom.potential,
UniformSegment.potential, UniformArc.potential, UniformBall.potential in the
measures module), each in its own dimension; each point's value depends on
that point alone.

Points are (n, d) arrays, row-major or column-major: the grid builders hand
out column-major ones (np.empty((d, n)).T), so each coordinate is one
contiguous column; distances are squared in place in one column-major
temporary (geometry._distances), and sums accumulate in place.
DeltaSubharmonicFn.values_with_polar evaluates more than _BLOCK points _BLOCK
rows at a time, so that a block's temporaries stay in cache.  Both are sound
only because every potential and harmonic part acts node by node: a point's
value is the same floats whatever the layout of its array and whatever
other points share its call, and any new potential must keep that.

Pointwise evaluation of U follows the extended-real conventions; the one
undefined case (-inf) - (-inf) -- x in the polar set of both parts -- is
reported by values_with_polar's polar mask, which positive_values maps to 0
(polar sets are mu-null for every Dini-admissible mu).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .geometry import _distances, _dots
from .measures import (
    Atom,
    BorelMeasure,
    UniformArc,
    UniformBall,
    UniformSegment,
    UnsupportedModelError,
)

__all__ = [
    "AffineHarmonic",
    "DeltaSubharmonicFn",
    "HarmonicPolynomial",
    "MeromorphicFn",
    "SubharmonicFn",
    "UnsupportedModelError",
    "canonical_representation",
    "jordan_decomposition",
    "potential_values",
]

_BLOCK = 8192  # rows per block of a large values_with_polar call


@dataclass(frozen=True)
class HarmonicPolynomial:
    """Re p(z) for a complex polynomial p, coefficients low-to-high (d=2)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not all(map(cmath.isfinite, self.coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {self.coeffs!r}")

    @property
    def dim(self) -> int:
        return 2

    def values(self, pts: np.ndarray) -> np.ndarray:
        z = 1j * pts[:, 1]
        z += pts[:, 0]
        acc = np.zeros_like(z)
        for c in reversed(self.coeffs):
            # Horner: the product stays out of place, as numpy's in-place
            # complex product rounds differently on one-element arrays
            acc = acc * z
            acc += c
        return acc.real

    def __add__(self, other: "HarmonicPolynomial") -> "HarmonicPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return HarmonicPolynomial(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "HarmonicPolynomial":
        return HarmonicPolynomial(tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class AffineHarmonic:
    """constant + gradient . x in d >= 3; in d = 2 the same function is
    HarmonicPolynomial((constant, g0 - i g1))."""

    constant: float
    gradient: tuple

    def __post_init__(self):
        object.__setattr__(self, "gradient", tuple(float(g) for g in self.gradient))
        object.__setattr__(self, "constant", float(self.constant))
        if not all(map(math.isfinite, (self.constant,) + self.gradient)):
            raise ValueError(f"affine coefficients must be finite, got {self.constant!r}, "
                             f"{self.gradient!r}")
        if len(self.gradient) < 3:
            raise ValueError("affine harmonic parts need d >= 3; in d = 2 use "
                             "HarmonicPolynomial((constant, g0 - i g1))")

    @property
    def dim(self) -> int:
        return len(self.gradient)

    def values(self, pts: np.ndarray) -> np.ndarray:
        # columns summed left to right, not by a BLAS product, so each
        # point's value is the same floats whatever shares its call
        g = self.gradient
        total = pts[:, 0] * g[0]
        total += self.constant
        for k in range(1, len(g)):
            total += pts[:, k] * g[k]
        return total

    def __add__(self, other: "AffineHarmonic") -> "AffineHarmonic":
        return AffineHarmonic(self.constant + other.constant,
                              tuple(x + y for x, y in zip(self.gradient, other.gradient)))

    def __neg__(self) -> "AffineHarmonic":
        return AffineHarmonic(-self.constant, tuple(-g for g in self.gradient))


HarmonicPart = Union[HarmonicPolynomial, AffineHarmonic]


def _combine_harmonics(a: Optional[HarmonicPart],
                       b: Optional[HarmonicPart]) -> Optional[HarmonicPart]:
    """a - b of two harmonic parts of one kind, None standing for 0."""
    if b is None:
        return a
    return -b if a is None else a + (-b)


def potential_values(measure: BorelMeasure, pts: np.ndarray) -> np.ndarray:
    """Kernel potential integral k(|x - y|) d nu(y) at each row of pts, in
    the measure's dimension."""
    pts = np.asarray(pts, dtype=float)
    total = np.zeros(pts.shape[0])
    for comp in measure.components:
        total += comp.potential(pts)
    return total


# ---------------------------------------------------------------------------
# the function models


@dataclass(frozen=True)
class SubharmonicFn:
    """harmonic part + kernel potential of a positive measure (its Riesz mass),
    in the measure's dimension."""

    harmonic: Optional[HarmonicPart]
    riesz: BorelMeasure

    def __post_init__(self):
        if self.harmonic is not None and self.harmonic.dim != self.dim:
            raise ValueError(f"harmonic part has dimension {self.harmonic.dim}, "
                             f"its Riesz measure {self.dim}")

    @property
    def dim(self) -> int:
        return self.riesz.dim

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = potential_values(self.riesz, pts)
        if self.harmonic is not None:
            out += self.harmonic.values(pts)
        return out


@dataclass(frozen=True)
class DeltaSubharmonicFn:
    """U = u - v for two subharmonic models of the same dimension."""

    u: SubharmonicFn
    v: SubharmonicFn

    def __post_init__(self):
        if self.u.dim != self.v.dim:
            raise ValueError("u and v must share a dimension")

    @property
    def dim(self) -> int:
        return self.u.dim

    @cached_property
    def _jordan(self):
        """jordan_decomposition(self), computed on first use and then shared."""
        return _jordan_parts(self)

    def values_with_polar(self, pts: np.ndarray):
        """(U values, polar mask); entries under the mask are meaningless.
        More than _BLOCK points are evaluated _BLOCK rows at a time."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[0]
        if n <= _BLOCK:
            return self._block_values(pts)
        vals, polar = np.empty(n), np.empty(n, dtype=bool)
        for i in range(0, n, _BLOCK):
            vals[i:i + _BLOCK], polar[i:i + _BLOCK] = self._block_values(pts[i:i + _BLOCK])
        return vals, polar

    def _block_values(self, pts: np.ndarray):
        """values_with_polar of at most _BLOCK points."""
        vals = self.u.values(pts)
        vv = self.v.values(pts)
        polar = np.isneginf(vals) & np.isneginf(vv)
        with np.errstate(invalid="ignore"):
            vals -= vv
        np.copyto(vals, np.nan, where=polar)
        return vals, polar

    def values(self, pts: np.ndarray) -> np.ndarray:
        """U at each point with NaN marking polar points (use values_with_polar
        to distinguish)."""
        return self.values_with_polar(pts)[0]

    def positive_values(self, pts: np.ndarray) -> np.ndarray:
        """U^+ with the polar marker mapped to 0."""
        vals, polar = self.values_with_polar(pts)
        with np.errstate(invalid="ignore"):
            np.maximum(vals, 0.0, out=vals)
        np.copyto(vals, 0.0, where=polar)
        return vals


# ---------------------------------------------------------------------------
# meromorphic bridge


@dataclass(frozen=True)
class MeromorphicFn:
    """f = unit_factor * e^{p} * prod (z - a_i)^{m_i} / prod (z - b_j)^{n_j}."""

    zeros: tuple = ()
    poles: tuple = ()
    unit_factor: complex = 1.0 + 0j
    exponent: tuple = ()

    def __post_init__(self):
        zeros = tuple((complex(a), int(m)) for a, m in self.zeros)
        poles = tuple((complex(b), int(n)) for b, n in self.poles)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "unit_factor", complex(self.unit_factor))
        object.__setattr__(self, "exponent", tuple(complex(c) for c in self.exponent))
        if not all(map(cmath.isfinite, [a for a, _ in zeros + poles]
                       + [self.unit_factor, *self.exponent])):
            raise ValueError("zeros, poles, unit factor and exponent must be finite")
        if self.unit_factor == 0:
            raise ValueError("unit factor must be nonzero")
        if any(m < 1 for _, m in zeros) or any(n < 1 for _, n in poles):
            raise ValueError("multiplicities must be >= 1")
        zset = {a for a, _ in zeros}
        pset = {b for b, _ in poles}
        if zset & pset:
            raise ValueError("zeros and poles must be disjoint")
        if len(self.exponent) > 5:
            raise ValueError("entire exponent restricted to degree <= 4")

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        """ln|f| vectorized over complex z (stable log-sum form)."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=float)
        if self.exponent:
            p = np.zeros_like(z)
            for c in reversed(self.exponent):
                p = p * z + c
            acc = acc + p.real
        acc = acc + math.log(abs(self.unit_factor))
        with np.errstate(divide="ignore"):
            for a, m in self.zeros:
                acc = acc + m * np.log(np.abs(z - a))
            for b, n in self.poles:
                acc = acc - n * np.log(np.abs(z - b))
        return acc

    def pole_count(self, r: float) -> int:
        """n(r, f): poles in the closed disk of radius r, with multiplicity."""
        return sum(n for b, n in self.poles if abs(b) <= r)

    def to_delta_subharmonic(self) -> DeltaSubharmonicFn:
        """log|f| as u - v: the same model on every call for one f."""
        return self._log_abs_model

    @cached_property
    def _log_abs_model(self) -> DeltaSubharmonicFn:
        """to_delta_subharmonic(), built on first use and then shared."""
        zero_atoms = tuple(Atom((a.real, a.imag), float(m)) for a, m in self.zeros)
        pole_atoms = tuple(Atom((b.real, b.imag), float(n)) for b, n in self.poles)
        coeffs = list(self.exponent) if self.exponent else [0j]
        coeffs[0] = coeffs[0] + math.log(abs(self.unit_factor))
        u = SubharmonicFn(HarmonicPolynomial(tuple(coeffs)), BorelMeasure(zero_atoms, 2))
        v = SubharmonicFn(None, BorelMeasure(pole_atoms, 2))
        return DeltaSubharmonicFn(u, v)


# ---------------------------------------------------------------------------
# Jordan decomposition and canonical representation


def _cross_norm(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 2:
        return abs(float(a[0] * b[1] - a[1] * b[0]))
    return float(_distances(np.cross(a, b), 0.0))


def _positively_overlapping(a, b) -> bool:
    """Whether two continuous components share carrier mass (same Hausdorff
    dimension on an overlapping carrier); measure-zero contact is fine."""
    if isinstance(a, UniformSegment) and isinstance(b, UniformSegment):
        pa, ea = np.asarray(a.start), np.asarray(a.end) - np.asarray(a.start)
        pb, eb = np.asarray(b.start), np.asarray(b.end) - np.asarray(b.start)
        na, off = float(_distances(ea, 0.0)), pb - pa
        if _cross_norm(ea, eb) > 1e-12 * na * float(_distances(eb, 0.0)):
            return False
        if _cross_norm(ea, off) > 1e-12 * na * max(1.0, float(_distances(off, 0.0))):
            return False
        s0 = float(_dots(off, ea) / _dots(ea, ea))
        s1 = float(_dots(off + eb, ea) / _dots(ea, ea))
        lo, hi = min(s0, s1), max(s0, s1)
        return min(hi, 1.0) - max(lo, 0.0) > 1e-12
    if isinstance(a, UniformArc) and isinstance(b, UniformArc):
        if _distances(a.center, b.center) > 1e-12 * max(1.0, a.radius) or \
                abs(a.radius - b.radius) > 1e-12 * max(1.0, a.radius):
            return False
        rel = (b.angle_start - a.angle_start) % (2.0 * math.pi)
        return rel < a.width - 1e-12 or rel + b.width > 2.0 * math.pi + 1e-12
    if isinstance(a, UniformBall) and isinstance(b, UniformBall):
        return bool(_distances(a.center, b.center) < a.radius + b.radius - 1e-12)
    return False  # different carriers intersect in measure zero


def jordan_decomposition(U: DeltaSubharmonicFn):
    """(charge^+, charge^-) with mutually singular supports.

    Coincident atoms and identical continuous components cancel by weight;
    continuous components that overlap only partially cannot be decomposed
    exactly and raise UnsupportedModelError.  The pair is computed once per
    U: every later call returns the same two measures.
    """
    return U._jordan


def _jordan_parts(U: DeltaSubharmonicFn):
    net: dict = {}  # the component at unit weight -> its net weight
    for sub, sign in ((U.u, 1.0), (U.v, -1.0)):
        for comp in sub.riesz.components:
            key = replace(comp, weight=1.0)
            net[key] = net.get(key, 0.0) + sign * comp.weight
    pos, neg = [], []
    for key, w in net.items():
        if w > 1e-300:
            pos.append(replace(key, weight=w))
        elif w < -1e-300:
            neg.append(replace(key, weight=-w))
    for p in pos:
        for q in neg:
            if _positively_overlapping(p, q):
                raise UnsupportedModelError(
                    "continuous charge components overlap partially; "
                    "exact Jordan decomposition is unavailable")
    dim = U.dim
    return BorelMeasure(tuple(pos), dim), BorelMeasure(tuple(neg), dim)


def canonical_representation(U: DeltaSubharmonicFn):
    """(u*, v*) with Riesz measures charge^+ / charge^- and u* - v* = U off
    polar sets; the shared harmonic remainder goes to u*."""
    plus, minus = jordan_decomposition(U)
    harmonic = _combine_harmonics(U.u.harmonic, U.v.harmonic)
    return SubharmonicFn(harmonic, plus), SubharmonicFn(None, minus)
