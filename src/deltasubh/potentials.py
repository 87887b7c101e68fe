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
components.  Whether a positive and a negative component left over share
carrier mass, which no exact decomposition survives, is asked of their
kind (overlaps in the measures module); the carriers of two different kinds
meet in a set of measure zero.

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
contiguous column.  U is evaluated in place wherever that keeps the floats:
each of u and v is one array, into which its potential's terms are added in
component order and then its harmonic part.  An atom's term costs one
column-major buffer (geometry._distances: each coordinate's difference
squared in place, the columns added into the first) and its root, which
takes the kernel, and the weight when it is not 1, in place
(Atom.potential).  Only the atom's k(0) = -inf and the polar
(-inf) - (-inf) are kept from warning; any other warning reaches the caller.
The polar mask is (u == -inf) & (v == -inf), taken in place; Horner's rule
(_horner) starts from the leading coefficient, and a constant polynomial
builds no complex z; log_abs takes each zero and pole through one complex
and one real buffer.  Each step keeps the one-point formula's operations
and their order, so every value is the same floats as a one-point call (a
test compares them bit for bit).
values_with_polar evaluates more than _BLOCK points _BLOCK rows at a time, so
that a block's buffers stay in cache, and the ball rule (lab._ball_integral)
and the d = 3 sphere mean (quadrature._sphere_means_3d) ask for at most
_BLOCK points a call, read at call time, unless one circle of their grid
holds more, and hold one call's samples at a time.  Both are
sound only because every potential and harmonic part acts node by node: a
point's value is the same floats whatever the layout of its array and
whatever other points share its call, and any new potential must keep that.

Pointwise evaluation of U follows the extended-real conventions; the one
undefined case (-inf) - (-inf) -- x in the polar set of both parts -- is
reported by values_with_polar's polar mask, which positive_values maps to 0
(polar sets are mu-null for every Dini-admissible mu).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .measures import Atom, BorelMeasure

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


class UnsupportedModelError(ValueError):
    """The charge configuration falls outside the exactly-decomposable family."""


def _negative_zero(c: complex) -> bool:
    """Whether the real or the imaginary part of c is -0.0."""
    return any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in (c.real, c.imag))


def _horner(coeffs: tuple, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k at each finite z, by Horner's rule from the
    leading coefficient: the same floats as from 0, since the first step
    0 z + c is c, unless a part of c is -0.0, whose sign of zero the signs
    of z then pick, so such a c starts from 0, as does the empty sum."""
    if coeffs and not _negative_zero(coeffs[-1]):
        low, top = coeffs[:-1], coeffs[-1]
    else:
        low, top = coeffs, 0j
    acc = np.full(z.shape, top, dtype=complex)
    for c in reversed(low):
        # the product stays out of place, as numpy's in-place complex
        # product rounds differently on one-element arrays
        acc = acc * z
        acc += c
    return acc


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
        if len(self.coeffs) == 1 and not _negative_zero(self.coeffs[0]):
            # _horner's c without building z: bench/run.py corpus wall_s about 2 % lower
            return np.full(pts.shape[0], self.coeffs[0].real)
        z = 1j * pts[:, 1]
        z += pts[:, 0]
        return _horner(self.coeffs, z).real

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


class _Split(NamedTuple):
    """F = rest + sum_j weights[j] k(|x - points[j]|), with rest (points ->
    values) F without its charge atoms: smooth about them, no cancellation.
    poly holds p, low to high, with rest = Re p(z) where F is planar atomic
    (its model is characteristics._Planar; () for p = 0), and is None
    otherwise (continuous charges, d = 3).  A model's split is built once,
    on first use (its cached _split), and shared by every caller, so its
    arrays are read-only."""

    rest: Callable
    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), signed
    poly: Optional[tuple]


def _split_parts(F) -> _Split:
    """A SubharmonicFn, or a DeltaSubharmonicFn with the atoms of u at +w and
    those of v at -w, split into its atoms and the rest."""
    parts = [(F, 1.0)] if isinstance(F, SubharmonicFn) else [(F.u, 1.0), (F.v, -1.0)]
    atoms = [(a.point, sign * a.weight) for sub, sign in parts for a in sub.riesz.atoms]
    bare = [replace(sub, riesz=sub.riesz.continuous) for sub, _sign in parts]
    rest = bare[0] if len(bare) == 1 else DeltaSubharmonicFn(*bare)
    poly = None
    if F.dim == 2 and not any(sub.riesz.components for sub in bare):
        harmonic = _combine_harmonics(bare[0].harmonic, bare[1].harmonic if bare[1:] else None)
        poly = () if harmonic is None else harmonic.coeffs
    points = np.array([p for p, _ in atoms], dtype=float).reshape(-1, F.dim)
    weights = np.array([w for _, w in atoms], dtype=float)
    points.flags.writeable = weights.flags.writeable = False
    return _Split(rest.values, points, weights, poly)


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

    _split = cached_property(_split_parts)

    def values(self, pts: np.ndarray) -> np.ndarray:
        return self._values(np.atleast_2d(np.asarray(pts, dtype=float)))

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """values at the rows of a 2-d float array."""
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

    _split = cached_property(_split_parts)

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
        """values_with_polar of at most _BLOCK rows of a 2-d float array."""
        vals = self.u._values(pts)
        vv = self.v._values(pts)
        polar = vals == -np.inf
        polar &= vv == -np.inf
        with np.errstate(invalid="ignore"):  # (-inf) - (-inf) at a polar point
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


def _multiplicity(m) -> int:
    """m as an int; a bool or a non-integral m, which int() reads or truncates,
    raises, and so does one too large for a float, an atom's weight."""
    if isinstance(m, bool) or int(m) != m or abs(m) > sys.float_info.max:
        raise ValueError(f"multiplicities must be integers that fit a float, got {m!r}")
    return int(m)


@dataclass(frozen=True)
class MeromorphicFn:
    """f = unit_factor * e^{p} * prod (z - a_i)^{m_i} / prod (z - b_j)^{n_j}."""

    zeros: tuple = ()
    poles: tuple = ()
    unit_factor: complex = 1.0 + 0j
    exponent: tuple = ()

    def __post_init__(self):
        zeros = tuple((complex(a), _multiplicity(m)) for a, m in self.zeros)
        poles = tuple((complex(b), _multiplicity(n)) for b, n in self.poles)
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
            acc += _horner(self.exponent, z).real
        acc += math.log(abs(self.unit_factor))
        diff, term = np.empty_like(z), np.empty(z.shape)

        def log_term(a, m):  # m ln|z - a| in the two buffers
            np.log(np.abs(np.subtract(z, a, out=diff), out=term), out=term)
            return term if m == 1 else np.multiply(term, m, out=term)  # 1 * x is x

        with np.errstate(divide="ignore"):
            for a, m in self.zeros:
                acc += log_term(a, m)
            for b, n in self.poles:
                acc -= log_term(b, n)
        return acc

    def pole_count(self, r: float) -> int:
        """n(r, f): poles in the closed disk of radius r, with multiplicity."""
        return sum(n for b, n in self.poles if abs(b) <= r)

    def to_delta_subharmonic(self) -> DeltaSubharmonicFn:
        """log|f| as u - v: the same model on every call for one f."""
        return self._log_abs_model

    @cached_property
    def _rest_coeffs(self) -> tuple:  # p, low to high: ln|f| = Re p + its zeros' and poles' terms
        head = self.exponent[0] if self.exponent else 0j
        return (head + math.log(abs(self.unit_factor)),) + self.exponent[1:]

    @cached_property
    def _log_abs_model(self) -> DeltaSubharmonicFn:
        """to_delta_subharmonic(), built on first use and then shared."""
        zero_atoms = tuple(Atom((a.real, a.imag), float(m)) for a, m in self.zeros)
        pole_atoms = tuple(Atom((b.real, b.imag), float(n)) for b, n in self.poles)
        u = SubharmonicFn(HarmonicPolynomial(self._rest_coeffs), BorelMeasure(zero_atoms, 2))
        v = SubharmonicFn(None, BorelMeasure(pole_atoms, 2))
        return DeltaSubharmonicFn(u, v)


# ---------------------------------------------------------------------------
# Jordan decomposition and canonical representation


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
    # carriers of different kinds meet in measure zero; one kind asks its own
    if any(type(p) is type(q) and p.overlaps(q) for p in pos for q in neg):
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
