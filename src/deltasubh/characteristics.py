"""Scalar functionals: spherical means, circle sups, and the classical and
difference Nevanlinna characteristics.

For a delta-subharmonic U, the difference characteristic comes in two
independently computed forms that serve as each other's oracle:

    definition form   T_U(r, R) = C_{U^+}(R) + N_{charge^-}(r, R)
    canonical form    T_U(r, R) = C_{max(u*, v*)}(R) - C_{v*}(r)

where (u*, v*) is the canonical representation.  Their numerical agreement is
a check of the Poisson-Jensen-Privalov identity
C_{v*}(R) - C_{v*}(r) = N_{charge^-}(r, R) on the model family.

For meromorphic f the classical quantities m, N, T are tied to the
delta-subharmonic ones by the bridge identities: m(r,f) = C over the circle
of ln^+|f|, N(R,f) - N(r,f) = N_{charge^-}(r,R), and
T(R,f) - N(r,f) = T_{log|f|}(r,R).

Every charge atom's kernel term is taken in closed form (_split), so
quadrature sees only the rest.  Along a path -- a segment or arc component
of a measure (lab), or the circle |x| = r as a full arc (_circle) -- whose
span, at, feet and kernel_integrals it reads, _integral_by_sign integrates
the rest over the pieces where the sign of U is constant, ended at Illinois
roots (_sign_changes) so a kink of U^+ is a panel edge, in one
_integrate_pieces call per sign, and adds each atom's potential of every
piece of that sign from one kernel_integrals call; a mean over a sphere
(_identity_mean) takes each atom by Gauss's mean value theorem.  The
remaining means are _sphere_mean.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .geometry import _distances, _dots, _kernel_values
from .measures import Atom, BorelMeasure, UniformArc, integrated_counting_result
from .potentials import (
    DeltaSubharmonicFn,
    MeromorphicFn,
    SubharmonicFn,
    canonical_representation,
    jordan_decomposition,
)
from .quadrature import (_ROUNDING, QuadratureResult, _circle_means, _integrate_pieces,
                         _sphere_means_3d, circle_mean, sphere_mean_3d, sphere_sup)

__all__ = [
    "CharacteristicRecord",
    "difference_characteristic",
    "difference_characteristic_canonical",
    "nevanlinna_N",
    "nevanlinna_T",
    "nevanlinna_m",
    "spherical_mean",
    "sup_on_sphere",
]

TWO_PI = 2.0 * math.pi
_CLOSE = 4.0 * sys.float_info.epsilon  # a closed bracket's width per unit of scale

@dataclass(frozen=True)
class CharacteristicRecord:
    kind: str  # C_mean | M_sup | m_classical | N_classical | T_classical | T_difference
    r: float
    value: float
    error_estimate: float
    R: Optional[float] = None
    transform: str = "identity"


def _sphere_points(r: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    pts = np.empty((3, np.size(phi))).T  # column-major: each coordinate contiguous
    pts[:, 0], pts[:, 1], pts[:, 2] = r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)
    return pts


def _circle(r: float) -> UniformArc:
    """The circle |x| = r as a path: the full arc of mass 2 pi."""
    return UniformArc((0.0, 0.0), r, 0.0, TWO_PI, TWO_PI)


def _on_sphere(values, r: float, dim: int):
    """The angle integrand of a points -> values function on the sphere
    |x| = r: g(theta) on the circle for d=2, g(theta, phi) for d=3."""
    if dim == 2:
        circle = _circle(r)
        return lambda theta: values(circle.at(theta))
    if dim == 3:
        return lambda theta, phi: values(_sphere_points(r, theta, phi))
    raise ValueError(f"sphere quadrature supports d in (2, 3), got {dim}")


def _sphere_mean(values, r: float, dim: int, tol: float):
    """Mean of values over the sphere |x| = r."""
    g = _on_sphere(values, r, dim)
    return circle_mean(g, tol) if dim == 2 else sphere_mean_3d(g, tol)


def _sphere_means(values, r: float, dim: int, tol: float) -> list:
    """Means over the sphere |x| = r of the rows of values: points (n, d) ->
    (m, n), all rows at each level in one call."""
    g = _on_sphere(values, r, dim)
    return _circle_means(g, tol) if dim == 2 else _sphere_means_3d(g, tol)


class _Split(NamedTuple):
    """F = rest + sum_j weights[j] k(|x - points[j]|), with rest (points ->
    values) F without its charge atoms: smooth about them, and no cancellation."""

    rest: Callable
    points: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,), signed


def _split(F) -> _Split:
    """A SubharmonicFn, or a DeltaSubharmonicFn with the atoms of u at +w and
    those of v at -w, split into its atoms and the rest."""
    parts = [(F, 1.0)] if isinstance(F, SubharmonicFn) else [(F.u, 1.0), (F.v, -1.0)]
    atoms = [(a.point, sign * a.weight) for sub, sign in parts for a in sub.riesz.atoms]
    bare = [replace(sub, riesz=BorelMeasure(tuple(c for c in sub.riesz.components
                                                  if not isinstance(c, Atom)), F.dim))
            for sub, _sign in parts]
    rest = bare[0] if len(bare) == 1 else DeltaSubharmonicFn(*bare)
    return _Split(rest.values, np.array([p for p, _ in atoms], dtype=float).reshape(-1, F.dim),
                  np.array([w for _, w in atoms], dtype=float))


def _identity_mean(split: _Split, r: float, dim: int, tol: float) -> QuadratureResult:
    """Mean over |x| = r of a split function: the rest by _sphere_mean, and
    each atom as w k(max(r, |p|)), Gauss's mean value of its kernel term."""
    res = _sphere_mean(split.rest, r, dim, tol)
    k = _kernel_values(dim, np.maximum(r, _distances(split.points, 0.0)))
    return res + QuadratureResult(float(_dots(split.weights, k)),
                                  _ROUNDING * float(_dots(np.abs(split.weights), np.abs(k))), 0)


def _sign_changes(evaluator, x, fx) -> list:
    """Where the class evaluator > 0 (which 0, NaN and -inf are all outside)
    flips between scan nodes x[i] < x[i + 1] of values fx: the midpoints of
    the brackets once no wider than 4 eps max(|lo|, |hi|, span).  Each step
    is one evaluator call, on one array, at the Illinois points (Dowell &
    Jarratt 1971) of the open brackets, kept at least half that width
    inside; a bracket bisects where an end is not finite, the secant's
    denominator is 0 (a subnormal end halved to 0) or it has not halved in
    two steps.  A bracket's state is Python floats, one list entry each:
    arrays of a few brackets cost more per step than the arithmetic."""
    up = fx > 0.0
    i = np.flatnonzero(up[:-1] != up[1:])
    lo, hi, f_lo, f_hi = x[i].tolist(), x[i + 1].tolist(), fx[i].tolist(), fx[i + 1].tolist()
    lo_up = up[i].tolist()
    span = float(x[-1] - x[0])
    close = [_CLOSE * max(-a, b, span) for a, b in zip(lo, hi)]  # a < b: max(|a|, |b|)
    older, old = [math.inf] * i.size, [math.inf] * i.size  # widths 2 and 1 steps ago
    kept = [0] * i.size  # the end the last step kept: 1 lo, 2 hi
    k = [j for j in range(i.size) if hi[j] - lo[j] > close[j]]  # open; none reopens
    while k:
        steps, widths = [], []
        for j in k:
            a, b, fa, fb = lo[j], hi[j], f_lo[j], f_hi[j]
            width, inset = b - a, 0.5 * close[j]
            t = 0.5 * (a + b)
            if (math.isfinite(fa) and math.isfinite(fb) and fa - fb != 0.0
                    and width <= 0.5 * older[j]):
                secant = a + width * (fa / (fa - fb))
                t = secant if a <= secant <= b else t
            steps.append(min(max(t, a + inset), b - inset))
            widths.append(width)
        ft = np.asarray(evaluator(np.array(steps)), dtype=float).tolist()
        for j, t, f, width in zip(k, steps, ft, widths):
            if (f > 0.0) != lo_up[j]:  # lo kept, t is the new hi
                if kept[j] == 1:  # Illinois: an end kept twice
                    f_lo[j] = 0.5 * f_lo[j]
                hi[j], f_hi[j], kept[j] = t, f, 1
            else:
                if kept[j] == 2:
                    f_hi[j] = 0.5 * f_hi[j]
                lo[j], f_lo[j], kept[j] = t, f, 2
            older[j], old[j] = old[j], width
        k = [j for j in k if hi[j] - lo[j] > close[j]]
    return [0.5 * (a + b) for a, b in zip(lo, hi)]


def _cuts(a: float, b: float, n: int) -> list:
    """np.linspace(a, b, n + 1).tolist() without numpy: i (b - a) / n + a, then b."""
    step = (b - a) / n
    return [i * step + a for i in range(n)] + [b]


def _integral_by_sign(signed, pos: _Split, path, tol: float,
                      neg: Optional[_Split] = None) -> QuadratureResult:
    """Integral over [lo, hi] = path.span along path (a segment or arc
    component, or _circle) of pos where signed > 0 and of neg
    (0 if None) elsewhere, to the absolute tolerance tol; all three act on
    points.  Pieces end at the class flips _sign_changes finds on a closed
    2048-cell grid plus the feet of all atoms of pos and neg, so a window of
    one class about an atom narrower than a cell is not lost.  The rest of
    each class goes to one _integrate_pieces call over its pieces, each cut
    into parts no wider than (hi - lo) / 8 and given tol times its share of
    [lo, hi], and each atom adds w integral_a^b k(|x(t) - p|) dt per piece
    [a, b] in closed form, whose rounding bound joins the estimate: one
    path.kernel_integrals call per class gives them for all its pieces,
    added piece by piece after its quadrature.  So quadrature sees only
    integrands smooth between piece ends."""
    lo, hi = path.span
    feet = np.concatenate([path.feet(sp.points, lo, hi) for sp in (pos, neg) if sp is not None])
    x = np.union1d(lo + (hi - lo) * np.arange(2049) / 2048, feet)
    fx = np.asarray(signed(path.at(x)), dtype=float)
    edges = [lo] + _sign_changes(lambda t: signed(path.at(t)), x, fx) + [hi]
    cap = (hi - lo) / 8.0
    total = QuadratureResult(0.0, 0.0, 0)
    pieces = list(zip(edges[:-1], edges[1:]))  # the classes alternate
    first = 0 if fx[0] > 0.0 else 1
    for sp, ends in ((pos, pieces[first::2]), (neg, pieces[1 - first::2])):
        if sp is None:
            continue
        cuts = [_cuts(a, b, math.ceil((b - a) / cap)) for a, b in ends]
        parts = [(c, d, tol * (d - c) / (hi - lo)) for u in cuts for c, d in zip(u[:-1], u[1:])]
        total = total + _integrate_pieces(lambda t: sp.rest(path.at(t)), parts,
                                          max(abs(lo), abs(hi), hi - lo))
        if not (ends and sp.weights.size):
            continue
        values, rounding = path.kernel_integrals(ends, sp.points)
        bounds = _dots(rounding, np.abs(sp.weights)).tolist()
        for value, bound in zip(_dots(values, sp.weights).tolist(), bounds):
            total = total + QuadratureResult(value, max(bound, _ROUNDING * abs(value)), 0)
    return total


def _circle_by_sign(signed, pos: _Split, r: float, tol: float,
                    neg: Optional[_Split] = None) -> QuadratureResult:
    """Mean over |x| = r of the integrand of _integral_by_sign."""
    res = _integral_by_sign(signed, pos, _circle(r), tol * TWO_PI, neg)
    return res.scaled(1.0 / TWO_PI)


def spherical_mean(U: DeltaSubharmonicFn, r: float, transform: str = "identity",
                   tol: float = 1e-8) -> CharacteristicRecord:
    """C over the sphere of radius r of U, or of U^+ (transform "positive")."""
    if not r > 0:
        raise ValueError("r must be > 0")
    if transform not in ("identity", "positive"):
        raise ValueError(f"unknown transform {transform!r}")
    # polar entries of U.values stay NaN; the quadrature nudges those nodes
    if transform == "identity":
        res = _identity_mean(_split(U), r, U.dim, tol)
    elif U.dim == 2:
        res = _circle_by_sign(U.values, _split(U), r, tol)
    else:
        res = _sphere_mean(U.positive_values, r, U.dim, tol)
    return CharacteristicRecord("C_mean", r, res.value, res.error_estimate,
                                transform=transform)


def sup_on_sphere(U: DeltaSubharmonicFn, r: float) -> CharacteristicRecord:
    """M over the sphere of radius r (a refined lower bound of the sup)."""
    if not r > 0:
        raise ValueError("r must be > 0")
    refinement_tol = 1e-7
    value = sphere_sup(_on_sphere(U.values, r, U.dim), refinement_tol, dim=U.dim)
    return CharacteristicRecord("M_sup", r, value, refinement_tol)


# ---------------------------------------------------------------------------
# classical Nevanlinna quantities for meromorphic f


def nevanlinna_m(f: MeromorphicFn, r: float, tol: float = 1e-8) -> CharacteristicRecord:
    """m(r, f): circle mean of ln |f| over the arcs where |f| > 1, split into
    its own zeros and poles (+m and -n times ln|z - a|) and the rest, so it
    stays an oracle for C_{U^+}(r) independent of the potential models."""
    if not r > 0:
        raise ValueError("r must be > 0")

    def on_points(g):
        return lambda pts: g(pts[:, 0] + 1j * pts[:, 1])

    atoms = f.zeros + tuple((b, -n) for b, n in f.poles)
    split = _Split(on_points(replace(f, zeros=(), poles=()).log_abs),
                   np.array([(a.real, a.imag) for a, _ in atoms], dtype=float).reshape(-1, 2),
                   np.array([m for _, m in atoms], dtype=float))
    res = _circle_by_sign(on_points(f.log_abs), split, r, tol)
    return CharacteristicRecord("m_classical", r, res.value, res.error_estimate)


def nevanlinna_N(f: MeromorphicFn, r: float) -> CharacteristicRecord:
    """N(r, f) from the pole list: exact piecewise-log closed form.

    N(0, f) is 0 when f has no pole at the origin and -inf otherwise.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    n0 = sum(n for b, n in f.poles if b == 0)
    if r == 0.0:
        value = 0.0 if n0 == 0 else -math.inf
        return CharacteristicRecord("N_classical", r, value, 0.0)
    value = n0 * math.log(r)
    for b, n in f.poles:
        if b != 0 and abs(b) <= r:
            value += n * math.log(r / abs(b))
    return CharacteristicRecord("N_classical", r, value, 0.0)


def nevanlinna_T(f: MeromorphicFn, r: float, tol: float = 1e-8) -> CharacteristicRecord:
    """T(r, f) = m(r, f) + N(r, f)."""
    m = nevanlinna_m(f, r, tol)
    N = nevanlinna_N(f, r)
    return CharacteristicRecord("T_classical", r, m.value + N.value,
                                m.error_estimate + N.error_estimate)


# ---------------------------------------------------------------------------
# difference characteristic, two forms


def difference_characteristic(U: DeltaSubharmonicFn, r: float, R: float,
                              tol: float = 1e-8) -> CharacteristicRecord:
    """T_U(r, R) = C_{U^+}(R) + N_{charge^-}(r, R); may be +inf when r = 0
    and the negative charge loads the origin."""
    if not 0.0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got ({r}, {R})")
    _plus, minus = jordan_decomposition(U)
    c_plus = spherical_mean(U, R, "positive", tol)
    n_minus = integrated_counting_result(minus, r, R)
    return CharacteristicRecord(
        "T_difference", r, c_plus.value + n_minus.value,
        c_plus.error_estimate + n_minus.error_estimate, R=R,
    )


def difference_characteristic_canonical(U: DeltaSubharmonicFn, r: float, R: float,
                                        tol: float = 1e-8) -> CharacteristicRecord:
    """T_U(r, R) = C_{max(u*, v*)}(R) - C_{v*}(r) via the canonical
    representation; agrees with difference_characteristic on the model family."""
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R, got ({r}, {R})")
    u_star, v_star = canonical_representation(U)
    if U.dim == 2:  # u* where u* > v*, v* elsewhere
        sup_mean = _circle_by_sign(lambda pts: u_star.values(pts) - v_star.values(pts),
                                   _split(u_star), R, tol, _split(v_star))
    else:
        sup_mean = _sphere_mean(lambda pts: np.maximum(u_star.values(pts), v_star.values(pts)),
                                R, U.dim, tol)
    v_mean = _identity_mean(_split(v_star), r, U.dim, tol)
    return CharacteristicRecord(
        "T_difference", r, sup_mean.value - v_mean.value,
        sup_mean.error_estimate + v_mean.error_estimate, R=R,
    )
