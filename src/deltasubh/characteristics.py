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
of a measure (lab), or the circle |x| = r as a full arc of mass 1 (_circle)
-- whose span, at, feet and kernel_integrals it reads, _path_integral
integrates the rest against the path's uniform measure over the pieces where
the sign of U is constant, ended at the roots of the scan (Newton in Python
floats where U is planar atomic, _newton_changes, and Illinois otherwise,
_sign_changes) so a kink of U^+ is a panel edge, in one _integrate_pieces
call per sign, and adds each atom's potential of every piece of that sign
from one kernel_integrals call; so C_{U^+}(r) and lab's integral of U^+ d mu
are one rule.  The piece ends come from _path_edges, given the split of
the function whose sign they follow (U's, or u* - v*'s), whose roots on a
planar ball's rim also start the arcs of {U = 0} that lab's Green rule
traces.  It first asks _one_signed: where U is planar atomic
(_Split.poly; its one model is _Planar), U on the circle the path lies
on, or bounds the disk of, is its mean plus a Fourier series from the
atoms' Laurent series and the polynomial's Taylor shift (_circle_bound); a
mean larger than their sum proves one sign, and such a path is evaluated
nowhere.  Every other path
(continuous charges, d = 3, undecided) is scanned (_scan_edges).  A mean over a
sphere (_identity_mean) takes each atom by Gauss's mean value theorem.  The
remaining means are _sphere_mean.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import _distances, _dots, _kernel_values
from .measures import UniformArc, integrated_counting_result
from .potentials import (
    DeltaSubharmonicFn,
    MeromorphicFn,
    _horner,
    _Split,
    canonical_representation,
    jordan_decomposition,
)
from .quadrature import (_ROUNDING, TWO_PI, QuadratureResult, _circle_means, _integrate_pieces,
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

_CLOSE = 4.0 * sys.float_info.epsilon  # a closed bracket's width per unit of scale

@dataclass(frozen=True)
class CharacteristicRecord:
    kind: str  # C_mean | M_sup | m_classical | N_classical | T_classical | T_difference
    r: float
    value: float
    error_estimate: float
    R: Optional[float] = None


def _sphere_points(r: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    pts = np.empty((3, np.size(phi))).T  # column-major: each coordinate contiguous
    pts[:, 0], pts[:, 1], pts[:, 2] = r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)
    return pts


def _circle(r: float) -> UniformArc:
    """The circle |x| = r as a path: the full arc, its probability measure."""
    return UniformArc((0.0, 0.0), r, 0.0, TWO_PI, 1.0)


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


def _split(F) -> _Split:
    """F's split into its atoms and the rest (potentials._split_parts),
    built once per model and then shared."""
    return F._split


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
    arrays of a few brackets cost more per step than the arithmetic.  The
    refinement of paths that are not planar atomic (continuous charges,
    d = 3), and of those _newton_changes hands back."""
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


def _complex(points: np.ndarray) -> np.ndarray:
    return points[:, 0] + 1j * points[:, 1]


class _Planar:
    """The model of a planar atomic F about a centre c: F = Re g with
    g(z) = p(z) + sum_j w_j [L_j + Log((z - a_j) / d_j)] over the atoms a_j of
    signed weight w_j, d_j = c - a_j and L_j = ln|d_j|; on a closed disc
    about c clear of the atoms each ratio has a positive real part, so this
    branch is continuous there.  Built where g is needed (L is -inf at an atom
    at c).  value and slope (g') take a scalar, values and slopes an array.
    level (F) and slope need no centre: without c, the model has no g."""

    def __init__(self, split: _Split, c: Optional[complex] = None):
        self.c, self.coeffs, self.w = c, split.poly, split.weights
        self.dcoeffs = tuple(k * a for k, a in enumerate(self.coeffs))[1:]
        self.a = _complex(split.points)
        self.atoms = list(zip(self.a.tolist(), self.w.tolist()))
        if c is not None:
            self.d = c - self.a
            self.L = np.log(np.abs(self.d))
            self.terms = list(zip(self.a.tolist(), self.d.tolist(), self.L.tolist(),
                                  self.w.tolist()))

    @staticmethod
    def taylor(coeffs: tuple, c: complex) -> list:
        """p's Taylor coefficients at c, low to high, by synthetic division."""
        b = list(coeffs)
        for i in range(len(b) - 1):
            for j in range(len(b) - 2, i - 1, -1):
                b[j] += c * b[j + 1]
        return b

    def value(self, z: complex) -> complex:
        acc = 0j
        for b in reversed(self.coeffs):
            acc = acc * z + b
        for a, d, L, w in self.terms:
            acc += w * (L + cmath.log((z - a) / d))
        return acc

    def level(self, z: complex) -> float:
        """F(z) = Re p(z) + sum_j w_j ln|z - a_j|; ValueError at an atom."""
        acc = 0j
        for b in reversed(self.coeffs):
            acc = acc * z + b
        return acc.real + sum(w * math.log(abs(z - a)) for a, w in self.atoms)

    def slope(self, z: complex) -> complex:
        acc = 0j
        for b in reversed(self.dcoeffs):
            acc = acc * z + b
        for a, w in self.atoms:
            acc += w / (z - a)
        return acc

    def values(self, Z: np.ndarray) -> np.ndarray:
        return _horner(self.coeffs, Z) + _dots(np.log((Z[:, None] - self.a) / self.d) + self.L,
                                               self.w)

    def slopes(self, Z: np.ndarray) -> np.ndarray:
        return _horner(self.dcoeffs, Z) + _dots(1.0 / (Z[:, None] - self.a), self.w)


_TERMS = 16  # the Fourier terms _circle_bound sums before its tail bound


def _circle_bound(split: _Split, center, rho: float, solid: bool) -> Optional[tuple]:
    """(M, bound, margin) for the F of split on the circle |x - c| = rho,
    c = center: M the mean of F there and |F - M| <= bound on it, plus
    margin, far above the rounding of F's values at points of the circle and
    of M and bound themselves.  None where F is not planar atomic (poly
    None), an atom lies on the circle or, if solid, in the closed disk.

    On the circle, with delta = a - c and D = |delta| for an atom a of
    weight w, w ln|x - a| = w ln max(rho, D) - Re sum_k A_k e^{ikt} / k with
    A_k = w conj(delta / rho)^k (D < rho) or w (rho / delta)^k (D > rho),
    the Laurent series of the logarithm (Ransford, Potential Theory in the
    Complex Plane, 1995, ch. 2), and Re p(x) = Re sum_k b_k rho^k e^{ikt}
    with b_k p's Taylor coefficients at c (_Planar.taylor).  bound is the
    sum_{k <= _TERMS} of |the coefficients summed over atoms and p| plus
    sum |w| q^17 / (17 (1 - q)), q = min(D / rho, rho / D), for the atoms'
    tails and |b_k| rho^k for p's terms past _TERMS.  margin is 1e-9 times
    F's scale on the circle, sum |w| (1 + max |ln|x - a||) + sum |p_k|
    (|c| + rho)^k, and times its slope bound there, sum |w| / |D - rho| +
    sum k |p_k| (|c| + rho)^(k - 1), times |c| + rho, for points rounded off
    the path.  Python floats: arrays of a few atoms cost more than this."""
    if split.poly is None:
        return None
    c = complex(*center)
    far = abs(c) + rho
    coeffs = [0j] * (_TERMS + 1)
    mean = tail = size = slope = 0.0
    for (x, y), w in zip(split.points.tolist(), split.weights.tolist()):
        delta = complex(x, y) - c
        D = abs(delta)
        if D < rho and not solid:
            ratio, q, mean = (delta / rho).conjugate(), D / rho, mean + w * math.log(rho)
        elif D > rho:
            ratio, q, mean = rho / delta, rho / D, mean + w * math.log(D)
        else:
            return None
        term = -w
        for k in range(1, _TERMS + 1):
            term *= ratio
            coeffs[k] += term / k
        tail += abs(w) * q ** (_TERMS + 1) / ((_TERMS + 1) * (1.0 - q))
        size += abs(w) * (1.0 + max(abs(math.log(rho + D)), abs(math.log(abs(rho - D)))))
        slope += abs(w) / abs(D - rho)
    for k, (a, b) in enumerate(zip(split.poly, _Planar.taylor(split.poly, c))):
        size += abs(a) * far ** k
        if k == 0:
            mean += b.real
            continue
        slope += k * abs(a) * far ** (k - 1)
        if k <= _TERMS:
            coeffs[k] += b * rho ** k
        else:
            tail += abs(b) * rho ** k
    bound = sum(abs(a) for a in coeffs) + tail
    return mean, bound, 1e-9 * (size + far * slope)


def _one_signed(path, split: _Split) -> Optional[bool]:
    """True where the F of split is proved > 0 on all of path, False where
    it is proved < 0, None otherwise: the mean and bound of _circle_bound on
    the circle of path.carrier(), which holds an arc, or on the rim of its
    closed disk, which holds a segment; with every atom outside that disk,
    F is harmonic there, and the maximum principle carries the rim's sign
    inside.  A proof needs |M| - bound > margin."""
    found = _circle_bound(split, *path.carrier())
    if found is None:
        return None
    mean, bound, margin = found
    if mean - bound > margin:
        return True
    if mean + bound < -margin:
        return False
    return None


def _path_edges(signed, path, split: _Split) -> tuple:
    """(edges, up, nodes): where signed, the F of split, is proved
    one-signed on path (_one_signed), the ends of path.span, its class and
    0: it is evaluated nowhere, and the scan would find no flip.  Otherwise
    _scan_edges."""
    up = _one_signed(path, split)
    if up is not None:
        return list(path.span), up, 0
    return _scan_edges(signed, path, split)


def _scan_edges(signed, path, split: _Split) -> tuple:
    """(edges, up, nodes): the ends of path.span with, between them, the
    flips of the class signed > 0 on a closed 2048-cell grid plus the feet
    of split's atoms (so a window of one class about an atom narrower than a
    cell is not lost), refined by _newton_changes where F is planar atomic
    and by _sign_changes elsewhere or where Newton hands the path back;
    whether the first piece is in the class; and the points signed and the
    Newton steps were evaluated at."""
    lo, hi = path.span
    x = np.union1d(lo + (hi - lo) * np.arange(2049) / 2048, path.feet(split.points, lo, hi))
    sizes = []  # the points evaluated: the scan, the Newton steps, each Illinois step

    def on_path(t):
        sizes.append(t.size)
        return signed(path.at(t))

    fx = np.asarray(on_path(x), dtype=float)
    roots = None
    if split.poly is not None:
        roots, steps = _newton_changes(path, split, x, fx)
        sizes.append(steps)
    if roots is None:
        roots = _sign_changes(on_path, x, fx)
    return [lo] + roots + [hi], bool(fx[0] > 0.0), sum(sizes)


_NEWTON = 60  # the steps a bracket may take before _newton_changes hands the path back


def _newton_changes(path, split: _Split, x, fx) -> tuple:
    """(roots, steps): where the class F > 0 of the planar atomic F of split
    flips between scan nodes x[i] < x[i + 1] of values fx, each bracket
    refined by safeguarded Newton in Python floats on F(t) = F(z(t)) and
    F'(t) = Re(g'(z) z'(t)) (_Planar.level and slope, path.z_at) from its
    secant point; the root is the bracket's midpoint once it is no wider
    than _sign_changes' close width.  Each step keeps the end of its sign.
    It bisects where Newton would leave the bracket or F' is 0 or not
    finite, and a Newton step no longer than half that width goes on by the
    half, across the root: that closes the bracket at a root, and moves an
    end past a tangency of F = 0 that is no flip, to which a step rule
    alone would converge.  roots is None, and the path goes whole to
    _sign_changes, where a bracket end is not finite (an atom's foot), a
    step lands on an atom or a bracket is open after _NEWTON steps; steps
    counts the points evaluated either way."""
    up = fx > 0.0
    i = np.flatnonzero(up[:-1] != up[1:])
    f_lo, f_hi = fx[i].tolist(), fx[i + 1].tolist()
    if not all(map(math.isfinite, f_lo + f_hi)):
        return None, 0
    model, span, roots, steps = _Planar(split), float(x[-1] - x[0]), [], 0
    for a, b, fa, fb, a_up in zip(x[i].tolist(), x[i + 1].tolist(), f_lo, f_hi, up[i].tolist()):
        close = _CLOSE * max(-a, b, span)  # a < b: max(|a|, |b|)
        half = 0.5 * close
        t = min(max(a + (b - a) * (fa / (fa - fb)), a), b)
        for _ in range(_NEWTON):
            z, dz = path.z_at(t)
            steps += 1
            try:
                f, df = model.level(z), (model.slope(z) * dz).real
            except (ValueError, ZeroDivisionError):  # z on an atom
                return None, steps
            if (f > 0.0) == a_up:
                a, across = t, half
            else:
                b, across = t, -half
            if b - a <= close:
                roots.append(0.5 * (a + b))
                break
            nxt = t - f / df if df != 0.0 and math.isfinite(df) else math.nan
            if abs(nxt - t) <= half:
                nxt += across
            t = nxt if a < nxt < b else 0.5 * (a + b)
        else:
            return None, steps
    return roots, steps


def _path_integral(signed, pos: _Split, path, tol: float,
                   neg: Optional[_Split] = None, edges: Optional[tuple] = None) -> QuadratureResult:
    """Integral against the uniform measure of mass path.weight on path (a
    segment or arc component, or _circle) of pos where signed > 0 and of neg
    (0 if None) elsewhere, to the absolute tolerance tol; all three act on
    points.  It integrates in dt over [lo, hi] = path.span to tol over the
    density, and scales by the density last.  Pieces end at _path_edges of
    signed and pos, which finds the sign of signed only where signed is
    pos's F; otherwise, as for a neg (the canonical form's u* - v*), the
    caller hands in as edges the result for signed's own split.  The points
    _path_edges evaluated signed at join nodes_used.  The rest of each class
    goes to one _integrate_pieces call over its pieces, each cut into parts
    no wider than (hi - lo) / 8 and given tol times its share of [lo, hi],
    and each atom adds w integral_a^b k(|x(t) - p|) dt per piece [a, b] in
    closed form, whose rounding bound joins the estimate: one
    path.kernel_integrals call per class gives them for all its pieces,
    added piece by piece after its quadrature.  So quadrature sees only
    integrands smooth between piece ends."""
    lo, hi = path.span
    density = path.weight / (hi - lo)
    tol = tol / max(density, 1e-300)
    breaks, up, scanned = edges or _path_edges(signed, path, pos)
    cap = (hi - lo) / 8.0
    total = QuadratureResult(0.0, 0.0, scanned)
    pieces = list(zip(breaks[:-1], breaks[1:]))  # the classes alternate
    first = 0 if up else 1
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
    return total.scaled(density)


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
        res = _path_integral(U.values, _split(U), _circle(r), tol)
    else:
        res = _sphere_mean(U.positive_values, r, U.dim, tol)
    return CharacteristicRecord("C_mean", r, res.value, res.error_estimate)


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

    rest = replace(f, zeros=(), poles=()).log_abs
    atoms = f.zeros + tuple((b, -n) for b, n in f.poles)
    split = _Split(lambda pts: rest(_complex(pts)),
                   np.array([(a.real, a.imag) for a, _ in atoms], dtype=float).reshape(-1, 2),
                   np.array([m for _, m in atoms], dtype=float), f._rest_coeffs)
    res = _path_integral(lambda pts: f.log_abs(_complex(pts)), split, _circle(r), tol)
    return CharacteristicRecord("m_classical", r, res.value, res.error_estimate)


def nevanlinna_N(f: MeromorphicFn, r: float) -> CharacteristicRecord:
    """N(r, f) from the pole list: exact piecewise-log closed form.

    N(0, f) is 0 when f has no pole at the origin and -inf otherwise.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    n0 = f.pole_count(0.0)
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
        def signed(pts):
            return u_star.values(pts) - v_star.values(pts)
        edges = _path_edges(signed, _circle(R), _split(DeltaSubharmonicFn(u_star, v_star)))
        sup_mean = _path_integral(signed, _split(u_star), _circle(R), tol, _split(v_star), edges)
    else:
        sup_mean = _sphere_mean(lambda pts: np.maximum(u_star.values(pts), v_star.values(pts)),
                                R, U.dim, tol)
    v_mean = _identity_mean(_split(v_star), r, U.dim, tol)
    return CharacteristicRecord(
        "T_difference", r, sup_mean.value - v_mean.value,
        sup_mean.error_estimate + v_mean.error_estimate, R=R,
    )
