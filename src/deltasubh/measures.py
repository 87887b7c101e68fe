"""Finitely-described positive Borel measures on a closed ball.

A measure is a finite sum of primitive components -- atoms (any d), uniform
segments and uniform solid balls (d=2, 3), uniform circular arcs (d=2), each
of mass its weight -- chosen so that every ball-mass query
mu(closed ball B_y(t)) has a closed form.  That exactness is
what makes the radial counting function, the integrated counting function
N_mu(r, R) and the modulus of continuity h_mu certifiable:

    h_mu(t) = sup over centers y of mu(B_y(t)).

h_mu is exact for purely atomic measures in d=2 (the optimum is attained at
an atom or at a center equidistant from two atoms, so O(n^2) candidates
suffice) and for any single symmetric primitive; otherwise branch and bound
over centers brackets it, and its lower end, a certified lower bound, is
reported, flagged exact when the bracket closes to 1e-12 max(1, mass).  For
unions of 2-d disks a cover of second order in the cell size lets it close
at an interior maximum; for other measures the beam narrows once the
bracket is open.  Subadditivity gives a flagged upper bound (h_{mu1+mu2} <=
h_mu1 + h_mu2) which is what inequality verification feeds into a
right-hand side.

Closed balls throughout: mass sitting at distance exactly t from y counts.

Each component kind carries its own behaviour, so callers never switch on
the kind, and each method has one call shape: ball_mass (at one center or
an (n, d) array of centers; always an array, radial_counting gives a float
for a scalar radius), h_single (a float at a float t), dini_single
(closed-form integral_0^upper h_single(t) / t^{d-1} dt), outer_radius,
potential (closed-form kernel potential, per point), distance_to (from one
point) and overlaps (whether a component of the same kind shares carrier
mass with it, which the Jordan decomposition asks; atoms never do, as
coincident atoms cancel by weight).  The continuous kinds carry
breakpoint_radii(), where mu_i(B_0(t)) changes form in t: the piece ends of
N_mu's quadrature, which takes atoms in closed form.  BorelMeasure.continuous
is the measure without its atoms.  The dimension d of these formulas is the
component's dim, the length of its points.  A measure states its d once,
BorelMeasure(components, dim), even when it has no component, and rejects a
component of another d (DIMENSION); nothing infers or defaults it.  A weight
<= 0 is a NEGATIVE_WEIGHT (geometry's coded ScenarioError).  The 1-d
carriers, segments and arcs, are paths for the by-sign integral of
characteristics as well: span (the parameter interval, [0, 1] or the arc's
angles), at (points at parameters), feet (the parameters of points' nearest
points, within [lo, hi]) and kernel_integrals(ends, pts) (integral_a^b
k(|x(t) - p|) dt in closed form for every piece [a, b] of ends at every
point p, with its rounding bound, as (pieces, points) arrays).  Balls carry
second_order (the gradient and a Hessian bound of y -> mu(B_y(t)) in d=2)
for the modulus bracket, which decides once per call, from d and the kinds,
whether its second-order cover applies: in d=2 with every component a ball.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .geometry import (ScenarioError, _check_dimension, _d_hat, _distances, _dots,
                       _kernel_values, ext_mul, kernel)
from .quadrature import (_RESOLUTION, _ROUNDING, TWO_PI, QuadratureResult, _gl_nodes,
                         integrate_interval)

__all__ = [
    "Atom",
    "BorelMeasure",
    "DiniLimitsReport",
    "ModulusProfile",
    "UniformArc",
    "UniformBall",
    "UniformSegment",
    "dini_integral_result",
    "dini_limits_check",
    "integrated_counting_result",
    "modulus_of_continuity",
    "modulus_profile",
    "radial_counting",
]

Point = tuple  # tuple of d floats


def _as_point(p) -> Point:
    point = tuple(float(c) for c in p)
    if not all(map(math.isfinite, point)):
        raise ValueError(f"point coordinates must be finite, got {point!r}")
    return point


def _check_positive(value: float, what: str):
    """ValueError unless value is finite and > 0 (a NaN included)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be finite and > 0, got {value!r}")


def _check_weight(weight: float, what: str):
    """NEGATIVE_WEIGHT for a finite weight <= 0, a ValueError for a non-finite one."""
    if -math.inf < weight <= 0.0:
        raise ScenarioError("NEGATIVE_WEIGHT", f"{what} must be > 0, got {weight!r}")
    _check_positive(weight, what)


def _cross_norm(a: np.ndarray, b: np.ndarray) -> float:
    """|a x b| of two vectors in d = 2 or 3."""
    if a.size == 2:
        return abs(float(a[0] * b[1] - a[1] * b[0]))
    return float(_distances(np.cross(a, b), 0.0))


@dataclass(frozen=True)
class Atom:
    point: Point
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "point", _as_point(self.point))
        _check_weight(self.weight, "atom weight")

    @property
    def dim(self) -> int:
        return len(self.point)

    def ball_mass(self, y, t) -> np.ndarray:
        return np.where(_distances(y, self.point) <= np.asarray(t, dtype=float), self.weight, 0.0)

    def outer_radius(self) -> float:
        return math.hypot(*self.point)

    def h_single(self, t: float) -> float:
        return float(self.weight)

    def dini_single(self, upper: float) -> float:
        return math.inf  # h = weight near 0

    def potential(self, pts: np.ndarray) -> np.ndarray:
        return self.weight * _kernel_values(self.dim, _distances(pts, self.point))

    def distance_to(self, p: np.ndarray) -> float:
        return float(_distances(p, self.point))

    def overlaps(self, other: "Atom") -> bool:
        return False  # a point carries no shared mass; coincident atoms cancel by weight


@dataclass(frozen=True)
class UniformSegment:
    start: Point
    end: Point
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "start", _as_point(self.start))
        object.__setattr__(self, "end", _as_point(self.end))
        if len(self.start) not in (2, 3):
            raise ValueError("segment components are supported in dimensions 2 and 3")
        _check_weight(self.weight, "segment weight")
        with np.errstate(over="ignore"):  # a length beyond the float range reads inf
            length = self.length
        if not 0.0 < length < math.inf:
            raise ValueError(f"segment length must be finite and > 0, got {length!r}")

    @property
    def dim(self) -> int:
        return len(self.start)

    @property
    def length(self) -> float:
        return float(_distances(self.start, self.end))

    def ball_mass(self, y, t) -> np.ndarray:
        # parameter fraction of {s in [0,1] : |start + s (end-start) - y| <= t}
        a = np.asarray(self.start)
        e = np.asarray(self.end) - a
        w = np.asarray(y, dtype=float) - a
        ee = float(_dots(e, e))
        dot = _dots(w, e)
        # ee (t^2 - |w_perp|^2), not dot^2 - ee (|w|^2 - t^2): the latter
        # cancels for centers on or near the segment's line
        perp = w - np.multiply.outer(dot / ee, e)
        t_arr = np.asarray(t, dtype=float)
        disc = ee * (t_arr * t_arr - _dots(perp, perp))
        safe = np.sqrt(np.maximum(disc, 0.0))
        s_lo = (dot - safe) / ee
        s_hi = (dot + safe) / ee
        frac = np.maximum(0.0, np.minimum(s_hi, 1.0) - np.maximum(s_lo, 0.0))
        return np.where(disc >= 0.0, self.weight * frac, 0.0)

    def breakpoint_radii(self) -> list:
        origin = np.zeros(self.dim)
        return [self.distance_to(origin)] + [float(_distances(origin, p))
                                             for p in (self.start, self.end)]

    def outer_radius(self) -> float:
        return max(math.hypot(*self.start), math.hypot(*self.end))

    def h_single(self, t: float) -> float:
        L = self.length  # h <= weight
        return float(self.weight * (np.minimum(2.0 * np.asarray(t, dtype=float), L) / L))

    def dini_single(self, upper: float) -> float:
        """h = weight * t / (L/2) up to L/2, weight after; h / t^2 ~ 1/t in d=3."""
        if self.dim != 2:
            return math.inf
        half = 0.5 * self.length
        if upper <= half:
            return self.weight * upper / half
        return self.weight * (1.0 + math.log(upper / half))

    def potential(self, pts: np.ndarray) -> np.ndarray:
        a = np.asarray(self.start)
        e = np.asarray(self.end) - a
        L = self.length
        ehat = e / L
        w = pts - a
        u0 = _dots(w, ehat)
        perp = w - u0[:, None] * ehat
        h = _distances(perp, 0.0)
        u_lo = -u0
        u_hi = L - u0

        if self.dim == 2:
            def F(u):
                r2 = u * u + h * h
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = 0.5 * u * np.log(r2) - u + h * np.arctan2(u, h)
                    on_line = u * np.log(np.abs(u)) - u  # 0 * -inf at an end
                return np.where(r2 == 0.0, 0.0, np.where(h == 0.0,
                                np.where(u == 0.0, 0.0, on_line), term))
            integral = F(u_hi) - F(u_lo)
            return self.weight / L * integral
        # d == 3: antiderivative of -1/sqrt(u^2+h^2); -inf on the segment up to rounding
        near = _ROUNDING * (_distances(pts, 0.0) + float(_distances(a, 0.0)) + L)
        on_axis = h <= near
        inside = on_axis & (u_lo <= near) & (u_hi >= -near)
        with np.errstate(divide="ignore", invalid="ignore"):
            safe_h = np.where(on_axis, 1.0, h)
            F_hi = -np.arcsinh(u_hi / safe_h)
            F_lo = -np.arcsinh(u_lo / safe_h)
            # h = 0, interval on one side of 0: integral of -1/|u|
            F_hi0 = np.where(u_hi > 0, -np.log(np.abs(u_hi)), np.log(np.abs(u_hi)))
            F_lo0 = np.where(u_lo > 0, -np.log(np.abs(u_lo)), np.log(np.abs(u_lo)))
        integral = np.where(on_axis, F_hi0 - F_lo0, F_hi - F_lo)
        integral = np.where(inside, -np.inf, integral)
        return self.weight / L * integral

    def distance_to(self, p) -> float:
        """The distance from the point p to the segment."""
        p = np.asarray(p, dtype=float)
        foot = self.at(self.feet(p[None, :], *self.span))[0]
        return float(_distances(foot, p))

    def overlaps(self, other: "UniformSegment") -> bool:
        """Whether the segments are collinear and share a piece (to 1e-12)."""
        ea, eb = np.subtract(self.end, self.start), np.subtract(other.end, other.start)
        off, na = np.subtract(other.start, self.start), self.length
        if (_cross_norm(ea, eb) > 1e-12 * na * other.length
                or _cross_norm(ea, off) > 1e-12 * na * max(1.0, float(_distances(off, 0.0)))):
            return False
        s0, s1 = (float(_dots(v, ea) / _dots(ea, ea)) for v in (off, off + eb))
        return min(max(s0, s1), 1.0) - max(min(s0, s1), 0.0) > 1e-12

    @property
    def span(self) -> tuple:
        return 0.0, 1.0

    def at(self, s):
        """The points x(s) = start + s (end - start), column-major (n, d)."""
        step = np.subtract(self.end, self.start)
        pts = np.empty((step.size, np.size(s))).T
        for k in range(step.size):
            pts[:, k] = self.start[k] + s * step[k]
        return pts

    def feet(self, pts, lo: float, hi: float):
        """The parameters of the points' projections, clipped to [lo, hi]."""
        step = np.subtract(self.end, self.start)
        return np.clip(_dots(pts - self.start, step) / _dots(step, step), lo, hi)

    def kernel_integrals(self, ends, pts):
        """integral_a^b k(|x(s) - p|) ds at each row p of pts for each piece
        [a, b] of ends, as (pieces, points) arrays: the potential at p of the
        segment [a, b] of mass b - a in the frame of start, and its rounding.
        It subtracts antiderivatives of |u| (|ln D| + 2) (d=2) or
        |asinh(u / h)| + 1 (d=3) at the ends (u the offset from p's foot, D
        the distance from p, h from the line), and the coordinates' rounding,
        eps scale, moves it by that times |k(D)| at both ends plus pi (d=2) or
        6 |k| nearest p (d=3): 16 eps (2 + scale (...)) per unit of s.  The
        points' offsets and feet are taken once; each piece's potential is
        its own call."""
        a, b = (np.array(col)[:, None] for col in zip(*ends))
        rel = pts - self.start
        step = np.subtract(self.end, self.start)
        length = self.length
        scale = _distances(rel, 0.0) + (np.abs(a) + np.abs(b)) * length
        dist = [_distances(rel, t[:, :, None] * step) for t in (a, b, self.feet(pts, a, b))]
        size = [np.abs(_kernel_values(self.dim, np.maximum(D, _ROUNDING * scale)))
                for D in dist]
        values = np.array([UniformSegment(tuple(s * step), tuple(t * step), t - s).potential(rel)
                           for s, t in ends])
        inner = 8.0 if self.dim == 2 else 6.0 * size[2]
        return values, _ROUNDING * (2.0 + scale * (size[0] + size[1] + inner)) / length


def _even_bernoulli(n: int) -> list:
    """B_2, B_4, ..., B_2n as exact fractions, from
    sum_{k=0}^{m} C(m + 1, k) B_k = 0 (m >= 1)."""
    b = [Fraction(1)]
    for m in range(1, 2 * n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[2::2]


# B_2k / (2k + 1)!, k = 1..12: the first term left out is below 5e-22 for |u| <= pi/3
_LI2_SERIES = tuple(float(b / math.factorial(2 * k + 1))
                    for k, b in enumerate(_even_bernoulli(12), start=1))


def _li2(w):
    """The dilogarithm Li2(w) = sum_{k>=1} w^k / k^2 at each entry of a complex
    array with |w| <= 1 (up to rounding), to about 2 eps max(1, |Li2|).

    Li2 = u - u^2/4 + sum_k B_2k / (2k + 1)! u^(2k + 1) with u = -ln(1 - w) for
    Re w <= 1/2 ('t Hooft & Veltman, Nucl. Phys. B153, 1979), where |u| <= pi/3;
    for Re w > 1/2 the series runs at 1 - w, and
    Li2(w) = pi^2/6 - ln w ln(1 - w) - Li2(1 - w) (Lewin 1981), whose product
    of logarithms is taken as 0 at w = 1."""
    reflect = w.real > 0.5
    v = np.where(reflect, 1.0 - w, w)
    u = -np.log1p(-v)
    u2 = u * u
    poly = _LI2_SERIES[-1]
    for c in _LI2_SERIES[-2::-1]:
        poly = poly * u2 + c
    series = u - 0.25 * u2 + u * u2 * poly
    logs = np.log(np.where(reflect, w, 1.0)) * np.log(np.where(reflect & (v != 0.0), v, 1.0))
    return np.where(reflect, math.pi ** 2 / 6.0 - logs - series, series)


@dataclass(frozen=True)
class UniformArc:
    """Uniform measure on a circular arc (d=2 only), parameterized by angle.

    angle_start < angle_end, width = angle_end - angle_start <= 2 pi; the full
    circle is width exactly 2 pi.
    """

    center: Point
    radius: float
    angle_start: float
    angle_end: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if len(self.center) != 2:
            raise ValueError("arc components are supported in dimension 2 only")
        _check_positive(self.radius, "arc radius")
        _check_weight(self.weight, "arc weight")
        if not 0.0 < self.width <= TWO_PI + 1e-12:
            raise ValueError("arc angular width must lie in (0, 2 pi]")

    @property
    def dim(self) -> int:
        return 2

    @property
    def width(self) -> float:
        return self.angle_end - self.angle_start

    def ball_mass(self, y, t) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        q = _distances(y, self.center)
        t_arr = np.asarray(t, dtype=float)
        w = self.width
        # sin^2(half / 2) = (t^2 - (q - rho)^2) / (4 rho q): the arccos of
        # (rho^2 + q^2 - t^2) / (2 rho q) loses t^2 against 2 rho^2 near q = rho
        with np.errstate(divide="ignore", invalid="ignore"):
            s2 = (t_arr * t_arr - (q - self.radius) ** 2) / (4.0 * self.radius * q)
            half = 2.0 * np.arcsin(np.sqrt(np.clip(s2, 0.0, 1.0)))
        phi = np.arctan2(y[..., 1] - self.center[1], y[..., 0] - self.center[0])
        # the covered interval [phi - half, phi + half] meets the support
        # [angle_start, angle_start + w] in its copies centred at c = c0 + 2 pi k
        # relative to angle_start, each over min(half, w - c) + min(half, c):
        # no length of order 1 is added to one of order half
        c0 = np.mod(phi - self.angle_start, TWO_PI)
        inter = sum(np.maximum(0.0, np.minimum(half, w - c) + np.minimum(half, c))
                    for c in (c0 - TWO_PI, c0, c0 + TWO_PI))
        inter = np.where(s2 >= 1.0, w, np.where(s2 <= 0.0, 0.0, inter))
        return np.where(q < 1e-15 * max(1.0, self.radius),  # y at the center
                        np.where(t_arr >= self.radius, self.weight, 0.0), self.weight * inter / w)

    def breakpoint_radii(self) -> list:
        q = float(_distances(self.center, 0.0))
        ends = [float(_distances(tip, 0.0)) for tip in self.at(np.array(self.span))]
        return [abs(q - self.radius), q + self.radius, *ends]

    def outer_radius(self) -> float:
        q = math.hypot(*self.center)
        candidates = []
        if q < 1e-15:
            return self.radius
        far = math.atan2(self.center[1], self.center[0])  # direction away from 0
        if self._angle_in_support(far):
            candidates.append(q + self.radius)
        for ang in self.span:
            candidates.append(math.hypot(*self.at(ang)[0]))
        return max(candidates)

    def _angle_in_support(self, ang: float) -> bool:
        return (ang - self.angle_start) % TWO_PI <= self.width + 1e-12

    def h_single(self, t: float) -> float:
        if t >= self.radius:
            return float(self.weight)
        ang = 2.0 * np.arcsin(np.clip(np.asarray(t, dtype=float) / self.radius, 0.0, 1.0))
        return float(self.weight * np.minimum(ang, self.width) / self.width)

    def dini_single(self, upper: float) -> float:
        """With t = rho sin(phi), h = (2 weight / W) phi up to t* = rho sin(theta*),
        theta* = min(W/2, pi/2), and h = weight above t* (for W > pi, h jumps
        to weight at t* = rho); h dt / t = h cot(phi) dphi, and GL16 gives
        integral_0^theta phi cot(phi) dphi to within 2e-16 relative on
        (0, pi/2] (the nearest pole of cot is at pi)."""
        theta_star = min(0.5 * self.width, 0.5 * math.pi)
        t_star = self.radius * math.sin(theta_star)
        theta = theta_star if upper >= t_star else math.asin(upper / self.radius)
        phi, wts = _gl_nodes(0.0, theta, 16)
        value = 2.0 * self.weight / self.width * float(_dots(wts, phi / np.tan(phi)))
        if upper > t_star:
            value += self.weight * math.log(upper / t_star)
        return value

    def potential(self, pts: np.ndarray) -> np.ndarray:
        """weight times the mean kernel of the whole arc (_mean_kernels)."""
        q = _distances(pts, self.center)
        log_far = np.log(np.maximum(q, self.radius))
        return self.weight * self._mean_kernels([self.span], pts, q, log_far)[0]

    def _mean_kernels(self, ends, pts, q, log_far):
        """The mean of ln|x(t) - p| over each piece [a, b] of ends at each row p
        of pts, as a (pieces, points) array, q the points' distances from the
        center and log_far ln max(q, rho): log_far - s Im[Li2(w e^{i s b}) -
        Li2(w e^{i s a})] / (b - a) with z = p - center, Li2 = _li2 at both
        ends of every piece in one call, and (s, w) = (1, rho / z) for q >= rho,
        (-1, z / rho) inside (Lewin, Polylogarithms and Associated Functions,
        1981); a full circle keeps the mean-value form log_far."""
        a, b = (np.array(col)[:, None] for col in zip(*ends))
        width = b - a
        means = np.repeat(log_far[None, :], len(a), axis=0)
        part = np.flatnonzero(np.abs(width[:, 0] - TWO_PI) > 1e-12)
        if part.size:
            z = (pts[:, 0] - self.center[0]) + 1j * (pts[:, 1] - self.center[1])
            outside = q >= self.radius
            sign = np.where(outside, 1.0, -1.0)
            base = np.where(outside, self.radius / np.where(outside, z, 1.0), z / self.radius)
            li2 = _li2(base * np.exp(1j * sign * np.concatenate((b[part], a[part]))))
            means[part] = log_far - sign * (li2[:part.size] - li2[part.size:]).imag / width[part]
        return means

    def distance_to(self, p: np.ndarray) -> float:
        """Distance from p to the full circle: a lower bound of the distance
        to the arc.  The scenario generators reject points on exactly this
        value, so it stays the circle distance."""
        return abs(float(_distances(p, self.center)) - self.radius)

    def overlaps(self, other: "UniformArc") -> bool:
        """Whether the arcs lie on one circle and share an arc (to 1e-12)."""
        tol = 1e-12 * max(1.0, self.radius)
        if _distances(self.center, other.center) > tol or abs(self.radius - other.radius) > tol:
            return False
        rel = (other.angle_start - self.angle_start) % (2.0 * math.pi)
        return rel < self.width - 1e-12 or rel + other.width > 2.0 * math.pi + 1e-12

    @property
    def span(self) -> tuple:
        return self.angle_start, self.angle_end

    def at(self, t):
        """The points x(t) = center + radius (cos t, sin t), column-major (n, 2)."""
        (cx, cy), r, pts = self.center, self.radius, np.empty((2, np.size(t))).T
        pts[:, 0], pts[:, 1] = cx + r * np.cos(t), cy + r * np.sin(t)
        return pts

    def feet(self, pts, lo: float, hi: float):
        """The angles in [lo, hi] of the points about the center."""
        c = self.center
        ang = lo + np.mod(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]) - lo, TWO_PI)
        return ang[ang <= hi]

    def kernel_integrals(self, ends, pts):
        """integral_a^b k(|x(t) - p|) dt at each row p of pts for each piece
        [a, b] of ends, as (pieces, points) arrays: the potential at p of the
        arc [a, b] of mass b - a, (b - a) times its _mean_kernels row, and
        its rounding: 16 eps times what it subtracts, (b - a) ln F
        (F = max(|p - c|, radius)) and two dilogarithms of at most pi^2 / 6,
        plus the coordinates' rounding, scale / radius, times their slope
        |ln(D / F)| + 2 at each end, D its distance from p."""
        a, b = (np.array(col)[:, None] for col in zip(*ends))
        width = b - a
        q = _distances(pts, self.center)
        far = np.maximum(q, self.radius)
        log_far = np.log(far)
        scale = _distances(pts, 0.0) + math.hypot(*self.center) + self.radius
        tips = self.at(np.concatenate((a, b))[:, 0])
        slope = np.abs(np.log(np.maximum(_distances(pts, tips[:, None, :]), _ROUNDING * scale)
                              / far))
        values = width * self._mean_kernels(ends, pts, q, log_far)
        return values, _ROUNDING * (width * np.abs(log_far) + 4.0
                                    + scale / self.radius * (slope[:len(a)] + slope[len(a):] + 4.0))


@dataclass(frozen=True)
class UniformBall:
    """Uniform measure on a solid ball (area for d=2, volume for d=3)."""

    center: Point
    radius: float
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if len(self.center) not in (2, 3):
            raise ValueError("ball components are supported in dimensions 2 and 3")
        _check_positive(self.radius, "ball radius")
        _check_weight(self.weight, "ball weight")

    @property
    def dim(self) -> int:
        return len(self.center)

    def ball_mass(self, y, t) -> np.ndarray:
        q = _distances(y, self.center)
        rho = self.radius
        t_arr = np.asarray(t, dtype=float)
        if self.dim == 2:
            inter = _lens_area_2d(t_arr, rho, q)
            frac = inter / (math.pi * rho * rho)
        else:
            inter = _lens_volume_3d(t_arr, rho, q)
            frac = inter / (4.0 / 3.0 * math.pi * rho ** 3)
        return np.asarray(self.weight * frac)

    def breakpoint_radii(self) -> list:
        q = float(_distances(self.center, 0.0))
        return [max(0.0, q - self.radius), q, q + self.radius]

    def second_order(self, y, t: float, delta: float):
        """(g, L) for m(y) = mu(B_y(t)) at the centers y, an (n, 2) array: the
        gradient g of m at each center and a bound L of the norm of its
        Hessian on the ball of radius delta around it (a disk: d=2).  With
        A(q) the lens area at center distance q, A'(q) = -sqrt(s) / q (minus
        the chord) and A'' = -2 (t^2 + rho^2 - q^2) / sqrt(s) + sqrt(s) / q^2,
        where s = -(q^2 - (t + rho)^2)(q^2 - (t - rho)^2) = (2 t rho)^2 -
        (q^2 - t^2 - rho^2)^2 is a concave parabola in q^2; the Hessian norm
        is max(|A''|, |A'| / q), bounded from the extremes of s on
        [q - delta, q + delta].  L is inf (and g 0) unless that interval lies
        inside (|t - rho|, t + rho) and above 0; outside it m is constant,
        where the first-order cover is exact.  The interval and s are widened
        by _ROUNDING against their rounding.  g and L broadcast against the
        centers: they are (0, inf) when delta >= min(t, rho)."""
        rho = self.radius
        if delta >= min(t, rho):  # wider than (|t - rho|, t + rho): no cell is smooth
            return 0.0, math.inf
        vertex, width = t * t + rho * rho, (2.0 * t * rho) ** 2
        err = _ROUNDING * (t + rho) ** 4
        q = _distances(y, self.center)
        # q rounds on the scale |y| + |center| <= 2 |center| + t + rho + delta
        # wherever the interval can lie inside (|t - rho|, t + rho)
        wide = delta + _ROUNDING * (2.0 * self.outer_radius() + t + 2.0 * delta)
        lo = q - wide
        ul, uh, q2 = lo * lo, (q + wide) ** 2, q * q
        dev = np.maximum(vertex - ul, uh - vertex)  # the largest |q^2 - vertex|
        s_min = (width - err) - dev * dev
        s_max = (width + err) - np.maximum(np.maximum(ul - vertex, vertex - uh), 0.0) ** 2
        scale = self.weight / (math.pi * rho * rho)
        with np.errstate(invalid="ignore", divide="ignore"):
            bound = scale * (2.0 * dev / np.sqrt(s_min) + np.sqrt(s_max) / ul)
            slope = scale * np.sqrt(np.maximum(width - (q2 - vertex) ** 2, 0.0)) / q2
        smooth = (lo > 0.0) & (s_min > 0.0)
        g = np.where(smooth, slope, 0.0)[:, None] * np.subtract(self.center, y)
        return g, np.where(smooth, bound, np.inf)

    def outer_radius(self) -> float:
        return math.hypot(*self.center) + self.radius

    def h_single(self, t: float) -> float:
        ratio = np.clip(np.asarray(t, dtype=float) / self.radius, 0.0, 1.0)
        return float(self.weight * ratio ** self.dim)

    def dini_single(self, upper: float) -> float:
        """h / t^{d-1} = weight * t / rho^d up to rho, weight / t^{d-1} after."""
        rho = self.radius
        if upper <= rho:
            return self.weight * upper * upper / (2.0 * rho ** self.dim)
        if self.dim == 2:
            return self.weight * (0.5 + math.log(upper / rho))
        return self.weight * (1.5 / rho - 1.0 / upper)

    def potential(self, pts: np.ndarray) -> np.ndarray:
        q = _distances(pts, self.center)
        rho = self.radius
        if self.dim == 2:
            with np.errstate(divide="ignore"):
                outside = np.log(np.maximum(q, rho))
            inside = math.log(rho) - 0.5 + q * q / (2.0 * rho * rho)
            return self.weight * np.where(q >= rho, outside, inside)
        with np.errstate(divide="ignore"):
            outside = -1.0 / np.maximum(q, rho)
        inside = -(3.0 * rho * rho - q * q) / (2.0 * rho ** 3)
        return self.weight * np.where(q >= rho, outside, inside)

    def distance_to(self, p: np.ndarray) -> float:
        return max(0.0, float(_distances(p, self.center)) - self.radius)

    def overlaps(self, other: "UniformBall") -> bool:
        """Whether the centers are closer than the sum of the radii (to 1e-12)."""
        return bool(_distances(self.center, other.center) < self.radius + other.radius - 1e-12)


def _lens_area_2d(t, rho, q):
    """Area of intersection of disks of radii t (center distance q) and rho,
    for scalar or broadcasting array inputs, which it leaves unchanged; its
    own temporaries are clamped and filled in place."""
    t = np.asarray(t, dtype=float)
    q2, t2, rho2 = q * q, t * t, rho * rho
    qpt, qmt = q + t, q - t
    with np.errstate(invalid="ignore", divide="ignore"):
        a1 = np.asarray((q2 + t2 - rho2) / (2.0 * q * t))
        a2 = np.asarray((q2 + rho2 - t2) / (2.0 * q * rho))
        # (-q + t + rho) (q + t - rho) (q - t + rho) (q + t + rho), the same floats
        s = np.asarray((rho - qmt) * (qpt - rho) * (qmt + rho) * (qpt + rho))
        for a in (a1, a2):
            np.arccos(np.minimum(np.maximum(a, -1.0, out=a), 1.0, out=a), out=a)
        out = np.asarray(t2 * a1 + rho2 * a2 - 0.5 * np.sqrt(np.maximum(s, 0.0, out=s), out=s))
    np.copyto(out, math.pi * t * t, where=qpt <= rho)
    np.copyto(out, math.pi * rho * rho, where=q + rho <= t)
    np.copyto(out, 0.0, where=t + rho <= q)
    return out


def _lens_volume_3d(t, rho, q):
    """Volume of intersection of balls of radii t (center distance q) and rho."""
    t = np.asarray(t, dtype=float)
    full_small = 4.0 / 3.0 * math.pi * t ** 3
    full_rho = 4.0 / 3.0 * math.pi * rho ** 3
    with np.errstate(invalid="ignore", divide="ignore"):
        # (t - rho)^2 grouped: the expanded -3t^2 + 6 rho t - 3 rho^2 cancels
        # for near-concentric balls
        lens = (math.pi * (t + rho - q) ** 2
                * (q * q + 2.0 * q * (t + rho) - 3.0 * (t - rho) ** 2) / (12.0 * q))
    out = np.where(t + rho <= q, 0.0,
                   np.where(q + rho <= t, full_rho,
                            np.where(q + t <= rho, full_small, lens)))
    return out


@dataclass(frozen=True)
class BorelMeasure:
    """A finite positive Borel measure on R^dim given as a tuple of primitive
    components, each of dimension dim.

    support_radius, computed from the components, is the smallest r with the
    support contained in the closed ball B(0, r).
    """

    components: tuple
    dim: int
    support_radius: float = field(init=False)

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        _check_dimension(self.dim)
        if any(c.dim != self.dim for c in comps):
            raise ScenarioError("DIMENSION", f"every component must have the measure's "
                                f"dimension {self.dim}, got {sorted({c.dim for c in comps})}")
        object.__setattr__(self, "support_radius",
                           max((c.outer_radius() for c in comps), default=0.0))

    @property
    def mass(self) -> float:
        return sum(c.weight for c in self.components)

    @property
    def atoms(self) -> list:
        return [c for c in self.components if isinstance(c, Atom)]

    @property
    def continuous(self) -> "BorelMeasure":
        """The measure without its atoms."""
        return BorelMeasure(tuple(c for c in self.components if not isinstance(c, Atom)), self.dim)


def radial_counting(mu: BorelMeasure, y, t):
    """mu(closed ball of radius t centered at the point y); exact per
    component.  A float for a scalar t, else an array of t's shape."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):  # False for NaN too
        raise ValueError("radius t must be >= 0")
    y = _as_point(y)
    total = mu.components[0].ball_mass(y, t) if mu.components else np.zeros_like(t)
    for c in mu.components[1:]:
        total = total + c.ball_mass(y, t)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# modulus of continuity


def _atomic_h_exact_2d(mu: BorelMeasure, t: float) -> float:
    """Exact h for purely atomic mu in d=2 via two-atom candidate centers."""
    merged: dict = {}
    for a in mu.atoms:
        merged[a.point] = merged.get(a.point, 0.0) + a.weight
    keys = sorted(merged)
    pts = np.array(keys, dtype=float).reshape(len(keys), -1)
    wts = np.array([merged[k] for k in keys], dtype=float)
    scale = max(1.0, float(np.max(np.abs(pts))), t)
    tol = 1e-12 * scale
    cands = [pts]
    if t > 0:  # each pair at most 2t apart: its midpoint, or both centres at distance t
        i, j = np.triu_indices(len(pts), 1)
        q = _distances(pts[j], pts[i])
        near = (q <= 2.0 * t + tol) & (q != 0.0)
        a, b, q = pts[i[near]], pts[j[near]], q[near]
        mid, off2 = 0.5 * (a + b), t * t - 0.25 * q * q
        two = off2 > 0.0
        normal = (b - a)[two][:, ::-1] * (-1.0, 1.0) / q[two][:, None]
        offset = np.sqrt(off2[two])[:, None] * normal
        cands += [mid[~two], mid[two] + offset, mid[two] - offset]
    centers = np.vstack(cands)
    v = centers[:, None, :] - pts[None, :, :]
    covered = _dots(v, v) <= (t + tol) ** 2
    return float(_dots(covered, wts).max())


_BEAM = 4096  # most cells split per level, 1/16 of it once the bracket is open
_BRACKET_TOL = 1e-12  # closing gap of the bracket, relative to max(1, mass)


def _modulus_bracket(mu: BorelMeasure, t: float) -> tuple:
    """(lower, upper) around h_mu(t) by interval branch and bound over centers
    (Hansen, Global Optimization Using Interval Analysis, 1992).  The root is
    the cube of half-side support_radius + t around 0.  A cell with center c
    and half-diagonal delta lies between mu(B_c(t)) and sum_i min(h_i(t),
    mu_i(B_c(t + delta))), as B_y(t) lies in B_c(t + delta) for every y in
    it.  That first-order cover overshoots by O(delta) at an interior
    maximum, where the live cells then grow like 1/delta (the cluster
    problem of Du and Kearfott, J. Global Optim. 5, 1994), so a cell it
    leaves live takes the smaller of it and the second-order cover of
    _second_order_cover, Taylor's bound at c, when d=2 and every component
    has a second-order term (disks), decided once per call.  Cells within
    tol of the best lower bound are dropped, the rest split in 2^d, down to
    1e-13 of the root; past the beam only the live cells with the largest
    upper + lower are split, the others keeping their upper bounds.  The
    beam is _BEAM while the bracket can still close and _BEAM // 16 once a
    discarded cover holds it open, where more levels barely raise the lower
    end; that stays mu(B_c(t)) at a real center c."""
    comps, d = mu.components, mu.dim
    caps = np.array([[c.h_single(t)] for c in comps])
    tol = _BRACKET_TOL * max(1.0, mu.mass)
    half = mu.support_radius + t
    smallest = 1e-13 * half
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    centers = np.zeros((1, d))
    best = upper = 0.0
    taylor = d == 2 and all(hasattr(c, "second_order") for c in comps)
    while True:
        delta = half * math.sqrt(d)  # the half-diagonal
        radii = np.array([[t], [t + delta]])
        masses = np.array([c.ball_mass(centers, radii) for c in comps])
        lower = masses[:, 0].sum(axis=0)
        best = max(best, float(lower.max()))
        first = np.minimum(caps, masses[:, 1])
        cover = first.sum(axis=0)
        live = cover > best + tol
        if taylor and live.any():
            cover[live] = np.minimum(cover[live], _second_order_cover(
                comps, centers[live], t, delta, masses[:, 0, live], first[:, live], mu.mass))
            live = cover > best + tol
        upper = max(upper, float(cover[~live].max(initial=0.0)))
        centers, cover, lower = centers[live], cover[live], lower[live]
        if not len(centers) or half < smallest:
            break
        beam = _BEAM if upper <= best + tol else _BEAM // 16
        if len(centers) > beam:
            order = np.argpartition(-(cover + lower), beam - 1)
            upper = max(upper, float(cover[order[beam:]].max()))
            centers = centers[order[:beam]]
        half *= 0.5
        centers = (centers[:, None, :] + half * corners).reshape(-1, d)
    upper = max(upper, float(cover.max(initial=0.0)), best)
    return min(best, mu.mass), min(upper, mu.mass)


def _second_order_cover(comps, centers, t, delta, at_center, first, mass):
    """Upper bound of mu(B_y(t)) over |y - c| <= delta at the centers c, for a
    2-d mu of components with second_order:  sum m_i(c) + |sum grad m_i(c)|
    delta + 1/2 sum L_i delta^2 over the components with a finite L_i at c,
    plus the first-order term first_i of the others.  at_center and first are
    (components, centers) arrays.  Each |grad m_i| delta is at most 2 / pi of
    the component's mass (a disk's chord is at most 2 min(t, rho), and delta
    at most min(t, rho) where L_i is finite), so a relative _ROUNDING and
    _ROUNDING times twice the mass widen the sum against the rounding of
    what it adds to the masses m_i(c), which are the lower end's own."""
    total = np.zeros(len(centers))
    grad = np.zeros_like(centers)
    for comp, m, f in zip(comps, at_center, first):
        g, bound = comp.second_order(centers, t, delta)
        total += np.where(np.isfinite(bound), m + 0.5 * delta * delta * bound, f)
        grad += g
    return total * (1.0 + _ROUNDING) + _distances(grad, 0.0) * delta + 2.0 * _ROUNDING * mass


def modulus_of_continuity(mu: BorelMeasure, t: float) -> float:
    """h_mu(t) = sup_y mu(B_y(t)): exact when certifiable, else a certified
    lower bound (see modulus_profile for the per-point exactness flag)."""
    return _modulus(mu, t, "auto")[0]


def _modulus(mu: BorelMeasure, t: float, method: str) -> tuple:
    """(h_mu(t), flag): the exact value where certifiable (the zero measure;
    one component, whose sup is attained at the symmetric optimum; atoms in
    d=2), else the subadditive upper bound (method "upper") or the lower end
    of the branch-and-bound bracket, "exact" when the bracket closes to
    within its tolerance.  The one choice behind modulus_of_continuity and
    modulus_profile."""
    if method not in ("auto", "upper"):
        raise ValueError(f"method must be 'auto' or 'upper', got {method!r}")
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if not mu.components:
        return 0.0, "exact"
    if len(mu.components) == 1:
        return mu.components[0].h_single(t), "exact"
    if not mu.continuous.components and mu.dim == 2:
        return _atomic_h_exact_2d(mu, t), "exact"
    if method == "upper":
        return sum(c.h_single(t) for c in mu.components), "upper-bound"
    lower, upper = _modulus_bracket(mu, t)
    closed = upper <= lower + _BRACKET_TOL * max(1.0, mu.mass)
    return lower, "exact" if closed else "lower-bound"


@dataclass(frozen=True)
class ModulusProfile:
    """h_mu sampled on an increasing grid, with a per-point exactness flag:
    "exact", "lower-bound" (branch and bound left a gap) or "upper-bound"
    (subadditivity), and mu's mass and dimension."""

    radii: tuple
    values: tuple
    flags: tuple
    mass: float
    dim: int

    def __post_init__(self):
        if len(self.radii) != len(self.values) or len(self.radii) != len(self.flags):
            raise ValueError("radii, values and flags must have equal length")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")


def modulus_profile(mu: BorelMeasure, radii: Sequence[float],
                    method: str = "auto") -> ModulusProfile:
    """Sample h_mu on a grid.

    method="auto" uses the exact value where certifiable and the certified
    lower bound otherwise; "upper" uses the subadditive upper bound for the
    non-certifiable points (what inequality verification wants).
    """
    radii = tuple(float(t) for t in radii)
    pairs = [_modulus(mu, t, method) for t in radii]
    return ModulusProfile(radii, tuple(v for v, _ in pairs),
                          tuple(flag for _, flag in pairs), mu.mass, mu.dim)


# ---------------------------------------------------------------------------
# integrated counting function N_mu(r, R)


_COUNTING_TOL = 1e-10


def _exact_atomic_counting(d: int, atoms: Iterable[Atom], r: float, R: float) -> float:
    total = 0.0
    kR = kernel(d, R)
    for a in atoms:
        ti = a.outer_radius()  # |a.point|
        if ti >= R:
            continue
        lo = max(ti, r)
        total += a.weight * (kR - kernel(d, lo))  # +inf when r=ti=0
    return total


def integrated_counting_result(mu: BorelMeasure, r: float, R: float) -> QuadratureResult:
    """N_mu(r, R) = d_hat * integral_r^R mu(B_0(t)) / t^{d-1} dt, d = mu.dim.

    Exact (piecewise kernel differences) for the atoms; one adaptive
    quadrature over [r, R], with the breakpoint radii as piece ends, for the
    continuous components.  +inf when the integral diverges at r = 0: an atom at the
    origin, or a continuous component within _RESOLUTION R of the origin whose
    closed-form Dini integral is +inf.
    """
    if not 0.0 <= r < R:
        raise ValueError(f"need 0 <= r < R, got ({r}, {R})")
    d = mu.dim
    origin = (0.0,) * d
    rest = mu.continuous
    value = _exact_atomic_counting(d, mu.atoms, r, R)
    if not rest.components:
        return QuadratureResult(value, 0.0, 0)
    # dini_single is +inf for a carrier of dimension at most d - 2 (a segment
    # in d = 3): its mass near any of its points grows like t^{d-2} or
    # slower, so mass / t^{d-1} is not integrable at a point of it either.
    # That one fact decides both divergences: the protocol needs no new member.
    # A float segment through the origin misses it by rounding; _RESOLUTION R
    # is the width below which integrate_interval drops a panel anyway.
    if r == 0.0 and any(math.isinf(c.dini_single(R))
                        and c.distance_to(origin) <= _RESOLUTION * R for c in rest.components):
        return QuadratureResult(math.inf, 0.0, 0)
    d_hat = float(_d_hat(d))
    power = d - 1

    def integrand(t):
        return d_hat * radial_counting(rest, origin, t) / t ** power

    breakpoints = [b for c in rest.components for b in c.breakpoint_radii() if r < b < R]
    res = integrate_interval(integrand, r, R, breakpoints, _COUNTING_TOL)
    return QuadratureResult(value + res.value, res.error_estimate, res.nodes_used)


# ---------------------------------------------------------------------------
# Dini integral of h_mu


def dini_integral_result(mu: BorelMeasure, upper: float) -> QuadratureResult:
    """integral_0^upper h(t) / t^{d-1} dt, d = mu.dim, for h the sum of the
    components' h_single: h_mu itself for one component, else its subadditive upper
    bound (each h_single is at most its weight, so the sum never exceeds
    the mass).  The sum of the closed-form dini_single values; the error
    estimate is a rounding bound and no node is spent.  +inf, the divergence
    verdict, exactly when an atom is present or a segment in d=3."""
    if not upper > 0:
        raise ValueError("upper must be > 0")
    total = math.fsum(c.dini_single(upper) for c in mu.components)
    if math.isinf(total):
        return QuadratureResult(math.inf, 0.0, 0)
    return QuadratureResult(total, _ROUNDING * total, 0)


@dataclass(frozen=True)
class DiniLimitsReport:
    """Observed tail behavior of h and h * k_{d-2} near t = 0 on a grid."""

    t_min: float
    h_at_min: float
    hk_at_min: float
    h_to_zero: bool
    hk_to_zero: bool


_LIMIT_TOL = 1e-6  # "-> 0" on the grid: at most this, relative to max(1, mass)


def dini_limits_check(profile: ModulusProfile) -> DiniLimitsReport:
    """Check on the profile grid that h(t) -> 0 and h(t) k(t) -> 0 as t -> 0,
    k the kernel in the profile's dimension."""
    d = profile.dim
    t0 = profile.radii[0]
    h0 = profile.values[0]
    hk0 = ext_mul(h0, float(kernel(d, t0)))
    thresh = _LIMIT_TOL * max(1.0, profile.mass)
    return DiniLimitsReport(
        t_min=t0,
        h_at_min=h0,
        hk_at_min=hk0,
        h_to_zero=bool(h0 <= thresh),
        hk_to_zero=bool(abs(hk0) <= thresh),
    )
