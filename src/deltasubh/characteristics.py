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

A positive part along a path (here and in lab) is integrated by
_integral_by_sign over the pieces where the sign of U is constant, so a kink
of U^+ is a panel edge; other means are _sphere_mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import DimensionContext
from .measures import integrated_counting_result
from .potentials import (
    DeltaSubharmonicFn,
    MeromorphicFn,
    canonical_representation,
    jordan_decomposition,
)
from .quadrature import (QuadratureResult, circle_mean, integrate_interval, sphere_mean_3d,
                         sphere_sup)

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

@dataclass(frozen=True)
class CharacteristicRecord:
    kind: str  # C_mean | M_sup | m_classical | N_classical | T_classical | T_difference
    r: float
    value: float
    error_estimate: float
    R: Optional[float] = None
    transform: str = "identity"


def _circle_points(r: float, theta: np.ndarray) -> np.ndarray:
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _sphere_points(r: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    return np.column_stack([r * st * np.cos(phi), r * st * np.sin(phi),
                            r * np.cos(theta)])


def _on_sphere(values, r: float, dim: int):
    """The angle integrand of a points -> values function on the sphere
    |x| = r: g(theta) on the circle for d=2, g(theta, phi) for d=3."""
    if dim == 2:
        return lambda theta: values(_circle_points(r, theta))
    if dim == 3:
        return lambda theta, phi: values(_sphere_points(r, theta, phi))
    raise ValueError(f"sphere quadrature supports d in (2, 3), got {dim}")


def _sphere_mean(values, r: float, dim: int, points, tol: float):
    """Mean of values over the sphere |x| = r; in d=2 the angles of the
    points near the circle are split points (see _angles_near_circle)."""
    g = _on_sphere(values, r, dim)
    if dim == 2:
        return circle_mean(g, _angles_near_circle(points, r), tol)
    return sphere_mean_3d(g, tol)


def _charge_atom_points(U: DeltaSubharmonicFn) -> list:
    """Points of the atoms of both Riesz measures of U, as float arrays."""
    return [np.asarray(c.point, dtype=float) for c in U.u.riesz.atoms + U.v.riesz.atoms]


def _angles_near_circle(points, r: float) -> list:
    """Angles of the d=2 points within 5 % of r of the circle |x| = r, where
    integrands on it peak or dip: the singular points of circle and arc means."""
    return [math.atan2(p[1], p[0]) for p in points
            if abs(float(np.hypot(p[0], p[1])) - r) <= 0.05 * max(r, 1e-300)]


def _sign_changes(evaluator, x, fx) -> list:
    """Where the class evaluator > 0 (which 0, NaN and -inf are all outside)
    flips between scan nodes x[i] < x[i + 1] of values fx: the midpoints
    after 48 bisections, one evaluator call per step for all brackets."""
    up = fx > 0.0
    i = np.flatnonzero(up[:-1] != up[1:])
    lo, hi, lo_up = x[i], x[i + 1], up[i]
    for _ in range(48 if i.size else 0):
        mid = 0.5 * (lo + hi)
        same = (np.asarray(evaluator(mid), dtype=float) > 0.0) == lo_up
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return (0.5 * (lo + hi)).tolist()


def _integral_by_sign(signed, pos, lo: float, hi: float, singular, tol: float,
                      neg=None) -> QuadratureResult:
    """Integral over [lo, hi] of pos where signed > 0 and of neg (0 if None)
    elsewhere, to the absolute tolerance tol.  Pieces end at the class flips
    _sign_changes finds on a closed 2048-node grid (a full period wraps) plus
    the singular points, all in [lo, hi], so no piece about one hides in a
    cell; none is wider than (hi - lo) / 8, and each is one integrate_interval
    call, singular at the singular points inside it, to its share of tol."""
    x = np.union1d(lo + (hi - lo) * np.arange(2049) / 2048, singular)
    fx = np.asarray(signed(x), dtype=float)
    edges = [lo] + _sign_changes(signed, x, fx) + [hi]
    cap = (hi - lo) / 8.0
    total = QuadratureResult(0.0, 0.0, 0)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        g = pos if (fx[0] > 0.0) != (k % 2 == 1) else neg  # classes alternate
        if g is None or not a < b:
            continue
        cuts = np.linspace(a, b, math.ceil((b - a) / cap) + 1).tolist()
        for c, d in zip(cuts[:-1], cuts[1:]):
            total = total + integrate_interval(
                g, c, d, [t for t in singular if c <= t <= d], tol * (d - c) / (hi - lo))
    return total


def _circle_by_sign(signed, pos, r: float, points, tol: float, neg=None) -> QuadratureResult:
    """Mean over |x| = r of the angle integrand of _integral_by_sign, singular
    at the angles in [0, 2 pi] of the points near the circle (0 and 2 pi both)."""
    ends = [a % TWO_PI for a in _angles_near_circle(points, r)]
    angles = ends + [TWO_PI - a for a in ends if a in (0.0, TWO_PI)]
    res = _integral_by_sign(signed, pos, 0.0, TWO_PI, angles, tol * TWO_PI, neg)
    return res.scaled(1.0 / TWO_PI)


def spherical_mean(U: DeltaSubharmonicFn, r: float, transform: str = "identity",
                   tol: float = 1e-8) -> CharacteristicRecord:
    """C over the sphere of radius r of U, or of U^+ (transform "positive")."""
    if not r > 0:
        raise ValueError("r must be > 0")
    if transform not in ("identity", "positive"):
        raise ValueError(f"unknown transform {transform!r}")
    positive = transform == "positive"
    # polar entries of U.values stay NaN; the quadrature nudges those nodes
    if positive and U.dim == 2:
        res = _circle_by_sign(_on_sphere(U.values, r, 2), _on_sphere(U.positive_values, r, 2),
                              r, _charge_atom_points(U), tol)
    else:
        res = _sphere_mean(U.positive_values if positive else U.values, r, U.dim,
                           _charge_atom_points(U), tol)
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
    """m(r, f): circle mean of ln^+ |f| over the arcs where |f| > 1, singular
    at the zeros and poles near the circle (a zero's arc costs nothing)."""
    if not r > 0:
        raise ValueError("r must be > 0")

    def log_abs(theta):
        return f.log_abs(r * np.exp(1j * theta))

    res = _circle_by_sign(log_abs, lambda theta: np.maximum(log_abs(theta), 0.0), r,
                          [(a.real, a.imag) for a, _ in f.zeros + f.poles], tol)
    return CharacteristicRecord("m_classical", r, res.value, res.error_estimate)


def nevanlinna_N(f: MeromorphicFn, r: float) -> CharacteristicRecord:
    """N(r, f) from the pole list: exact piecewise-log closed form.

    N(0, f) is 0 when f has no pole at the origin and -inf otherwise.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
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
    ctx = DimensionContext(U.dim)
    _plus, minus = jordan_decomposition(U)
    c_plus = spherical_mean(U, R, "positive", tol)
    n_minus = integrated_counting_result(ctx, minus, r, R)
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
    u_star, v_star = canonical_representation(U, R)
    atoms = _charge_atom_points(DeltaSubharmonicFn(u_star, v_star))
    if U.dim == 2:  # u* where u* > v*, v* elsewhere
        sup_mean = _circle_by_sign(
            _on_sphere(lambda pts: u_star.values(pts) - v_star.values(pts), R, 2),
            _on_sphere(u_star.values, R, 2), R, atoms, tol, _on_sphere(v_star.values, R, 2))
    else:
        sup_mean = _sphere_mean(lambda pts: np.maximum(u_star.values(pts), v_star.values(pts)),
                                R, U.dim, atoms, tol)
    v_mean = _sphere_mean(v_star.values, r, U.dim, atoms, tol)
    return CharacteristicRecord(
        "T_difference", r, sup_mean.value - v_mean.value,
        sup_mean.error_estimate + v_mean.error_estimate, R=R,
    )
