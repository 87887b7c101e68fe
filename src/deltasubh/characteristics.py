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

The split, kink and sphere rules of these quadratures live here, and lab
reuses them: _angles_near_circle, _sign_changes and _sphere_mean.
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
from .quadrature import circle_mean, sphere_mean_3d, sphere_sup

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


def _sphere_mean(values, r: float, dim: int, angles, tol: float):
    """Mean of values over the sphere |x| = r; the split angles are used in
    d=2 only."""
    g = _on_sphere(values, r, dim)
    if dim == 2:
        return circle_mean(g, angles, tol)
    return sphere_mean_3d(g, tol)


def _charge_atom_points(U: DeltaSubharmonicFn) -> list:
    """Points of the atoms of both Riesz measures of U, as float arrays."""
    return [np.asarray(c.point, dtype=float) for c in U.u.riesz.atoms + U.v.riesz.atoms]


def _angles_near_circle(points, r: float) -> list:
    """Angles of the d=2 points within 5 % of r of the circle |x| = r, where
    integrands on it peak or dip: the split rule of _circle_splits (charge
    atoms), nevanlinna_m (zeros, poles) and lab._arc_integral (about its centre)."""
    return [math.atan2(p[1], p[0]) for p in points
            if abs(float(np.hypot(p[0], p[1])) - r) <= 0.05 * max(r, 1e-300)]


def _sign_changes(evaluator, lo, hi, f_lo, f_hi, steps: int) -> list:
    """Sign changes of evaluator between scan nodes lo[i] < hi[i] whose values
    f_lo[i], f_hi[i] are finite with opposite signs: the midpoints after
    `steps` bisections, one evaluator call per step for all brackets; a
    bracket stops early at a non-finite or zero midpoint value.  The kink
    scan of _sign_change_angles (a circle) and lab._arc_integral (an arc)."""
    with np.errstate(over="ignore", invalid="ignore"):
        i = np.flatnonzero(np.isfinite(f_lo) & np.isfinite(f_hi) & (f_lo * f_hi < 0.0))
    lo, hi, f_lo = (np.asarray(v, dtype=float)[i] for v in (lo, hi, f_lo))
    open_ = np.arange(lo.size)
    for _ in range(steps):
        if not open_.size:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        fm = np.asarray(evaluator(mid), dtype=float)
        go = np.isfinite(fm) & (fm != 0.0)
        up = go & ((fm > 0) == (f_lo[open_] > 0))
        down = go & ~up
        lo[open_[up]], f_lo[open_[up]] = mid[up], fm[up]
        hi[open_[down]] = mid[down]
        open_ = open_[go]
    return list(0.5 * (lo + hi))


def _sign_change_angles(evaluator, n: int = 2048) -> list:
    """Angles where the (continuous off polar) integrand changes sign;
    located by a dense scan plus bisection, used as kink split points."""
    theta = TWO_PI * np.arange(n) / n
    vals = np.asarray(evaluator(theta), dtype=float)
    return _sign_changes(evaluator, theta, theta + TWO_PI / n, vals, np.roll(vals, -1), 48)


def _circle_splits(U: DeltaSubharmonicFn, r: float, kinks: bool) -> list:
    """Split angles of a mean over |x| = r (none in d=3): charge atoms near the
    circle and, with kinks, the sign changes of U on it."""
    if U.dim != 2:
        return []
    angles = _angles_near_circle(_charge_atom_points(U), r)
    if kinks:
        angles += _sign_change_angles(
            _on_sphere(lambda pts: U.values_with_polar(pts)[0], r, 2))
    return angles


def spherical_mean(U: DeltaSubharmonicFn, r: float, transform: str = "identity",
                   tol: float = 1e-8) -> CharacteristicRecord:
    """C over the sphere of radius r of U, or of U^+ (transform "positive")."""
    if not r > 0:
        raise ValueError("r must be > 0")
    if transform not in ("identity", "positive"):
        raise ValueError(f"unknown transform {transform!r}")
    positive = transform == "positive"
    # polar entries of U.values stay NaN; the quadrature nudges those nodes
    values = U.positive_values if positive else U.values
    res = _sphere_mean(values, r, U.dim, _circle_splits(U, r, positive), tol)
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
    """m(r, f): circle mean of ln^+ |f|.

    The split points are the angles of the zeros and poles within 5 % of r
    of the circle and the kinks where |f| crosses 1, so the adaptive rule
    keeps spectral accuracy per panel.
    """
    if not r > 0:
        raise ValueError("r must be > 0")

    def log_abs(theta):
        return f.log_abs(r * np.exp(1j * theta))

    angles = _angles_near_circle([(a.real, a.imag) for a, _ in f.zeros + f.poles], r)
    angles += _sign_change_angles(log_abs)
    res = circle_mean(lambda theta: np.maximum(log_abs(theta), 0.0), angles, tol)
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
    pair = DeltaSubharmonicFn(u_star, v_star)

    def sup_values(pts):
        return np.maximum(u_star.values(pts), v_star.values(pts))

    sup_mean = _sphere_mean(sup_values, R, U.dim, _circle_splits(pair, R, True), tol)
    v_mean = _sphere_mean(v_star.values, r, U.dim, _circle_splits(pair, r, False), tol)
    return CharacteristicRecord(
        "T_difference", r, sup_mean.value - v_mean.value,
        sup_mean.error_estimate + v_mean.error_estimate, R=R,
    )
