"""Metamorphic relations: what a change of the scenario must leave as it is,
checked with no reference value.

A rotation about the origin turns U and mu together, and the sphere measure
sigma_R is rotation invariant, so the integral of U^+ d mu, C_{U^+}(R) and
the UR verdict stay the same; it also takes the charges family, whose U is
no log|f| but atomic charges and a harmonic polynomial.  Halving splits
each segment at its midpoint and each arc at its mid-angle into two halves
of half the weight, which leaves mu, and so the integral of U^+ d mu, as it
is.  Scaling by lambda
takes f(z) to f(z / lambda) and mu to its image under x -> lambda x, with
r, R and r0 times lambda; the integral of U^+ d mu, C_{U^+}(R), T_U, the
Dini integral to R + r, A_d(r, R) and so the UR right side and verdict stay.
Reversing the order of mu's components and of f's zeros and poles changes
neither the measure nor the function.  In d = 3, permuting the coordinate
axes is an isometry that fixes the origin, so the integral of U^+ d mu and
C_{U^+}(r) stay.
Each pair of values must agree within the sum of their error estimates.
Arcs and segments go through one by-sign path integral
(characteristics._path_integral), so this tests it on both sides of the
inequality; the rotation and scaling cases take disks and disk unions too,
whose integral goes through Green's rule (lab._green_ball_integral), which
runs the same path integral on each rim.  The halving cases hold no ball.
"""

import cmath
import dataclasses
import functools

import pytest

from deltasubh.characteristics import spherical_mean
from deltasubh.lab import generate_scenario, positive_part_integral, verify_main_theorem
from deltasubh.measures import Atom, BorelMeasure, UniformArc, UniformBall, UniformSegment
from deltasubh.potentials import (AffineHarmonic, DeltaSubharmonicFn, HarmonicPolynomial,
                                  MeromorphicFn, SubharmonicFn)
from deltasubh.scenario_io import parse_scenario
from test_cli import PIN_3D

SEED = 42
ANGLES = (0.7, 2.1)
CASES = [(family, k) for family in ("ef_arc", "segment") for k in range(0, 200, 8)]
BALL_CASES = [(family, k) for family in ("disk", "disk_union") for k in range(0, 200, 8)]
CHARGE_CASES = [("charges", k) for k in range(0, 200, 8)]


def _turn(p: tuple, alpha: float) -> tuple:
    z = complex(*p) * cmath.exp(1j * alpha)
    return z.real, z.imag


def _rotated_component(c, alpha: float):
    if isinstance(c, Atom):
        return Atom(_turn(c.point, alpha), c.weight)
    if isinstance(c, UniformSegment):
        return UniformSegment(_turn(c.start, alpha), _turn(c.end, alpha), c.weight)
    if isinstance(c, UniformArc):
        return UniformArc(_turn(c.center, alpha), c.radius, c.angle_start + alpha,
                          c.angle_end + alpha, c.weight)
    return UniformBall(_turn(c.center, alpha), c.radius, c.weight)


def _rotated_measure(m, alpha: float):
    return BorelMeasure(tuple(_rotated_component(c, alpha) for c in m.components), m.dim)


def _rotated_subharmonic(u, alpha: float):
    """u(e^{-i alpha} z): its charge turns by alpha, and the coefficient c_k
    of its harmonic part Re p becomes c_k e^{-i k alpha}."""
    h = u.harmonic
    if h is not None:
        h = HarmonicPolynomial(tuple(c * cmath.exp(-1j * k * alpha) for k, c in enumerate(h.coeffs)))
    return SubharmonicFn(h, _rotated_measure(u.riesz, alpha))


def _rotated(s, alpha: float):
    """s turned about the origin by alpha: f(z) becomes f(e^{-i alpha} z),
    whose zeros and poles turn by alpha and whose exponent coefficient c_k
    becomes c_k e^{-i k alpha}.  The unit factor only gains a unimodular
    constant, which |f| does not see, so it stays.  Without f, u and v turn
    (_rotated_subharmonic)."""
    mu = _rotated_measure(s.mu, alpha)
    if s.f is None:
        U = DeltaSubharmonicFn(_rotated_subharmonic(s.U.u, alpha),
                               _rotated_subharmonic(s.U.v, alpha))
        return dataclasses.replace(s, U=U, mu=mu)
    f = s.f
    g = MeromorphicFn(tuple((a * cmath.exp(1j * alpha), m) for a, m in f.zeros),
                      tuple((b * cmath.exp(1j * alpha), n) for b, n in f.poles),
                      f.unit_factor,
                      tuple(c * cmath.exp(-1j * k * alpha) for k, c in enumerate(f.exponent)))
    return dataclasses.replace(s, U=g.to_delta_subharmonic(), mu=mu, f=g)


def _invariants(s) -> tuple:
    """(integral of U^+ d mu, C_{U^+}(R), the UR report)."""
    tol = s.tolerances.mean
    return (positive_part_integral(s.U, s.mu, tol), spherical_mean(s.U, s.R, "positive", tol),
            verify_main_theorem(s))


ROTATION_CASES = CASES + BALL_CASES + CHARGE_CASES


@pytest.mark.parametrize("family, k", ROTATION_CASES,
                         ids=[f"s{k:04d}-{f}" for f, k in ROTATION_CASES])
def test_rotation_about_the_origin_keeps_both_sides(family, k):
    s = generate_scenario(SEED, k, family)
    lhs, c_plus, report = _invariants(s)
    for alpha in ANGLES:
        lhs_r, c_plus_r, report_r = _invariants(_rotated(s, alpha))
        for a, b in ((lhs, lhs_r), (c_plus, c_plus_r)):
            assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, alpha
        assert report_r.verdict == report.verdict, alpha


def _scaled_component(c, lam: float):
    if isinstance(c, Atom):
        return Atom(tuple(lam * x for x in c.point), c.weight)
    if isinstance(c, UniformSegment):
        return UniformSegment(tuple(lam * x for x in c.start), tuple(lam * x for x in c.end),
                              c.weight)
    if isinstance(c, UniformArc):
        return UniformArc(tuple(lam * x for x in c.center), lam * c.radius, c.angle_start,
                          c.angle_end, c.weight)
    return UniformBall(tuple(lam * x for x in c.center), lam * c.radius, c.weight)


def _scaled(s, lam: float):
    """s scaled by lam about the origin: f(z) becomes f(z / lam), whose zeros
    and poles are lam times f's, whose unit factor gains lam^(sum n - sum m)
    over the pole orders n and zero orders m, and whose exponent coefficient
    c_k becomes c_k / lam^k; mu, r, R and r0 are lam times s's."""
    f = s.f
    g = MeromorphicFn(tuple((lam * a, m) for a, m in f.zeros),
                      tuple((lam * b, n) for b, n in f.poles),
                      f.unit_factor * lam ** (sum(n for _, n in f.poles)
                                              - sum(m for _, m in f.zeros)),
                      tuple(c / lam ** k for k, c in enumerate(f.exponent)))
    mu = BorelMeasure(tuple(_scaled_component(c, lam) for c in s.mu.components), s.mu.dim)
    return dataclasses.replace(s, U=g.to_delta_subharmonic(), mu=mu, f=g, r=lam * s.r,
                               R=lam * s.R, r0=None if s.r0 is None else lam * s.r0)


@pytest.mark.parametrize("family, k", CASES + BALL_CASES,
                         ids=[f"s{k:04d}-{f}" for f, k in CASES + BALL_CASES])
def test_scaling_by_two_keeps_both_sides(family, k):
    s = generate_scenario(SEED, k, family)
    lhs, c_plus, report = _invariants(s)
    lhs_s, c_plus_s, report_s = _invariants(_scaled(s, 2.0))
    for a, b in ((lhs, lhs_s), (c_plus, c_plus_s)):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    # the report's budget less the left side's estimate is the right side's
    rhs_err, rhs_err_s = (rep.error_budget - est.error_estimate
                          for rep, est in ((report, lhs), (report_s, lhs_s)))
    assert abs(report.rhs - report_s.rhs) <= rhs_err + rhs_err_s
    assert report_s.verdict == report.verdict


def _halves(c) -> tuple:
    """c as two components of half its weight: a segment cut at its
    midpoint, an arc at its mid-angle; any other kind as it is."""
    if isinstance(c, UniformSegment):
        mid = tuple(0.5 * (a + b) for a, b in zip(c.start, c.end))
        return (UniformSegment(c.start, mid, 0.5 * c.weight),
                UniformSegment(mid, c.end, 0.5 * c.weight))
    if isinstance(c, UniformArc):
        mid = 0.5 * (c.angle_start + c.angle_end)
        return (UniformArc(c.center, c.radius, c.angle_start, mid, 0.5 * c.weight),
                UniformArc(c.center, c.radius, mid, c.angle_end, 0.5 * c.weight))
    return (c,)


@pytest.mark.parametrize("family, k", CASES, ids=[f"s{k:04d}-{f}" for f, k in CASES])
def test_halving_each_path_keeps_the_integral_of_the_positive_part(family, k):
    s = generate_scenario(SEED, k, family)
    halved = BorelMeasure(tuple(h for c in s.mu.components for h in _halves(c)), s.mu.dim)
    assert len(halved.components) > len(s.mu.components)
    tol = s.tolerances.mean
    whole, split = positive_part_integral(s.U, s.mu, tol), positive_part_integral(s.U, halved, tol)
    assert abs(whole.value - split.value) <= whole.error_estimate + split.error_estimate


def _reversed(s):
    """s with mu's components and f's zeros and poles in reverse order."""
    f = s.f
    g = MeromorphicFn(f.zeros[::-1], f.poles[::-1], f.unit_factor, f.exponent)
    mu = BorelMeasure(s.mu.components[::-1], s.mu.dim)
    return dataclasses.replace(s, U=g.to_delta_subharmonic(), mu=mu, f=g)


REORDER_CASES = ([("disk_union", k) for k in range(3, 200, 8)]
                 + [("ef_arc", k) for k in range(0, 200, 8)])


@pytest.mark.parametrize("family, k", REORDER_CASES,
                         ids=[f"s{k:04d}-{f}" for f, k in REORDER_CASES])
def test_reversing_components_zeros_and_poles_keeps_both_sides(family, k):
    s = generate_scenario(SEED, k, family)
    lhs, c_plus, report = _invariants(s)
    lhs_r, c_plus_r, report_r = _invariants(_reversed(s))
    for a, b in ((lhs, lhs_r), (c_plus, c_plus_r)):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    assert report_r.verdict == report.verdict


def _permuted_component(c, axes: tuple):
    def move(x):
        return tuple(x[i] for i in axes)
    if isinstance(c, Atom):
        return Atom(move(c.point), c.weight)
    if isinstance(c, UniformSegment):
        return UniformSegment(move(c.start), move(c.end), c.weight)
    return UniformBall(move(c.center), c.radius, c.weight)


def _permuted_measure(m, axes: tuple):
    return BorelMeasure(tuple(_permuted_component(c, axes) for c in m.components), m.dim)


def _permuted_subharmonic(u, axes: tuple):
    h = u.harmonic
    if h is not None:
        h = AffineHarmonic(h.constant, tuple(h.gradient[i] for i in axes))
    return SubharmonicFn(h, _permuted_measure(u.riesz, axes))


@functools.lru_cache(maxsize=None)
def _pin_3d(axes: tuple = (0, 1, 2)):
    """PIN_3D with every point, centre, endpoint and affine gradient taken
    to (x[axes[0]], x[axes[1]], x[axes[2]])."""
    s = parse_scenario(PIN_3D)
    U = DeltaSubharmonicFn(_permuted_subharmonic(s.U.u, axes),
                           _permuted_subharmonic(s.U.v, axes))
    return dataclasses.replace(s, U=U, mu=_permuted_measure(s.mu, axes))


@functools.lru_cache(maxsize=None)
def _pin_3d_positive_part(axes: tuple = (0, 1, 2)):
    # the ball carries all of it (U < 0 on the segment and the atom); at
    # tol 1e-8 its rule takes 20.9M nodes, at 1e-6 about 1 s
    s = _pin_3d(axes)
    return positive_part_integral(s.U, s.mu, 1e-6)


@functools.lru_cache(maxsize=None)
def _pin_3d_c_plus(r: float, axes: tuple = (0, 1, 2)):
    s = _pin_3d(axes)
    return spherical_mean(s.U, r, "positive", s.tolerances.mean)


# the d = 3 ball rule and sphere mean miss these pairs by more than their
# estimates, and the permutation that keeps the polar axis (yxz) agrees to
# rounding: ROADMAP item 4, PR 3, replaces both rules
_D3_RULE_MISSES = pytest.mark.xfail(strict=True, raises=AssertionError,
                                    reason="d = 3 ball and sphere rules (ROADMAP item 4)")
_AXES = {"yzx": (1, 2, 0), "zxy": (2, 0, 1), "yxz": (1, 0, 2)}


@pytest.mark.parametrize("axes", [
    pytest.param(_AXES["yzx"], id="yzx", marks=_D3_RULE_MISSES),
    pytest.param(_AXES["zxy"], id="zxy", marks=_D3_RULE_MISSES),
    pytest.param(_AXES["yxz"], id="yxz"),
])
def test_axis_permutation_keeps_the_integral_of_the_positive_part(axes):
    a, b = _pin_3d_positive_part(), _pin_3d_positive_part(axes)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.parametrize("name, r", [
    pytest.param(name, r, id=f"{name}-r={r:g}",
                 marks=_D3_RULE_MISSES if (name, r) == ("zxy", 3.0) else ())
    for name in _AXES for r in (1.0, 2.0, 3.0)])
def test_axis_permutation_keeps_the_positive_sphere_mean(name, r):
    a, b = _pin_3d_c_plus(r), _pin_3d_c_plus(r, _AXES[name])
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
