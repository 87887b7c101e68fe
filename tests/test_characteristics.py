import math
import random
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from deltasubh import characteristics, lab
from deltasubh.characteristics import (
    _sign_changes,
    _split,
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_N,
    nevanlinna_T,
    nevanlinna_m,
    spherical_mean,
    sup_on_sphere,
)
from deltasubh.geometry import _d_hat, _distances, _dots, _kernel_values, kernel
from deltasubh.measures import (Atom, BorelMeasure, UniformArc, UniformSegment,
                                integrated_counting_result)
from deltasubh.potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    MeromorphicFn,
    SubharmonicFn,
    canonical_representation,
)
from deltasubh.quadrature import _ROUNDING


def _mero(zeros=(), poles=(), unit=1.0, exponent=()):
    return MeromorphicFn(tuple(zeros), tuple(poles), unit, tuple(exponent))


def _random_rational(rng, radius=2.0, margin=0.05):
    while True:
        n_z = rng.randint(0, 3)
        n_p = rng.randint(0, 3)
        if n_z + n_p == 0:
            continue
        pts = []
        ok = True
        for _ in range(n_z + n_p):
            while True:
                z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
                if abs(z) <= radius and abs(z) > margin:
                    break
            pts.append(z)
        if len({round(p.real, 9) + 1j * round(p.imag, 9) for p in pts}) < len(pts):
            continue
        zeros = tuple((p, rng.choice([1, 1, 2])) for p in pts[:n_z])
        poles = tuple((p, rng.choice([1, 1, 2])) for p in pts[n_z:])
        unit = rng.uniform(0.3, 3.0)
        return _mero(zeros=zeros, poles=poles, unit=unit)


def test_spherical_mean_anchors():
    f = _mero(zeros=[(0j, 1)])
    U = f.to_delta_subharmonic()
    assert spherical_mean(U, math.e).value == pytest.approx(1.0, abs=1e-10)
    assert spherical_mean(U, 0.5, "positive").value == pytest.approx(0.0, abs=1e-12)


def test_spherical_mean_jensen_closed_form():
    rng = random.Random(41)
    for _ in range(20):
        rho = rng.uniform(0.1, 3.0)
        r = rng.uniform(0.1, 3.0)
        if abs(rho - r) < 0.03 * max(rho, r):
            continue
        ang = rng.uniform(0, 2 * math.pi)
        a = complex(rho * math.cos(ang), rho * math.sin(ang))
        U = _mero(zeros=[(a, 1)]).to_delta_subharmonic()
        assert spherical_mean(U, r).value == pytest.approx(
            math.log(max(r, rho)), abs=1e-8)


def test_spherical_mean_jensen_from_counting():
    # C_u(r) = u(0) + N_nu(0, r) for potentials: the Jensen route
    rng = random.Random(42)
    atoms = tuple(Atom((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       rng.uniform(0.3, 1.0)) for _ in range(4))
    nu = BorelMeasure(atoms, 2)
    u = SubharmonicFn(None, nu)
    U = DeltaSubharmonicFn(u, SubharmonicFn(None, BorelMeasure((), 2)))
    r = 2.5
    mean = spherical_mean(U, r).value
    jensen = u.values((0.0, 0.0))[0] + integrated_counting_result(nu, 0.0, r).value
    assert mean == pytest.approx(jensen, abs=1e-8)


def test_spherical_mean_3d_newtonian():
    atom = Atom((0.4, 0.0, 0.3), 1.0)
    u = SubharmonicFn(None, BorelMeasure((atom,), 3))
    U = DeltaSubharmonicFn(u, SubharmonicFn(None, BorelMeasure((), 3)))
    r = 2.0
    # Newtonian mean value: mean of k(|x-a|) = k(max(r, |a|)) = -1/r here
    assert spherical_mean(U, r).value == pytest.approx(-1.0 / r, abs=1e-8)
    rho = math.hypot(0.4, 0.3)
    assert spherical_mean(U, 0.3).value == pytest.approx(-1.0 / rho, abs=1e-8)


def test_sup_on_sphere_anchors():
    f = _mero(zeros=[(0j, 1)])
    U = f.to_delta_subharmonic()
    assert sup_on_sphere(U, 3.0).value == pytest.approx(math.log(3.0), abs=1e-8)
    g = _mero(zeros=[(1 + 0j, 1), (-1 + 0j, 1)])  # (z-1)(z+1)
    Ug = g.to_delta_subharmonic()
    # max |z^2 - 1| on |z| = 2 is 5 (at z = +-2i)
    assert sup_on_sphere(Ug, 2.0).value == pytest.approx(math.log(5.0), abs=1e-7)
    const = _mero(unit=1.0)
    assert sup_on_sphere(const.to_delta_subharmonic(), 1.0).value == pytest.approx(0.0)


def test_nevanlinna_m_anchors():
    f = _mero(zeros=[(0j, 1)])
    assert nevanlinna_m(f, 2.0).value == pytest.approx(math.log(2.0), abs=1e-10)
    assert nevanlinna_m(f, 0.5).value == pytest.approx(0.0, abs=1e-12)
    g = _mero(poles=[(1 + 0j, 1)])  # 1/(z-1)
    # oracle: dense trapezoid of ln^+ |f| on the circle
    th = 2 * math.pi * np.arange(1 << 18) / (1 << 18)
    oracle = float(np.mean(np.maximum(g.log_abs(2.0 * np.exp(1j * th)), 0.0)))
    assert nevanlinna_m(g, 2.0).value == pytest.approx(oracle, abs=1e-7)


def test_nevanlinna_N_anchors():
    f = _mero(poles=[(0j, 1)])
    assert nevanlinna_N(f, math.e).value == pytest.approx(1.0)
    g = _mero(poles=[(1 + 0j, 1)])
    assert nevanlinna_N(g, 2.0).value == pytest.approx(math.log(2.0))
    # cross-check against integrated counting of the pole measure
    pole_measure = BorelMeasure((Atom((1.0, 0.0), 1.0),), 2)
    assert nevanlinna_N(g, 2.0).value == pytest.approx(
        integrated_counting_result(pole_measure, 0.0, 2.0).value, abs=1e-14)
    entire = _mero(zeros=[(0.5 + 0j, 1)])
    assert nevanlinna_N(entire, 3.0).value == 0.0
    assert nevanlinna_N(f, 0.0).value == -math.inf
    assert nevanlinna_N(entire, 0.0).value == 0.0


def test_nevanlinna_T_anchors():
    f = _mero(zeros=[(0j, 1)])
    assert nevanlinna_T(f, math.e).value == pytest.approx(1.0, abs=1e-10)
    g = _mero(poles=[(0j, 1)])
    assert nevanlinna_T(g, math.e).value == pytest.approx(1.0, abs=1e-10)
    h = _mero(zeros=[(1 + 0j, 1)], poles=[(-1 + 0j, 1)])
    expected = nevanlinna_m(h, 3.0).value + math.log(3.0)
    assert nevanlinna_T(h, 3.0).value == pytest.approx(expected, abs=1e-9)


def test_difference_characteristic_nonnegative_and_infinite_at_loaded_origin():
    f = _mero(zeros=[(0j, 1)], poles=[(1 + 0j, 1)])
    U = f.to_delta_subharmonic()
    rec = difference_characteristic(U, 1.0, 2.0)
    assert rec.value >= -rec.error_estimate
    g = _mero(poles=[(0j, 1)])
    Ug = g.to_delta_subharmonic()
    assert difference_characteristic(Ug, 0.0, 2.0).value == math.inf


def test_difference_characteristic_zero_when_negative():
    # U <= 0 everywhere with no negative charge: both summands vanish
    f = _mero(zeros=[(0j, 1)], unit=0.1)  # |f| = |z|/10 <= 1 on |z| <= 2
    U = f.to_delta_subharmonic()
    rec = difference_characteristic(U, 1.0, 2.0)
    assert rec.value == pytest.approx(0.0, abs=1e-12)


def test_bridge_identity_csTTNN():
    # T(R, f) - N(r, f) = T_{log|f|}(r, R) at (r, R) = (1, 3)
    f = _mero(zeros=[(0j, 1)], poles=[(1 + 0j, 1)])
    U = f.to_delta_subharmonic()
    lhs = nevanlinna_T(f, 3.0, tol=1e-10).value - nevanlinna_N(f, 1.0).value
    rhs = difference_characteristic(U, 1.0, 3.0, tol=1e-10).value
    assert lhs == pytest.approx(rhs, abs=1e-7)


def test_bridge_identities_random_rational():
    rng = random.Random(43)
    for _ in range(15):
        f = _random_rational(rng)
        U = f.to_delta_subharmonic()
        r = rng.uniform(0.3, 1.5)
        R = r * rng.uniform(1.5, 3.0)
        # m(r, f) = C_{ln^+|f|}(r)
        m_val = nevanlinna_m(f, R, tol=1e-10).value
        c_val = spherical_mean(U, R, "positive", tol=1e-10).value
        assert m_val == pytest.approx(c_val, abs=1e-8)
        # N(R, f) - N(r, f) = N_{charge^-}(r, R)
        pole_measure = BorelMeasure(
            tuple(Atom((b.real, b.imag), float(n)) for b, n in f.poles), 2)
        lhs = nevanlinna_N(f, R).value - nevanlinna_N(f, r).value
        rhs = integrated_counting_result(pole_measure, r, R).value
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # T(R, f) - N(r, f) = T_U(r, R)
        bridge_lhs = nevanlinna_T(f, R, tol=1e-10).value - nevanlinna_N(f, r).value
        bridge_rhs = difference_characteristic(U, r, R, tol=1e-10).value
        assert bridge_lhs == pytest.approx(bridge_rhs, abs=1e-7)


def test_bridge_sup_and_T_forms():
    rng = random.Random(47)
    for _ in range(8):
        f = _random_rational(rng)
        U = f.to_delta_subharmonic()
        r = rng.uniform(0.4, 1.3)
        R = r * rng.uniform(1.5, 2.5)
        # ln M(r, f) = M_{ln|f|}(r): oracle is a dense scan of |f| followed by
        # a local rescan around the argmax
        sup_rec = sup_on_sphere(U, r)
        n = 1 << 15
        th = 2 * math.pi * np.arange(n) / n
        scan = f.log_abs(r * np.exp(1j * th))
        i = int(np.argmax(scan))
        local = th[i] + (2 * math.pi / n) * np.linspace(-1.0, 1.0, 20001)
        dense = max(float(np.max(scan)), float(np.max(f.log_abs(r * np.exp(1j * local)))))
        assert sup_rec.value == pytest.approx(dense, abs=1e-6)
        assert sup_rec.value >= dense - 1e-7  # a refined lower bound of the sup
        # T(R,f) - T(r,f) = C_{U^+}(R) - C_{U^+}(r) + N_{charge^-}(r, R)
        lhs = nevanlinna_T(f, R, tol=1e-10).value - nevanlinna_T(f, r, tol=1e-10).value
        pole_measure = BorelMeasure(
            tuple(Atom((b.real, b.imag), float(n)) for b, n in f.poles), 2)
        rhs = (spherical_mean(U, R, "positive", tol=1e-10).value
               - spherical_mean(U, r, "positive", tol=1e-10).value
               + integrated_counting_result(pole_measure, r, R).value)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_cross_form_oracle_random_rational():
    rng = random.Random(44)
    for _ in range(10):
        f = _random_rational(rng)
        U = f.to_delta_subharmonic()
        r = rng.uniform(0.3, 1.2)
        R = r * rng.uniform(1.6, 3.2)
        a = difference_characteristic(U, r, R, tol=1e-10)
        b = difference_characteristic_canonical(U, r, R, tol=1e-10)
        scale = max(1.0, abs(a.value))
        assert abs(a.value - b.value) / scale < 1e-7


def test_poisson_jensen_privalov_consistency():
    # C_{v*}(R) - C_{v*}(r) = N_{charge_v}(r, R) for the potential model
    rng = random.Random(45)
    for _ in range(8):
        atoms = tuple(Atom((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           rng.uniform(0.2, 1.5)) for _ in range(3))
        nu = BorelMeasure(atoms, 2)
        v = SubharmonicFn(None, nu)
        V = DeltaSubharmonicFn(v, SubharmonicFn(None, BorelMeasure((), 2)))
        r = rng.uniform(1.6, 2.0)
        R = rng.uniform(2.5, 4.0)
        lhs = (spherical_mean(V, R, tol=1e-10).value
               - spherical_mean(V, r, tol=1e-10).value)
        rhs = integrated_counting_result(nu, r, R).value
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_canonical_with_harmonic_negative_part():
    # v* harmonic-free, charge^- = 0: canonical T reduces to C_{U^+}(R)
    f = _mero(zeros=[(0.5 + 0j, 1)], exponent=(0.2 + 0j,))
    U = f.to_delta_subharmonic()
    r, R = 0.8, 2.0
    rec_def = difference_characteristic(U, r, R, tol=1e-10)
    rec_can = difference_characteristic_canonical(U, r, R, tol=1e-10)
    c_plus = spherical_mean(U, R, "positive", tol=1e-10)
    assert rec_def.value == pytest.approx(c_plus.value, abs=1e-10)
    assert rec_can.value == pytest.approx(c_plus.value, abs=5e-8)


def test_cross_form_with_harmonic_parts_on_both_sides_2d():
    # u and v each carry a harmonic polynomial, of different degrees: u*
    # takes h_u + (-h_v), padded to the longer one, v* none, and the two
    # forms of T_U still agree
    h_u = HarmonicPolynomial((0.3 + 0j, 0.2 - 0.1j))
    h_v = HarmonicPolynomial((0.1 + 0j, 0.05j, -0.04 + 0.02j))
    u = SubharmonicFn(h_u, BorelMeasure((Atom((0.4, -0.2), 0.9),), 2))
    v = SubharmonicFn(h_v, BorelMeasure((Atom((-0.3, 0.5), 0.6),), 2))
    U = DeltaSubharmonicFn(u, v)
    u_star, v_star = canonical_representation(U)
    assert u_star.harmonic == HarmonicPolynomial(
        (0.3 - 0.1, (0.2 - 0.1j) - 0.05j, 0j - (-0.04 + 0.02j)))
    assert v_star.harmonic is None
    pts = np.array([[0.7, 0.1], [-1.2, 0.9], [0.0, -1.5]])
    np.testing.assert_allclose(u_star.values(pts) - v_star.values(pts), U.values(pts),
                               rtol=0.0, atol=1e-14)
    r, R = 0.9, 2.0
    a = difference_characteristic(U, r, R, tol=1e-10)
    b = difference_characteristic_canonical(U, r, R, tol=1e-10)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_difference_characteristic_3d():
    u = SubharmonicFn(AffineHarmonic(0.4, (0.1, 0.0, -0.05)),
                      BorelMeasure((Atom((0.3, 0.2, -0.1), 0.8),), 3))
    v = SubharmonicFn(None, BorelMeasure((Atom((-0.5, 0.1, 0.4), 0.6),), 3))
    U = DeltaSubharmonicFn(u, v)
    r, R = 1.0, 2.0
    a = difference_characteristic(U, r, R, tol=1e-9)
    b = difference_characteristic_canonical(U, r, R, tol=1e-9)
    assert a.value == pytest.approx(b.value, abs=1e-6)
    assert a.value >= -a.error_estimate


def test_domain_errors():
    f = _mero(zeros=[(0j, 1)])
    U = f.to_delta_subharmonic()
    with pytest.raises(ValueError):
        difference_characteristic(U, 2.0, 1.0)
    with pytest.raises(ValueError):
        difference_characteristic_canonical(U, 0.0, 1.0)
    with pytest.raises(ValueError):
        nevanlinna_m(f, 0.0)
    with pytest.raises(ValueError):
        spherical_mean(U, -1.0)
    with pytest.raises(ValueError):
        spherical_mean(U, 1.0, "bogus")
    for r in (-1.0, math.nan, math.inf):  # a nan or infinite r would give N = nan
        with pytest.raises(ValueError):
            nevanlinna_N(f, r)


def test_cross_form_with_continuous_charges():
    # positive charge on a full circle, negative charge atomic plus a
    # segment: exercises the quadrature route of the integrated counting
    # function and the potential closed forms inside both T_U computations
    from deltasubh.measures import UniformArc, UniformSegment

    u = SubharmonicFn(HarmonicPolynomial((0.2 + 0j,)), BorelMeasure((
        UniformArc((0.1, 0.0), 0.6, 0.0, 2 * math.pi, 1.2),), 2))
    v = SubharmonicFn(None, BorelMeasure((
        Atom((-0.8, 0.4), 0.7),
        UniformSegment((0.2, -0.9), (0.7, -0.4), 0.5),), 2))
    U = DeltaSubharmonicFn(u, v)
    r, R = 1.4, 3.0
    a = difference_characteristic(U, r, R, tol=1e-9)
    b = difference_characteristic_canonical(U, r, R, tol=1e-9)
    assert a.value == pytest.approx(b.value, abs=1e-6)
    assert a.value >= -a.error_estimate
    # Jensen route for C_U(R): mean = u(0) - v(0) + N_{plus}(0,R) - N_{minus}(0,R)
    jensen = (u.values((0.0, 0.0))[0] - v.values((0.0, 0.0))[0]
              + integrated_counting_result(u.riesz, 0.0, R).value
              - integrated_counting_result(v.riesz, 0.0, R).value)
    assert spherical_mean(U, R, tol=1e-9).value == pytest.approx(jensen, abs=1e-6)


def test_higher_dimensions_accepted_but_quadrature_refuses():
    # formula-level support for d > 3; sphere quadrature refuses it
    assert _d_hat(5) == 3
    u = SubharmonicFn(AffineHarmonic(0.1, (0.0,) * 5),
                      BorelMeasure((Atom((0.2, 0.0, 0.0, 0.0, 0.0), 1.0),), 5))
    U = DeltaSubharmonicFn(u, SubharmonicFn(None, BorelMeasure((), 5)))
    with pytest.raises(ValueError):
        spherical_mean(U, 1.0)
    with pytest.raises(ValueError):
        sup_on_sphere(U, 1.0)


def test_proposition_proT_monotone_convex_grids():
    # increasing and convex against k(R) in the second argument; decreasing
    # and concave against k(r) in the first
    rng = random.Random(46)
    for _ in range(5):
        f = _random_rational(rng)
        U = f.to_delta_subharmonic()
        r = 0.4
        Rs = np.linspace(1.2, 3.0, 12)
        vals = [difference_characteristic(U, r, float(R), tol=1e-10).value
                for R in Rs]
        ks = [float(kernel(2, float(R))) for R in Rs]
        assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
        slopes = [(v2 - v1) / (k2 - k1)
                  for v1, v2, k1, k2 in zip(vals, vals[1:], ks, ks[1:])]
        assert all(s2 >= s1 - 1e-6 for s1, s2 in zip(slopes, slopes[1:]))
        rs = np.linspace(0.2, 1.0, 12)
        vals_r = [difference_characteristic(U, float(rr), 3.5, tol=1e-10).value
                  for rr in rs]
        ks_r = [float(kernel(2, float(rr))) for rr in rs]
        assert all(b <= a + 1e-7 for a, b in zip(vals_r, vals_r[1:]))
        slopes_r = [(v2 - v1) / (k2 - k1)
                    for v1, v2, k1, k2 in zip(vals_r, vals_r[1:], ks_r, ks_r[1:])]
        assert all(s2 <= s1 + 1e-6 for s1, s2 in zip(slopes_r, slopes_r[1:]))


def _ref_sign_changes(evaluator, x, fx):
    """The one-bracket-at-a-time Illinois refinement the batched one must
    equal: a bracket wherever the class f > 0 flips between neighbouring scan
    nodes.  Returns the edges and the steps each bracket took."""
    out, steps = [], []
    span = float(x[-1] - x[0])
    for i in range(len(x) - 1):
        lo, hi, f_lo, f_hi = float(x[i]), float(x[i + 1]), float(fx[i]), float(fx[i + 1])
        lo_up = f_lo > 0.0
        if lo_up == (f_hi > 0.0):
            continue
        close = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi), span)
        older = old = math.inf
        kept, n = 0, 0
        while hi - lo > close:
            t = 0.5 * (lo + hi)
            if (math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo - f_hi != 0.0
                    and hi - lo <= 0.5 * older):
                secant = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
                t = secant if lo <= secant <= hi else t
            t = min(max(t, lo + 0.5 * close), hi - 0.5 * close)
            ft = float(np.asarray(evaluator(np.array([t])), dtype=float)[0])
            older, old, n = old, hi - lo, n + 1
            if (ft > 0.0) != lo_up:  # lo kept, t is the new hi
                f_lo = 0.5 * f_lo if kept == -1 else f_lo  # kept twice
                hi, f_hi, kept = t, ft, -1
            else:
                f_hi = 0.5 * f_hi if kept == 1 else f_hi
                lo, f_lo, kept = t, ft, 1
        out.append(0.5 * (lo + hi))
        steps.append(n)
    return out, steps


def _scan(evaluator, n=2048):
    x = 2.0 * math.pi * np.arange(n + 1) / n
    return x, np.asarray(evaluator(x), dtype=float)


def test_batched_illinois_sign_changes_equal_scalar_bit_for_bit():
    n = 2048
    theta = 2.0 * math.pi * np.arange(n + 1) / n

    def smooth(th):
        return np.sin(3.0 * th + 0.1) - 0.2

    # the first secant points of two brackets: exactly 0 at one, NaN at the
    # other; both are outside the class f > 0, so those brackets bisect on
    f0 = smooth(theta)
    i = np.flatnonzero((f0[:-1] > 0) != (f0[1:] > 0))
    assert i.size == 6
    first = theta[i] + (theta[i + 1] - theta[i]) * (f0[i] / (f0[i] - f0[i + 1]))
    calls = []

    def evaluator(th):
        calls.append(th.size)
        return np.where(th == first[1], 0.0, np.where(th == first[4], np.nan, smooth(th)))

    x, fx = _scan(evaluator, n)
    calls.clear()
    got = _sign_changes(evaluator, x, fx)
    batched_calls = len(calls)
    ref, steps = _ref_sign_changes(evaluator, x, fx)
    assert got == ref and len(got) == 6
    # one call per step for all brackets: as many as the slowest bracket
    # takes alone, the bisecting ones; the others converge in a few steps
    assert batched_calls == max(steps) <= 48
    assert max(steps[k] for k in (0, 2, 3, 5)) <= 8

    # an exact zero at a scan node, where the sign of f changes: the class
    # flips between that node (0) and the next (> 0)
    def through_node(th):
        return th - theta[100]

    x, fx = _scan(through_node, n)
    got = _sign_changes(through_node, x, fx)
    assert got == _ref_sign_changes(through_node, x, fx)[0]
    assert len(got) == 1 and theta[100] <= got[0] < theta[101]
    assert got[0] - theta[100] <= 2.0 * np.finfo(float).eps * 2.0 * math.pi

    f = _mero(zeros=[(0.5 + 0.2j, 1), (-1.1j, 2)], poles=[(0.9, 1)], unit=1.3)
    log_abs = lambda th: f.log_abs(1.05 * np.exp(1j * th))  # noqa: E731
    x, fx = _scan(log_abs)
    assert _sign_changes(log_abs, x, fx) == _ref_sign_changes(log_abs, x, fx)[0]


def _assert_sign_changes_equal_ref(evaluator, x, fx) -> list:
    """_sign_changes, which must raise and warn nothing of its own, equals
    _ref_sign_changes bit for bit: the same edges, from the same points."""
    points = []

    def recorded(t):
        points.append(np.array(t, dtype=float))
        return evaluator(t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sign_changes(recorded, x, fx)
    got_points = sorted(np.concatenate(points).tolist()) if points else []
    points.clear()
    ref, _steps = _ref_sign_changes(recorded, x, fx)
    assert got == ref
    assert got_points == sorted(np.concatenate(points).tolist())
    return got


def test_sign_changes_past_non_finite_ends_equal_scalar_bit_for_bit():
    # -inf (a scan node on a pole of log|f|), +inf and NaN at the lo end of
    # one bracket and the hi end of another each: the bracket bisects until
    # a step replaces that end, then converges on the smooth root
    n = 2048
    theta = 2.0 * math.pi * np.arange(n + 1) / n

    def smooth(th):
        return np.sin(3.0 * th + 0.1) - 0.2

    f0 = smooth(theta)
    i = np.flatnonzero((f0[:-1] > 0) != (f0[1:] > 0))
    assert i.size == 6 and not f0[0] > 0  # the classes of lo alternate: out, in, out, ...
    # -inf and NaN are outside the class, +inf inside: the lo ends of
    # brackets 0, 1, 2 and the hi ends of 3, 4, 5
    ends = {theta[i[0]]: -np.inf, theta[i[1]]: np.inf, theta[i[2]]: np.nan,
            theta[i[3] + 1]: -np.inf, theta[i[4] + 1]: np.inf, theta[i[5] + 1]: np.nan}

    def evaluator(th):
        out = smooth(th)
        for node, value in ends.items():
            out = np.where(th == node, value, out)
        return out

    x, fx = _scan(evaluator, n)
    assert (~np.isfinite(fx)).sum() == 6
    got = _assert_sign_changes_equal_ref(evaluator, x, fx)
    assert len(got) == 6
    roots = _sign_changes(smooth, x, f0)
    assert all(abs(a - b) <= 8.0 * np.finfo(float).eps * 2.0 * math.pi for a, b in zip(got, roots))


def test_sign_changes_bisect_where_illinois_halves_an_end_to_zero():
    # the least subnormal left of c, 0 from c on: each secant lands on hi,
    # so lo is kept twice and halved to 0, and then fa - fb = 0 - 0 gives
    # no secant; the bracket bisects on to c
    tiny = math.ulp(0.0)
    assert 0.5 * tiny == 0.0
    c = 2.0 * math.pi * 700.3 / 2048

    def evaluator(th):
        return np.where(th < c, tiny, 0.0)

    x, fx = _scan(evaluator)
    got = _assert_sign_changes_equal_ref(evaluator, x, fx)
    assert len(got) == 1
    assert abs(got[0] - c) <= 4.0 * np.finfo(float).eps * 2.0 * math.pi


def test_d3_line_kernel_integral_is_minus_inf_through_an_atom_on_the_piece():
    # the origin is on the slanted line at s = 0.5 only up to rounding
    path = UniformSegment((-0.5, 0.1, 0.0), (0.5, -0.1, 0.0), 1.0)
    atoms = np.array([[0.0, 0.0, 0.0], [0.25, 0.05, 0.0]])
    values, _bound = path.kernel_integrals([(0.2, 0.8), (0.0, 0.5), (0.5, 0.9), (0.6, 0.9)], atoms)
    assert (values[:3, 0] == -np.inf).all() and np.isfinite(values[:3, 1]).all()
    assert np.isfinite(values[3]).all()


def test_sign_changes_let_the_evaluators_warnings_through():
    # the refinement silences nothing: a floating-point warning of the
    # evaluator must still reach the caller (and fail CI under
    # -W error::RuntimeWarning)
    def smooth(th):
        return np.sin(3.0 * th + 0.1) - 0.2

    def evaluator(th):
        np.log(np.zeros_like(th))  # divide by zero
        return smooth(th)

    x, fx = _scan(smooth)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            _sign_changes(evaluator, x, fx)


# -- the closed forms of one sign class in one call ---------------------------
# kernel_integrals takes every piece of a class at once; these one-piece
# forms are what each of its rows must equal bit for bit.

def _ref_arc_kernel_integrals(arc, a, b, pts):
    far = np.maximum(_distances(pts, arc.center), arc.radius)
    scale = _distances(pts, 0.0) + math.hypot(*arc.center) + arc.radius
    ends = sum(np.abs(np.log(np.maximum(_distances(pts, arc.at(np.array([t]))),
                                        _ROUNDING * scale) / far)) for t in (a, b))
    piece = UniformArc(arc.center, arc.radius, a, b, b - a)
    return (piece.potential(pts),
            _ROUNDING * ((b - a) * np.abs(np.log(far)) + 4.0
                         + scale / arc.radius * (ends + 4.0)))


def _ref_segment_kernel_integrals(seg, a, b, pts):
    rel = pts - seg.start
    step = np.subtract(seg.end, seg.start)
    length = float(_distances(seg.start, seg.end))
    scale = _distances(rel, 0.0) + (abs(a) + abs(b)) * length
    feet = np.clip(_dots(rel, step) / _dots(step, step), a, b)
    dist = [_distances(rel, np.multiply.outer(t, step))
            for t in (np.full(len(rel), a), np.full(len(rel), b), feet)]
    size = [np.abs(_kernel_values(seg.dim, np.maximum(D, _ROUNDING * scale))) for D in dist]
    values = UniformSegment(tuple(a * step), tuple(b * step), b - a).potential(rel)
    inner = 8.0 if seg.dim == 2 else 6.0 * size[2]
    return values, _ROUNDING * (2.0 + scale * (size[0] + size[1] + inner)) / length


def _assert_rows_equal_one_piece_calls(path, ends, pts, ref):
    values, bound = path.kernel_integrals(ends, pts)
    assert values.shape == bound.shape == (len(ends), len(pts))
    for row, (a, b) in enumerate(ends):
        want_values, want_bound = ref(a, b)
        np.testing.assert_array_equal(values[row], want_values)
        np.testing.assert_array_equal(bound[row], want_bound)


def test_arc_kernel_integrals_of_many_pieces_equal_one_piece_calls_bit_for_bit():
    rng = random.Random(11)
    for _ in range(40):
        arc = UniformArc((rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 3),
                         -4.0, -4.0 + 2 * math.pi, 1.0)
        lo = rng.uniform(-3, 3)
        cuts = sorted(rng.uniform(lo, lo + rng.choice([1e-6, 0.5, 2 * math.pi]))
                      for _ in range(rng.randint(2, 6)))
        ends = list(zip(cuts[:-1], cuts[1:])) + [(lo, lo + 2 * math.pi)]  # a full circle
        rng.shuffle(ends)
        pts = [arc.center, tuple(arc.at(np.array([ends[0][1]]))[0])]  # centre, a piece end
        for q in (arc.radius, arc.radius, 0.5 * arc.radius, arc.radius * (1 + 1e-9),
                  2.0 * arc.radius, arc.radius + 30.0):  # on, inside, outside the circle
            t = rng.uniform(-4, 4)
            pts.append((arc.center[0] + q * math.cos(t), arc.center[1] + q * math.sin(t)))
        pts = np.array(pts)
        _assert_rows_equal_one_piece_calls(
            arc, ends, pts, lambda a, b: _ref_arc_kernel_integrals(arc, a, b, pts))


@pytest.mark.parametrize("d", [2, 3])
def test_segment_kernel_integrals_of_many_pieces_equal_one_piece_calls_bit_for_bit(d):
    rng = random.Random(12 + d)
    for _ in range(40):
        start = np.array([rng.uniform(-5, 5) for _ in range(d)])
        step = np.array([rng.uniform(-3, 3) for _ in range(d)])
        seg = UniformSegment(start, start + step, 1.0)
        cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(2, 6)))
        ends = list(zip(cuts[:-1], cuts[1:]))
        normal = np.array([rng.gauss(0, 1) for _ in range(d)])
        normal -= normal @ step / (step @ step) * step
        normal /= np.linalg.norm(normal)
        pts = [start + cuts[0] * step, start + cuts[-1] * step,  # at piece ends
               start + rng.uniform(-0.5, 1.5) * step]           # on the line
        pts += [start + rng.uniform(-0.3, 1.3) * step + off * normal
                for off in (1e-6, 1e-2, 1.0, 30.0)]              # off it
        pts = np.array(pts)
        _assert_rows_equal_one_piece_calls(
            seg, ends, pts, lambda a, b: _ref_segment_kernel_integrals(seg, a, b, pts))


def _counted(g, seen: list):
    """g, recording the number of points of each call in seen."""
    def on_points(pts):
        seen.append(len(pts))
        return g(pts)
    return on_points


def _counted_newton(monkeypatch, seen: list):
    """Record each point _Planar.level takes, one Newton step each, in seen."""
    level = characteristics._Planar.level

    def counted(self, z):
        seen.append(1)
        return level(self, z)

    monkeypatch.setattr(characteristics._Planar, "level", counted)


def test_path_integral_counts_every_point_it_evaluates(monkeypatch):
    # nodes_used is every point that signed, the Newton steps and the
    # splits' rest see: the sign scan (2,049 nodes and the atom feet), each
    # Newton step, and the adaptive GL nodes of both classes
    U = _mero(zeros=[(0.5 + 0.2j, 1), (-1.1j, 2)], poles=[(0.9, 1)], unit=1.3).to_delta_subharmonic()
    seen = []
    _counted_newton(monkeypatch, seen)
    split = _split(U)
    split = split._replace(rest=_counted(split.rest, seen))
    for path in (characteristics._circle(1.05), UniformSegment((-1.0, 0.3), (1.2, -0.4), 1.0)):
        for neg in (None, split):
            seen.clear()
            res = characteristics._path_integral(_counted(U.values, seen), split, path, 1e-8, neg)
            assert res.nodes_used == sum(seen) > 2049


def test_one_kernel_integrals_call_per_sign_class_with_pieces(monkeypatch):
    calls = []
    kernel_integrals = UniformArc.kernel_integrals

    def counted(self, ends, pts):
        calls.append(list(ends))
        return kernel_integrals(self, ends, pts)

    monkeypatch.setattr(UniformArc, "kernel_integrals", counted)
    f = _mero(zeros=[(0.5 + 0.2j, 1), (-1.1j, 2)], poles=[(0.9, 1)], unit=1.3)
    U = f.to_delta_subharmonic()
    split = _split(U)
    characteristics._path_integral(U.values, split, characteristics._circle(1.05), 1e-8, split)
    # both classes have pieces: one call each, over all pieces of the class,
    # and the two classes' pieces alternate around the circle
    assert len(calls) == 2 and len(calls[0]) >= 2
    pieces = sorted(calls[0] + calls[1])
    assert pieces[0][0] == 0.0 and pieces[-1][1] == 2 * math.pi
    assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
    assert calls[1] == [p for p in pieces if p not in calls[0]]
    # U > 0 on all of |x| = 4: the other class has no piece and no call
    calls.clear()
    characteristics._path_integral(U.values, split, characteristics._circle(4.0), 1e-8, split)
    assert calls == [[(0.0, 2 * math.pi)]]


# -- the one-sign certificate of the by-sign path integral -------------------
# _one_signed proves the F of one split, the signed function's own, one-signed
# on a path from the Laurent coefficients of its atoms and the Taylor shift
# of its polynomial on the path's circle (or a segment's disk); _path_edges
# then skips the scan, which is sound only where the scan finds no edge.

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_BENCH_SCENARIOS = {"corpus": 396, "proof": 792, "sweep": 264}  # bench/run.py --seconds 22


def _run_bench_workload(monkeypatch, workload, seed):
    """The scenarios of the workload's 22-s bench run, each through its
    correctness gate."""
    monkeypatch.syspath_prepend(str(_BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    for k in range(_BENCH_SCENARIOS[workload]):
        s, out = workloads.run_scenario(workload, seed, k)
        assert workloads.check(workload, s, out) == [], s.scenario_id


@pytest.mark.parametrize("seed", [42, 13])
@pytest.mark.parametrize("workload", ["corpus", "proof", "sweep"])
def test_one_signed_paths_of_the_bench_workloads_have_no_scan_edge(monkeypatch, workload, seed):
    # every by-sign path of the workload and its correctness gate: where the
    # certificate holds, the full scan finds no edge and starts in its class
    path_edges = characteristics._path_edges
    paths, proved, wrong = [], [], []

    def audited(signed, path, split):
        up = characteristics._one_signed(path, split)
        paths.append(path)
        if up is not None:
            edges, first, _nodes = characteristics._scan_edges(signed, path, split)
            proved.append(path)
            if edges != list(path.span) or first != up:
                wrong.append((path, edges, first, up))
        return path_edges(signed, path, split)

    monkeypatch.setattr(characteristics, "_path_edges", audited)
    monkeypatch.setattr(lab, "_path_edges", audited)
    _run_bench_workload(monkeypatch, workload, seed)
    assert wrong == []
    assert 0.25 * len(paths) < len(proved) < len(paths)


# -- the Newton refinement of the scan's flips ---------------------------------
# Where F is planar atomic, _scan_edges refines each flip of the scan by
# safeguarded Newton on _Planar's F and g' in Python floats
# (_newton_changes); Illinois (_sign_changes) is the reference, and takes a
# path Newton hands back.

def _recorded_newton(monkeypatch, handed: list):
    """Record in handed each path _newton_changes hands back to Illinois."""
    newton_changes = characteristics._newton_changes

    def recorded(path, split, x, fx):
        found, steps = newton_changes(path, split, x, fx)
        if found is None:
            handed.append(path)
        return found, steps

    monkeypatch.setattr(characteristics, "_newton_changes", recorded)


@pytest.mark.parametrize("seed", [42, 13])
@pytest.mark.parametrize("workload", ["corpus", "proof", "sweep"])
def test_newton_roots_on_the_bench_workloads_equal_illinois(monkeypatch, workload, seed):
    # every scanned planar atomic path of the workload and its gate: the
    # same flips as Illinois, each within 1e-12 of the path's scale, and no
    # path handed back
    scan_edges = characteristics._scan_edges
    roots, wrong, handed = [], [], []

    def audited(signed, path, split):
        got = scan_edges(signed, path, split)
        if split.poly is not None:
            ref = scan_edges(signed, path, split._replace(poly=None))  # Illinois
            lo, hi = path.span
            scale = max(abs(lo), abs(hi), hi - lo)
            roots.extend(got[0][1:-1])
            if len(got[0]) != len(ref[0]) or got[1] != ref[1] or any(
                    abs(a - b) > 1e-12 * scale for a, b in zip(got[0], ref[0])):
                wrong.append((path, got[0], ref[0]))
        return got

    monkeypatch.setattr(characteristics, "_scan_edges", audited)
    _recorded_newton(monkeypatch, handed)
    _run_bench_workload(monkeypatch, workload, seed)
    assert wrong == [] and handed == []
    assert len(roots) > 100


def test_newton_hands_a_path_through_an_atom_to_illinois(monkeypatch):
    # U = ln|z| + Re(8 - 10 z) on [-1, 1] is -inf at its atom's foot s = 1/2,
    # a scan node, and > 0 at the nodes beside it: two brackets with a
    # non-finite end, and a third flip by x = 0.78
    U = _planar_U((8.0 + 0j, -10.0 + 0j), [((0.0, 0.0), 1.0)])
    path = UniformSegment((-1.0, 0.0), (1.0, 0.0), 1.0)
    split = _split(U)
    handed = []
    _recorded_newton(monkeypatch, handed)
    got = characteristics._scan_edges(U.values, path, split)
    assert handed == [path] and len(got[0]) == 5
    assert got == characteristics._scan_edges(U.values, path, split._replace(poly=None))


def test_newton_bisects_where_its_step_leaves_the_bracket(monkeypatch):
    # U = Re((z - v)^2) - m^2 on [-1, 1], its vertex v 0.01 of a scan cell
    # right of the node x_k and its roots v -+ m, m 0.02 of a cell: each
    # bracket holds a root and, at or by its end x_k, a point where F' = 0.
    # From the right bracket's secant point by x_k, where F' < 0, Newton
    # heads for the left root, out of the bracket, and the step bisects;
    # both roots stay in their brackets and equal the exact ones
    cell = 2.0 / 2048
    xk = -1.0 + 1100 * cell
    v, m = xk + 0.01 * cell, 0.02 * cell
    U = _planar_U((complex(v * v - m * m), complex(-2.0 * v), 1.0 + 0j), [])
    path = UniformSegment((-1.0, 0.0), (1.0, 0.0), 1.0)
    ts, handed = [], []
    z_at = UniformSegment.z_at
    monkeypatch.setattr(UniformSegment, "z_at", lambda self, t: ts.append(t) or z_at(self, t))
    _recorded_newton(monkeypatch, handed)
    edges, up, _nodes = characteristics._scan_edges(U.values, path, _split(U))
    s = [1099 / 2048, 1100 / 2048, 1101 / 2048]  # the nodes x_(k-1), x_k, x_(k+1)
    assert handed == [] and up and len(edges) == 4
    assert s[0] < edges[1] < s[1] < edges[2] < s[2]
    assert abs(edges[1] - 0.5 * (1.0 + v - m)) <= 1e-12
    assert abs(edges[2] - 0.5 * (1.0 + v + m)) <= 1e-12
    right = [t for t in ts if t > s[1]]
    assert right[1] == 0.5 * (right[0] + s[2])  # the first step bisects


@pytest.mark.parametrize("alpha, rho", [(0.05, 0.3), (0.1, 0.5), (0.05, 0.8)])
def test_newton_steps_past_a_tangency_that_is_no_flip(monkeypatch, alpha, rho):
    # U = Re(z^3 - r z^2) = x^2 (x - r) on a segment of the real axis whose
    # scan cell holds the double root x = 0 (F = F' = 0, no flip), alpha of
    # a cell right of the node before it, and the flip x = r, r = rho cells:
    # the secant point lies left of x = 0, and Newton converges to the
    # tangency from there, U < 0 on both sides, so a rule that stops on a
    # short step would return it; the step across it keeps U < 0 and moves
    # the bracket past it, to the flip
    cell = 2.0 / 2048
    shift, r = -alpha * cell, rho * cell
    path = UniformSegment((-1.0 + shift, 0.0), (1.0 + shift, 0.0), 1.0)
    U = _planar_U((0j, 0j, complex(-r), 1.0 + 0j), [])
    ts = []
    z_at = UniformSegment.z_at
    monkeypatch.setattr(UniformSegment, "z_at", lambda self, t: ts.append(t) or z_at(self, t))
    edges, up, _nodes = characteristics._scan_edges(U.values, path, _split(U))
    tangency = 0.5 * (1.0 - shift)
    assert any(0.0 < tangency - t < 1e-6 * cell for t in ts)  # Newton neared x = 0 from the left
    assert not up and len(edges) == 3
    assert abs(edges[1] - 0.5 * (1.0 - shift + r)) <= 1e-15


def test_scan_edges_count_the_scan_and_the_newton_points(monkeypatch):
    # a planar atomic path with flips: signed sees the scan alone, no
    # Illinois step, and nodes adds one point per Newton step
    U = _mero(zeros=[(0.5 + 0.2j, 1), (-1.1j, 2)], poles=[(0.9, 1)], unit=1.3).to_delta_subharmonic()
    signed_calls, newton_points = [], []
    _counted_newton(monkeypatch, newton_points)
    edges, _up, nodes = characteristics._scan_edges(_counted(U.values, signed_calls),
                                                    characteristics._circle(1.05), _split(U))
    assert len(signed_calls) == 1 and signed_calls[0] >= 2049
    assert len(edges) > 2 and len(newton_points) >= 2 * (len(edges) - 2)
    assert nodes == signed_calls[0] + len(newton_points)


def test_one_split_per_model_shared_by_every_caller():
    # a model's split is built once and read-only; every caller of one U
    # gets that split, and the outputs equal those of an equal model's own
    U = _mero(zeros=[(0.5 + 0.2j, 1), (-1.1j, 2)], poles=[(0.9, 1)], unit=1.3).to_delta_subharmonic()
    split = _split(U)
    assert _split(U) is split and _split(U.u) is _split(U.u)
    assert not (split.points.flags.writeable or split.weights.flags.writeable)
    with pytest.raises(ValueError):
        split.weights[0] = 0.0
    fresh = DeltaSubharmonicFn(U.u, U.v)
    assert _split(fresh) is not split
    assert np.array_equal(_split(fresh).points, split.points) and _split(fresh).poly == split.poly
    for run in (lambda V: spherical_mean(V, 1.05, "positive"), lambda V: spherical_mean(V, 1.05),
                lambda V: difference_characteristic(V, 0.5, 1.05),
                lambda V: difference_characteristic_canonical(V, 0.5, 1.05)):
        first = run(U)
        assert run(U) == first == run(fresh)


def _planar_U(poly, atoms) -> DeltaSubharmonicFn:
    """Re poly + sum w ln|x - a| over atoms (a, w), w of either sign."""
    pos = tuple(Atom(a, w) for a, w in atoms if w > 0)
    neg = tuple(Atom(a, -w) for a, w in atoms if w < 0)
    return DeltaSubharmonicFn(SubharmonicFn(HarmonicPolynomial(tuple(poly)), BorelMeasure(pos, 2)),
                              SubharmonicFn(None, BorelMeasure(neg, 2)))


def _with_value_at(U, poly, atoms, x, value):
    """U with its constant moved so that U(x) = value, up to rounding; a
    case with an atom at x is rejected."""
    at_x = float(U.values(np.array([x]))[0])
    assume(math.isfinite(at_x))
    return _planar_U((poly[0] + value - at_x,) + tuple(poly[1:]), atoms)


@st.composite
def _planar_paths(draw):
    """(U, path, kind): an atomic planar U and a full circle, partial arc,
    Green rim (every atom outside) or segment (often with every atom outside
    its disk), with atoms near the path's circle and, often, U's zero set
    crossing near it."""
    kind = draw(st.sampled_from(["circle", "arc", "rim", "segment"]))
    c = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    rho = draw(st.floats(0.2, 2.0))
    atoms = []
    clear = kind == "rim" or (kind == "segment" and draw(st.booleans()))  # of the closed disk
    for _ in range(draw(st.integers(1, 5))):
        if clear:
            q = 1.0 + draw(st.floats(1e-4, 3.0))
        elif draw(st.booleans()):  # near the circle, inside or out
            q = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-4, 0.3))
        else:
            q = draw(st.floats(0.0, 3.0))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        w = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 3.0))
        atoms.append(((c[0] + q * rho * math.cos(angle), c[1] + q * rho * math.sin(angle)), w))
    poly = [complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
            for _ in range(draw(st.integers(1, 4)))]
    U = _planar_U(poly, atoms)
    if draw(st.booleans()):  # a zero of U 1e-3 rho or closer to the circle
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        q = 1.0 + draw(st.floats(-1e-3, 1e-3))
        x = (c[0] + q * rho * math.cos(angle), c[1] + q * rho * math.sin(angle))
        U = _with_value_at(U, poly, atoms, x, draw(st.floats(-1e-2, 1e-2)))
    lo = draw(st.floats(-4.0, 4.0))
    if kind == "segment":
        tip = (rho * math.cos(lo), rho * math.sin(lo))
        path = UniformSegment((c[0] - tip[0], c[1] - tip[1]), (c[0] + tip[0], c[1] + tip[1]), 1.0)
    else:
        width = 2.0 * math.pi if kind != "arc" else draw(st.floats(0.1, 6.0))
        path = UniformArc(c, rho, lo, lo + width, 1.0)
    return U, path, kind


def _two_forms(U):
    """(signed, split) as C^+ (U's split) and as the canonical form (the
    split of u* - v*) hand them to _path_edges."""
    u_star, v_star = canonical_representation(U)
    return [(U.values, _split(U)),
            (lambda pts: u_star.values(pts) - v_star.values(pts),
             _split(DeltaSubharmonicFn(u_star, v_star)))]


@settings(max_examples=200, deadline=None)
@given(_planar_paths())
def test_one_signed_proof_holds_on_a_dense_grid_of_the_path(case):
    U, path, kind = case
    for signed, split in _two_forms(U):
        up = characteristics._one_signed(path, split)
        event(f"{kind}: {'undecided' if up is None else 'proved'}")
        if up is None:
            continue
        lo, hi = path.span
        vals = signed(path.at(lo + (hi - lo) * np.arange(65536) / 65535))
        assert np.all((vals > 0.0) == up)
        assert characteristics._path_edges(signed, path, split) == ([lo, hi], up, 0)


@settings(max_examples=200, deadline=None)
@given(_planar_paths(), st.floats(0.0, 1.0))
def test_one_signed_never_proves_a_path_through_a_root(case, at):
    U, path, kind = case
    lo, hi = path.span
    x = tuple(path.at(np.array([lo + at * (hi - lo)]))[0])
    split = _split(U)
    atoms = list(zip(map(tuple, split.points.tolist()), split.weights.tolist()))
    U = _with_value_at(U, split.poly, atoms, x, 0.0)
    for _signed, split in _two_forms(U):
        assert characteristics._one_signed(path, split) is None


def _mp_mean_and_max(poly, atoms, c, rho):
    """The mean of U on the circle |x - c| = rho, and the max of |U - mean|
    there, at 30 digits: from 512 equispaced angles, each of the four
    largest refined by 60 golden-section steps."""
    with mp.workdps(30):
        centre = mp.mpc(*c)

        def u(t):
            z = centre + rho * mp.expj(t)
            acc = mp.mpc(0)
            for a in reversed(poly):
                acc = acc * z + mp.mpc(a.real, a.imag)
            return mp.re(acc) + sum(w * mp.log(abs(z - mp.mpc(*a))) for a, w in atoms)

        mean = mp.quad(u, mp.linspace(0, 2 * mp.pi, 9)) / (2 * mp.pi)

        def dev(t):
            return abs(u(t) - mean)

        step = 2 * mp.pi / 512
        grid = sorted(((dev(k * step), k * step) for k in range(512)), reverse=True)
        best = grid[0][0]
        ratio = (mp.sqrt(5) - 1) / 2
        for _, t in grid[:4]:
            a, b = t - step, t + step
            for _ in range(60):
                x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
                if dev(x1) > dev(x2):
                    b = x2
                else:
                    a = x1
            best = max(best, dev(0.5 * (a + b)))
        return float(mean), float(best)


def _mp_cases():
    rng = random.Random(45)
    cases = []
    for n in range(12):
        c = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        rho = rng.uniform(0.3, 2.0)
        atoms = []
        for _ in range(rng.randint(1, 5)):
            q = rng.choice([rng.uniform(0.0, 0.9), rng.uniform(1.1, 3.0),
                            1.0 + rng.choice([-1, 1]) * rng.uniform(0.05, 0.2)])
            angle = rng.uniform(0.0, 2.0 * math.pi)
            atoms.append(((c[0] + q * rho * math.cos(angle), c[1] + q * rho * math.sin(angle)),
                          rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)))
        degree = 18 if n == 11 else rng.randint(0, 3)  # the last one past _TERMS
        poly = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (1.0 + rho) ** k
                     for k in range(degree + 1))
        cases.append((poly, atoms, c, rho))
    return cases


@pytest.mark.parametrize("poly, atoms, c, rho", _mp_cases())
def test_one_signed_bound_holds_against_an_mpmath_maximum(poly, atoms, c, rho):
    split = _split(_planar_U(poly, atoms))
    mean, bound, margin = characteristics._circle_bound(split, c, rho, False)
    mp_mean, mp_max = _mp_mean_and_max(poly, atoms, c, rho)
    scale = sum(abs(w) * (1.0 + abs(math.log(rho))) for _, w in atoms) + sum(map(abs, poly))
    assert abs(mean - mp_mean) <= 1e-13 * scale
    assert mp_max <= bound
    assert bound <= 1.5 * mp_max + 1e-3 * scale  # close enough to prove what it should
    assert 0.0 < margin < 1e-7 * (scale + bound)


# -- the one model of planar atomic U ------------------------------------------
# _Planar is U = Re g about a ball's centre, with g' in closed form: Green's
# rule traces {U = 0} by g and g', in Python floats along an arc and in numpy
# (whose log follows the dispatch target) at the GL nodes.


def _planar_checks(U, comp):
    """(|Re g - U| and |level - U|, |g' - central difference of g| over both
    axes, |scalar - array| for g and g', each per point over its tolerance)
    at the centre of the ball comp and 16 points at 0.5 and 0.95 of its
    radius."""
    c, rho = complex(*comp.center), comp.radius
    model = characteristics._Planar(_split(U), c)
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    Z = np.concatenate([[c], c + 0.5 * rho * np.exp(1j * angles),
                        c + 0.95 * rho * np.exp(1j * (angles + 0.2))])
    G, dG = model.values(Z), model.slopes(Z)
    out = []
    for z, g, dg in zip(Z.tolist(), G.tolist(), dG.tolist()):
        near = min(abs(z - a) for a, *_ in model.terms)
        w = sum(abs(t[3]) for t in model.terms)
        scale = 1.0 + sum(abs(t[3]) * (1.0 + abs(t[2]) + abs(math.log(abs(z - t[0]))))
                          for t in model.terms) + sum(abs(a) * abs(z) ** k
                                                      for k, a in enumerate(model.coeffs))
        slope_scale = 1.0 + w / near + sum(k * abs(a) * abs(z) ** (k - 1)
                                           for k, a in enumerate(model.coeffs))
        U_z = float(U.values(np.array([[z.real, z.imag]]))[0])
        h = 1e-5 * min(near, 1.0)
        steps = np.array([z + h, z - h, z + 1j * h, z - 1j * h])
        gs = model.values(steps).tolist()
        diffs = [(gs[0] - gs[1]) / (2.0 * h), (gs[2] - gs[3]) / (2j * h)]
        out.append((max(abs(g.real - U_z), abs(model.level(z) - U_z)) / (1e-13 * scale),
                    max(abs(d - dg) for d in diffs) / (1e-9 * (scale + w) / min(near, 1.0)),
                    abs(model.value(z) - g) / (4.0 * _ROUNDING * scale),
                    abs(model.slope(z) - dg) / (4.0 * _ROUNDING * slope_scale)))
    return out


@pytest.mark.parametrize("family", ["disk", "disk_union"])
def test_planar_model_is_u_with_its_slope_on_every_green_ball_of_seed_42(family):
    # every ball of the family's 200 seed-42 scenarios with all atoms outside
    # it: Re g equals U.values, g' a central difference of g along either
    # axis, and the scalar forms the array forms, each within its rounding
    worst, balls = [0.0] * 4, 0
    for k in range(200):
        s = lab.generate_scenario(42, k, family)
        for comp in s.mu.components:
            if np.all(_distances(_split(s.U).points, np.asarray(comp.center)) > comp.radius):
                balls += 1
                for row in _planar_checks(s.U, comp):
                    worst = [max(a, b) for a, b in zip(worst, row)]
    assert balls > 150
    assert max(worst) <= 1.0, worst
