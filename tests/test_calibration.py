"""Calibration of the positive-part ingredients against 30-digit references.

For a meromorphic f, U = ln|f| has a closed form that mpmath evaluates to
30 digits.  The references split each path at the zeros of U, found by
mp.findroot from the brackets of a double-precision scan, and at the
charge atoms near the path, and integrate U^+ there with mp.quad.  Each
ingredient must lie within its own error estimate of the reference.

The sample: corpus seed 42 scenarios whose C_{U^+}(R) once sat a ladder's
untallied tail off (s0013, s0043, s0086, s0101), one whose circle has a
positive arc narrower than an eighth of the period (s0182), two whose
segment integrals two GL15 levels once agreed on across a kink (s0053, and
seed 13 s0057, then 4.4e-7 off with an estimate of 0), and sweep seed 9,
s0258, whose T_U is the ladder-biased case of both forms.  Then a pole so
close to the path that U > 0 only on a window narrower than a cell of the
sign scan.  Last, the cases that singular-point cells once biased by about
their own estimate: the arc integral of PIN_ARC (a pole close to its circle,
inside its angles), sweep seed 42 s0123 T(r_0, f) (5.3 times its estimate
off) and s0184 canonical T_U, and N_{charge^-}(1.5, 4) of PIN_2D, whose
continuous charges need mpmath ball-lens and segment-chord masses.  And the
closed-form kernel integrals that replaced those cells, whose rounding bound
must hold where their terms cancel, as on a piece far shorter than its
distance from the atom.  And the 14 corpus disks whose integral of U^+ the
product grid once missed by more than its estimate, against pinned shell
references computed offline with scipy (_DISK_REFERENCES says how).
"""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from deltasubh.characteristics import (
    _sign_changes,
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_m,
    nevanlinna_T,
    spherical_mean,
)
from deltasubh.lab import generate_scenario, positive_part_integral
from deltasubh.measures import (Atom, BorelMeasure, UniformArc, UniformBall, UniformSegment,
                                integrated_counting_result)
from deltasubh.potentials import MeromorphicFn, jordan_decomposition
from deltasubh.scenario_io import parse_scenario
from test_cli import PIN_2D, PIN_ARC

FAMILIES = ("ef_arc", "segment", "disk", "disk_union")  # the corpus round robin


def _scenario(seed, index):
    return generate_scenario(seed, index, FAMILIES[index % 4])


def _mp_log_abs(f):
    """ln|f(z)| at 30 digits, from the float parameters of f."""
    unit = mp.log(abs(mp.mpc(f.unit_factor)))

    def log_abs(z):
        p = mp.mpc(0)
        for c in reversed(f.exponent):
            p = p * z + mp.mpc(c)
        out = unit + mp.re(p)
        for a, m in f.zeros:
            out += m * mp.log(abs(z - mp.mpc(a)))
        for b, n in f.poles:
            out -= n * mp.log(abs(z - mp.mpc(b)))
        return out

    return log_abs


def _mp_roots(g, g_float, lo, hi, scan=8192, solver="anderson"):
    """The zeros of g (mp numbers) in [lo, hi], by mp.findroot from the
    brackets where its float twin g_float flips sign on a scan."""
    x = np.linspace(float(lo), float(hi), scan + 1)
    up = g_float(x) > 0.0
    return [mp.findroot(g, (mp.mpf(x[i]), mp.mpf(x[i + 1])), solver=solver)
            for i in np.flatnonzero(up[:-1] != up[1:])]


def _mp_positive_integral(g, g_float, lo, hi, near, scan=8192):
    """integral of max(g, 0) over [lo, hi] (mp numbers), split at the zeros
    of g (_mp_roots) and at the points near."""
    roots = _mp_roots(g, g_float, lo, hi, scan)
    edges = sorted(set([lo, hi] + roots + [mp.mpf(t) for t in near if lo < t < hi]))
    total = mp.mpf(0)
    for a, b in zip(edges[:-1], edges[1:]):
        if g((a + b) / 2) > 0:
            total += mp.quad(g, [a, b])
    return total


def _mp_circle_mean_plus(f, r):
    """C_{U^+}(r) = m(r, f) at 30 digits."""
    with mp.workdps(30):
        log_abs = _mp_log_abs(f)
        R = mp.mpf(r)
        near = [mp.arg(mp.mpc(a)) % (2 * mp.pi) for a, _ in f.zeros + f.poles
                if abs(abs(a) - r) <= 0.05 * r]
        return _mp_positive_integral(lambda t: log_abs(R * mp.expj(t)),
                                     lambda t: f.log_abs(r * np.exp(1j * t)),
                                     mp.mpf(0), 2 * mp.pi, near) / (2 * mp.pi)


def _mp_segment_plus(f, comp):
    """integral of U^+ against the uniform measure on the segment comp."""
    with mp.workdps(30):
        log_abs = _mp_log_abs(f)
        a, b = mp.mpc(*comp.start), mp.mpc(*comp.end)
        near = []
        for z, _ in f.zeros + f.poles:
            s = mp.re((mp.mpc(z) - a) * mp.conj(b - a)) / abs(b - a) ** 2
            near.append(min(max(s, mp.mpf(0)), mp.mpf(1)))
        za, zb = complex(*comp.start), complex(*comp.end)
        return comp.weight * _mp_positive_integral(
            lambda s: log_abs(a + s * (b - a)), lambda s: f.log_abs(za + s * (zb - za)),
            mp.mpf(0), mp.mpf(1), near)


def _mp_arc_plus(f, comp):
    """integral of U^+ against the uniform measure on the arc comp."""
    with mp.workdps(30):
        log_abs = _mp_log_abs(f)
        c = mp.mpc(*comp.center)
        near = [comp.angle_start + (mp.arg(mp.mpc(z) - c) - comp.angle_start) % (2 * mp.pi)
                for z, _ in f.zeros + f.poles]
        zc = complex(*comp.center)
        return comp.weight / mp.mpf(comp.width) * _mp_positive_integral(
            lambda t: log_abs(c + comp.radius * mp.expj(t)),
            lambda t: f.log_abs(zc + comp.radius * np.exp(1j * t)),
            mp.mpf(comp.angle_start), mp.mpf(comp.angle_end), near)


def _mp_T(f, r):
    """T(r, f) = m(r, f) + N(r, f)."""
    with mp.workdps(30):
        return _mp_circle_mean_plus(f, r) + mp.fsum(
            n * mp.log(mp.mpf(r) / abs(mp.mpc(b))) for b, n in f.poles if abs(b) <= r)


def _mp_counting_minus(f, r, R):
    """N_{charge^-}(r, R): the poles counted by ln(R / max(r, |b|))."""
    with mp.workdps(30):
        return mp.fsum(n * mp.log(mp.mpf(R) / max(mp.mpf(r), abs(mp.mpc(b))))
                       for b, n in f.poles if abs(b) < R)


def _assert_within(res_value, res_estimate, ref):
    assert abs(mp.mpf(res_value) - ref) <= res_estimate, (res_value, ref, res_estimate)


@pytest.mark.parametrize("index", [13, 43, 86, 101, 182])
def test_circle_means_of_the_positive_part_within_their_estimates(index):
    s = _scenario(42, index)
    ref = _mp_circle_mean_plus(s.f, s.R)
    c_plus = spherical_mean(s.U, s.R, "positive", s.tolerances.mean)
    m = nevanlinna_m(s.f, s.R, s.tolerances.mean)
    _assert_within(c_plus.value, c_plus.error_estimate, ref)
    _assert_within(m.value, m.error_estimate, ref)


@pytest.mark.parametrize("seed, index", [(42, 53), (13, 57)])
def test_segment_integral_of_the_positive_part_within_its_estimate(seed, index):
    s = _scenario(seed, index)
    (comp,) = s.mu.components
    res = positive_part_integral(s.U, s.mu, s.tolerances.mean)
    _assert_within(res.value, res.error_estimate, _mp_segment_plus(s.f, comp))


# The integral of U^+ d mu over the one disk of these seed-42 scenarios,
# which the product grid missed by 11 to 89,000 times its estimate: value
# and error bound of a shell reference computed offline with scipy.  It is
# weight times quad in the shell radius q, at epsabs = epsrel = 1e-13, of
# (2 q / rho^2) times the by-sign mean of U^+ on the circle |x - c| = q
# (characteristics._path_integral at tol 1e-14, its sign scan refined from
# 2,048 to 65,536 cells), with quad's breakpoints at the radii where the
# circles' root count changes (each the tangency radius of a circle and
# {U = 0}, from a 400-radius scan and 60 bisections).  Both refinements
# matter: without them a window of U > 0 narrower than a scan cell, or a
# lobe of {U > 0} that only circles near the rim meet, is lost.
_DISK_REFERENCES = {
    6: (0.045482641022061315, 1.9e-14),
    30: (1.5548958156703385, 1.3e-14),
    38: (0.10408810436649145, 7.6e-14),
    46: (0.13373982551991667, 3.9e-14),
    54: (0.18252402256799305, 3.9e-14),
    70: (0.695497705812103, 7.9e-16),
    82: (1.269923201278402, 1.5e-14),
    114: (0.2130441144676693, 1.6e-14),
    134: (0.1960372924592843, 8.2e-14),
    154: (0.044130239948375505, 2.9e-15),
    158: (0.05581073349285673, 4.3e-15),
    170: (1.2220876597007413, 1.7e-14),
    174: (0.4939082489262549, 4.0e-15),
    198: (1.2150673296625074, 1.6e-13),
}


@pytest.mark.parametrize("index", sorted(_DISK_REFERENCES))
def test_disk_integral_of_the_positive_part_within_its_estimate(index):
    # Green's rule (lab._green_ball_integral) takes each of these disks and
    # meets tol; s0154 is the disk where the grid ends at its level cap
    s = generate_scenario(42, index, "disk")
    ref, ref_error = _DISK_REFERENCES[index]
    res = positive_part_integral(s.U, s.mu, s.tolerances.mean)
    assert res.error_estimate <= s.tolerances.mean
    assert abs(res.value - ref) <= res.error_estimate + ref_error, (res.value, ref)


def test_difference_characteristic_both_forms_within_their_estimates():
    # the sweep's last step of scenario 258: T_U(R/4, R)
    s = _scenario(9, 258)
    r0 = 0.25 * s.R
    ref = _mp_circle_mean_plus(s.f, s.R) + _mp_counting_minus(s.f, r0, s.R)
    for form in (difference_characteristic, difference_characteristic_canonical):
        rec = form(s.U, r0, s.R, s.tolerances.mean)
        _assert_within(rec.value, rec.error_estimate, ref)


def test_a_positive_window_between_two_scan_nodes_is_integrated():
    # f = 0.01005 / (z - b), |b| = 1.01: on the unit circle |f| > 1 only for
    # |theta - alpha| < 9.96e-4, inside one 3.07e-3 cell of the 2048-cell scan
    # at alpha = pi / 2048, so no scan node but the pole's angle sees U > 0
    alpha = math.pi / 2048
    b = 1.01 * cmath.exp(1j * alpha)
    f = MeromorphicFn(poles=((b, 1),), unit_factor=0.01005)
    U = f.to_delta_subharmonic()
    ref = _mp_circle_mean_plus(f, 1.0)  # also T_U(r, 1): the pole lies outside
    circle = BorelMeasure((UniformArc((0.0, 0.0), 1.0, 0.0, 2 * math.pi, 1.0),), 2)
    for res in (nevanlinna_m(f, 1.0), spherical_mean(U, 1.0, "positive"),
                difference_characteristic(U, 0.25, 1.0),
                difference_characteristic_canonical(U, 0.25, 1.0),
                positive_part_integral(U, circle, 1e-8)):
        _assert_within(res.value, res.error_estimate, ref)
    # a segment of length 10 past the pole, its foot mid-cell: U > 0 on 2e-4 of it
    seg = UniformSegment((1.0, b.imag - 10 * (0.5 + 0.5 / 2048)),
                         (1.0, b.imag + 10 * (0.5 - 0.5 / 2048)), 1.0)
    res = positive_part_integral(U, BorelMeasure((seg,), 2), 1e-8)
    _assert_within(res.value, res.error_estimate, _mp_segment_plus(f, seg))


def test_arc_integral_with_a_pole_close_to_its_circle():
    s = parse_scenario(PIN_ARC)
    res = positive_part_integral(s.U, s.mu, s.tolerances.mean)
    ref = _mp_arc_plus(s.f, s.mu.components[0])
    assert abs(ref - mp.mpf("0.43677670118060840")) < 1e-17
    _assert_within(res.value, res.error_estimate, ref)


def test_sweep_characteristics_once_biased_by_their_estimate():
    # the bench sweep's grid r_0 < ... < r_7 = linspace(R/4, R, 8); seed 42
    # s0123 is step 4, s0184 step 2
    s = _scenario(42, 123)
    r0 = float(np.linspace(0.25 * s.R, s.R, 8)[0])
    rec = nevanlinna_T(s.f, r0, s.tolerances.mean)
    _assert_within(rec.value, rec.error_estimate, _mp_T(s.f, r0))
    s = _scenario(42, 184)
    grid = np.linspace(0.25 * s.R, s.R, 8)
    r0, r = float(grid[0]), float(grid[3])
    rec = difference_characteristic_canonical(s.U, r0, r, s.tolerances.mean)
    _assert_within(rec.value, rec.error_estimate,
                   _mp_circle_mean_plus(s.f, r) + _mp_counting_minus(s.f, r0, r))


def _mp_ball_mass(comp, t):
    """mass of the d=2 ball comp in the disk |x| <= t: the lens area."""
    q, rho, t = mp.hypot(*comp.center), mp.mpf(comp.radius), mp.mpf(t)
    if t + rho <= q:
        return mp.mpf(0)
    if q + rho <= t or q + t <= rho:
        return comp.weight * min(t, rho) ** 2 / rho ** 2
    a1 = mp.acos((q * q + t * t - rho * rho) / (2 * q * t))
    a2 = mp.acos((q * q + rho * rho - t * t) / (2 * q * rho))
    kite = mp.sqrt((-q + t + rho) * (q + t - rho) * (q - t + rho) * (q + t + rho)) / 2
    return comp.weight * (t * t * a1 + rho * rho * a2 - kite) / (mp.pi * rho * rho)


def _mp_chord_mass(comp, t):
    """mass of the segment comp in the disk |x| <= t: its chord's share."""
    a, e = mp.matrix(comp.start), mp.matrix(comp.end) - mp.matrix(comp.start)
    ee, ae, aa = (e.T * e)[0], (a.T * e)[0], (a.T * a)[0]
    disc = ae * ae - ee * (aa - mp.mpf(t) ** 2)
    if disc <= 0:
        return mp.mpf(0)
    lo, hi = (-ae - mp.sqrt(disc)) / ee, (-ae + mp.sqrt(disc)) / ee
    return comp.weight * max(mp.mpf(0), min(hi, 1) - max(lo, 0))


def test_counting_function_of_continuous_charges():
    # N_{charge^-}(1.5, 4) of PIN_2D: an atom, a ball and a segment
    s = parse_scenario(PIN_2D)
    _plus, minus = jordan_decomposition(s.U)
    r, R = 1.5, 4.0
    res = integrated_counting_result(minus, r, R)
    with mp.workdps(30):
        breaks = {mp.mpf(r), mp.mpf(R)}
        for comp in minus.components:
            if isinstance(comp, UniformBall):
                q = mp.hypot(*comp.center)
                breaks |= {abs(q - comp.radius), q + comp.radius}
            elif isinstance(comp, UniformSegment):
                a, b = mp.matrix(comp.start), mp.matrix(comp.end)
                e = b - a
                foot = a + min(max(-(a.T * e)[0] / (e.T * e)[0], 0), 1) * e
                breaks |= {mp.norm(foot), mp.norm(a), mp.norm(b)}
        edges = sorted(t for t in breaks if r <= t <= R)
        ref = mp.mpf(0)
        for comp in minus.components:
            if isinstance(comp, Atom):
                ref += comp.weight * mp.log(R / max(mp.mpf(r), mp.hypot(*comp.point)))
            else:
                mass = _mp_ball_mass if isinstance(comp, UniformBall) else _mp_chord_mass
                ref += mp.quad(lambda t: mass(comp, t) / t, edges)
    _assert_within(res.value, res.error_estimate, ref)


def _mp_kernel_integral(path, a, b, p, d):
    """integral_a^b k(|x(t) - p|) dt along path, split at p's foot."""
    with mp.workdps(30):
        if isinstance(path, UniformArc):
            c, rho = [mp.mpf(x) for x in path.center], mp.mpf(path.radius)
            x = lambda t: [c[0] + rho * mp.cos(t), c[1] + rho * mp.sin(t)]
            foot = mp.atan2(mp.mpf(p[1]) - c[1], mp.mpf(p[0]) - c[0])
            feet = [foot + 2 * mp.pi * j for j in range(-2, 3)]
        else:
            s0 = [mp.mpf(v) for v in path.start]
            st = [mp.mpf(e) - v for e, v in zip(path.end, s0)]
            x = lambda t: [s0[i] + t * st[i] for i in range(d)]
            feet = [mp.fsum((mp.mpf(p[i]) - s0[i]) * st[i] for i in range(d))
                    / mp.fsum(v * v for v in st)]

        def k(t):
            dist = mp.sqrt(mp.fsum((xi - mp.mpf(pi)) ** 2 for xi, pi in zip(x(t), p)))
            return mp.log(dist) if d == 2 else -1 / dist

        return mp.quad(k, sorted({mp.mpf(a), mp.mpf(b)} | {t for t in feet if a < t < b}))


def test_closed_form_kernel_integrals_within_their_rounding_bound():
    # first, short pieces of a line hundreds of lengths from the atom along
    # it: the antiderivatives subtracted are of size |u| ln|u|, so these miss
    # by 5 to 46 times a bound of 16 eps (|value| + 4)
    for step, a, length, along, normal in [((1.0, 0.5), 0.4, 1e-6, 700.0, 1e-3),
                                           ((0.3, 2.0), 0.2, 1e-4, -900.0, 0.5),
                                           ((1.0, 0.5), 0.4, 1e-3, 300.0, 2.0)]:
        path = UniformSegment((3.0, -2.0), (3.0 + step[0], -2.0 + step[1]), 1.0)
        p = (np.array(path.start) + along * np.subtract(path.end, path.start)
             + normal * np.array([-step[1], step[0]]))
        values, bound = path.kernel_integrals([(a, a + length)], p[None, :])
        _assert_within(float(values[0, 0]), float(bound[0, 0]),
                       _mp_kernel_integral(path, a, a + length, p, 2))
    # then arcs of every width about atoms on, near and far from their
    # circle, and line pieces far from the origin, down to 1e-10 of the path
    # and 1e-6 of the atom's distance, in d = 2 and 3
    rng = random.Random(5)
    for _ in range(60):
        kind = rng.choice(["arc", 2, 3])
        if kind == "arc":
            d = 2
            center, radius = (rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 3)
            a = rng.uniform(-3, 3)
            b = a + rng.choice([1e-9, 1e-5, 1e-2, 0.5, 3.0, 2 * math.pi])
            path = UniformArc(center, radius, a, b, 1.0)
            t = rng.uniform(a - 1, b + 1)
            q = path.radius + rng.choice([0.0, 1e-12, 1e-6, 1e-2, 1.0, 30.0]) * rng.choice([-1, 1])
            p = np.array([path.center[0] + q * math.cos(t), path.center[1] + q * math.sin(t)])
        else:
            d = kind
            start = np.array([rng.uniform(-50, 50) for _ in range(d)])
            step = np.array([rng.uniform(-3, 3) for _ in range(d)])
            path = UniformSegment(start, start + step, 1.0)
            a = rng.uniform(0.0, 0.9)
            b = a + rng.choice([1e-10, 1e-6, 1e-3, 0.1])
            normal = np.array([rng.gauss(0, 1) for _ in range(d)])
            normal -= normal @ step / (step @ step) * step
            p = (start + rng.uniform(a - 0.2, b + 0.2) * step
                 + rng.choice([1e-6, 1e-2, 1.0, 30.0, 1000.0]) * normal / np.linalg.norm(normal))
        values, bound = path.kernel_integrals([(a, b)], p[None, :])
        _assert_within(float(values[0, 0]), float(bound[0, 0]), _mp_kernel_integral(path, a, b, p, d))


_SPAN = (-1.0, 2.0)
_CELL = (_SPAN[1] - _SPAN[0]) / 2048
_C = _SPAN[0] + 700.7 * _CELL  # the kink and the flat root, inside a cell


@pytest.mark.parametrize("name, g_float, g, solver, max_calls", [
    ("smooth", lambda t: np.sin(3.0 * t + 0.1) - 0.2,
     lambda t: mp.sin(3 * t + mp.mpf("0.1")) - mp.mpf("0.2"), "anderson", 10),
    # |t - c| - delta: the kink at c shares a cell with the root c - delta
    ("kinked", lambda t: np.abs(t - _C) - 0.6 * _CELL,
     lambda t: abs(t - mp.mpf(_C)) - mp.mpf(0.6 * _CELL), "anderson", 10),
    # (t - c)^5: regula falsi alone crawls, so the bisection guard sets the
    # pace: the bracket halves at least every third step.  (anderson stops
    # short of this root.)
    ("flat", lambda t: (t - _C) ** 5, lambda t: (t - mp.mpf(_C)) ** 5, "bisect",
     3 * math.ceil(math.log2(_CELL / (4.0 * np.finfo(float).eps * (_SPAN[1] - _SPAN[0]))))),
])
def test_sign_changes_find_each_root_to_rounding_in_few_calls(name, g_float, g, solver,
                                                              max_calls):
    # the edges of the by-sign rule, on its 2048-cell scan, against 30-digit
    # roots: within 4 eps of the span each, and on the smooth and kinked
    # roots in far fewer calls than the 48 of one bisection per bit
    lo, hi = _SPAN
    x = lo + (hi - lo) * np.arange(2049) / 2048
    calls = []

    def evaluator(t):
        calls.append(t.size)
        return g_float(t)

    edges = _sign_changes(evaluator, x, g_float(x))
    with mp.workdps(30):
        roots = _mp_roots(g, g_float, mp.mpf(lo), mp.mpf(hi), 2048, solver)
    assert len(edges) == len(roots) == (1 if name == "flat" else 2)
    for edge, root in zip(edges, roots):
        assert abs(edge - root) <= 4.0 * np.finfo(float).eps * (hi - lo), name
    assert len(calls) <= max_calls
