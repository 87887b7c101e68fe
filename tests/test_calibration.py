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
s0258, whose T_U is the ladder-biased case of both forms.  Last, a pole so
close to the path that U > 0 only on a window narrower than a cell of the
sign scan.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from deltasubh.characteristics import (
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_m,
    spherical_mean,
)
from deltasubh.lab import generate_scenario, positive_part_integral
from deltasubh.measures import BorelMeasure, UniformArc, UniformSegment
from deltasubh.potentials import MeromorphicFn

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


def _mp_positive_integral(g, g_float, lo, hi, near, scan=8192):
    """integral of max(g, 0) over [lo, hi] (mp numbers), split at the zeros
    of g, found from the sign flips of its float twin g_float on a scan, and
    at the points near."""
    x = np.linspace(float(lo), float(hi), scan + 1)
    up = g_float(x) > 0.0
    roots = [mp.findroot(g, (mp.mpf(x[i]), mp.mpf(x[i + 1])), solver="anderson")
             for i in np.flatnonzero(up[:-1] != up[1:])]
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
