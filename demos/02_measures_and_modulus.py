#!/usr/bin/env python3
"""Measures, radial counting, the modulus of continuity, and Dini integrals.

Builds each primitive component, queries ball masses, samples h profiles
(exact vs search lower bounds), and classifies Dini convergence.  Every
measure states its dimension once, BorelMeasure(components, dim); a profile
carries it on to the tail-limit check, which takes the kernel of that d.
"""

import math

from deltasubh import (
    Atom,
    BorelMeasure,
    UniformArc,
    UniformBall,
    UniformSegment,
    dini_integral_result,
    dini_limits_check,
    integrated_counting_result,
    modulus_of_continuity,
    modulus_profile,
    radial_counting,
)

print("== radial counting on primitives ==")
seg = BorelMeasure((UniformSegment((0.0, 0.0), (1.0, 0.0), 1.0),), 2)
print(f"  segment [0,1], ball at 0 radius 0.25 -> {radial_counting(seg, (0,0), 0.25)}")
two = BorelMeasure((Atom((0.0, 0.0), 1.0), Atom((1.0, 0.0), 1.0)), 2)
print(f"  two unit atoms, ball at (0.5,0) radius 0.5 -> {radial_counting(two, (0.5,0), 0.5)}"
      "  (closed balls include the boundary)")

print("\n== modulus of continuity ==")
for t in (0.3, 0.4, 0.5, 0.6):
    print(f"  two atoms, h({t}) = {modulus_of_continuity(two, t)}")
circle = BorelMeasure((UniformArc((0.0, 0.0), 1.0, 0.0, 2 * math.pi, 1.0),), 2)
print("  full unit circle, weight 1:")
for t in (0.25, 0.5, 1.0):
    analytic = 1.0 if t >= 1.0 else math.asin(t) / math.pi
    print(f"    h({t}) = {modulus_of_continuity(circle, t):.10f}"
          f"   arcsin form = {analytic:.10f}")

print("\n== profiles with exactness flags ==")
mixture = BorelMeasure((UniformBall((0.0, 0.0), 0.4, 1.0),
                        UniformBall((1.0, 0.0), 0.3, 0.5)), 2)
prof = modulus_profile(mixture, [0.1, 0.2, 0.4, 0.8, 1.6], method="upper")
for t, h, flag in zip(prof.radii, prof.values, prof.flags):
    print(f"    t={t:<4} h={h:.6f}  [{flag}]")

print("\n== integrated counting function N_mu(r, R) ==")
atom = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
N = integrated_counting_result(atom, 1.0, math.e).value
print(f"  unit atom at 0, d=2, N(1, e) = {N:.10f}")
atom3 = BorelMeasure((Atom((0.0, 0.0, 0.0), 1.0),), 3)
print(f"  unit atom at 0, d=3, N(1, 2) = {integrated_counting_result(atom3, 1.0, 2.0).value:.10f}")
print(f"  unit atom at 0, d=2, N(0, 1) = {integrated_counting_result(atom, 0.0, 1.0).value}"
      "  (mass at the center diverges)")

print("\n== Dini integrals: the admissibility gate ==")
ball3 = BorelMeasure((UniformBall((0, 0, 0), 1.0, 1.0),), 3)
cases = [
    ("segment (d=2)", seg),
    ("atom (d=2)", atom),
    ("solid ball (d=3)", ball3),
    ("segment (d=3)", BorelMeasure((UniformSegment((0, 0, 0), (1, 0, 0), 1.0),), 3)),
]
for name, mu in cases:
    val = dini_integral_result(mu, 1.0).value
    verdict = "admissible" if math.isfinite(val) else "DIVERGES"
    print(f"  {name:<16} integral_0^1 h/t^(d-1) dt = {val!s:<22} {verdict}")

print("\n== tail limits h(t) -> 0 and h(t) k(t) -> 0 ==")
grid = [2.0 ** (-k) for k in range(40, 0, -1)]
for name, mu in (("segment", seg), ("atom", atom), ("solid ball (d=3)", ball3)):
    rep = dini_limits_check(modulus_profile(mu, grid))
    print(f"  {name}: h({rep.t_min:.1e}) = {rep.h_at_min:.3e}, "
          f"h*k = {rep.hk_at_min:.3e}, h->0: {rep.h_to_zero}, hk->0: {rep.hk_to_zero}")
