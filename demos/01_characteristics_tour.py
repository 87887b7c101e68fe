#!/usr/bin/env python3
"""Tour of the characteristic functionals.

Walks from the radial kernel through circle means to the classical
Nevanlinna quantities m, N, T and the difference characteristic T_U in both
of its forms, checking each step against a closed form.
"""

import math

from deltasubh import (
    MeromorphicFn,
    difference_characteristic,
    difference_characteristic_canonical,
    kernel,
    nevanlinna_N,
    nevanlinna_T,
    nevanlinna_m,
    spherical_mean,
    sup_on_sphere,
)
from deltasubh.geometry import _d_hat

print("== dimension constants ==")
for d in (2, 3):
    print(f"  d={d}: d_hat={_d_hat(d)}")
print(f"  kernel d=2: k(1)={kernel(2, 1.0)}, k(e)={kernel(2, math.e):.6f}")
print(f"  kernel d=3: k(2)={kernel(3, 2.0)}, k(0)={kernel(3, 0.0)}")

print("\n== circle means and Jensen's closed form ==")
# mean of ln|z - a| over |z| = r equals ln max(r, |a|)
a = 1.2 + 0.9j
U = MeromorphicFn(zeros=((a, 1),)).to_delta_subharmonic()
for r in (0.5, 1.0, 2.0, 4.0):
    mean = spherical_mean(U, r, tol=1e-10)
    print(f"  C_(ln|z-a|)({r}) = {mean.value:+.10f}   "
          f"ln max(r,|a|) = {math.log(max(r, abs(a))):+.10f}")

print("\n== classical m, N, T for f = z/(z-1) ==")
f = MeromorphicFn(zeros=((0j, 1),), poles=((1 + 0j, 1),))
for r in (0.5, 2.0, 3.0):
    m = nevanlinna_m(f, r)
    N = nevanlinna_N(f, r)
    T = nevanlinna_T(f, r)
    print(f"  r={r}: m={m.value:.8f}  N={N.value:.8f}  T={T.value:.8f}")
print(f"  N(2, f) should be ln 2 = {math.log(2):.8f}")

print("\n== sup on the circle: ln M(r, f) ==")
g = MeromorphicFn(zeros=((1 + 0j, 1), (-1 + 0j, 1)))  # (z-1)(z+1)
Ug = g.to_delta_subharmonic()
sup = sup_on_sphere(Ug, 2.0)
print(f"  max over |z|=2 of ln|z^2-1| = {sup.value:.8f}  (ln 5 = {math.log(5):.8f})")

print("\n== the difference characteristic, two independent forms ==")
U = f.to_delta_subharmonic()
for (r, R) in ((1.0, 2.0), (0.5, 3.0), (1.0, 3.0)):
    by_def = difference_characteristic(U, r, R, tol=1e-10)
    by_canon = difference_characteristic_canonical(U, r, R, tol=1e-10)
    bridge = nevanlinna_T(f, R, tol=1e-10).value - nevanlinna_N(f, r).value
    print(f"  T_U({r},{R}): definition={by_def.value:.10f}  "
          f"canonical={by_canon.value:.10f}  T(R,f)-N(r,f)={bridge:.10f}")
print("  all three agree: the bridge identity and the canonical-form oracle")
