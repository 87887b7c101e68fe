#!/usr/bin/env python3
"""Proof ingredients: the Poisson-Jensen identity, the pointwise bound, and
the counting-measure lemma, each evaluated numerically on sample scenarios.
"""

import math
import random

from deltasubh import (
    Atom,
    BorelMeasure,
    MeromorphicFn,
    verify_counting_lemma,
    verify_pointwise_bound,
    verify_poisson_jensen,
)

rng = random.Random(404)

print("== Poisson-Jensen identity, d=2 ==")
f = MeromorphicFn(zeros=((0.5 + 0.2j, 1),), poles=((-0.6 + 0.4j, 2),),
                  unit_factor=1.3, exponent=(0.1 + 0j, 0.05 - 0.02j))
U = f.to_delta_subharmonic()
pts = []
while len(pts) < 40:
    p = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
    if p[0] ** 2 + p[1] ** 2 <= 1.2 ** 2:
        pts.append(p)
rep = verify_poisson_jensen(U, 2.5, pts, tol=1e-10)
print(f"  {len(rep.points)} interior points, {len(rep.skipped)} skipped as polar")
print(f"  max relative residual = {rep.max_relative:.3e}  [{rep.verdict}]")

print("\n== pointwise bound U^+(x) <= Poisson coefficient * C_(U^+)(R) "
      "+ negative-charge term ==")
bound = verify_pointwise_bound(U, 1.2, 2.5, pts, tol=1e-9)
print(f"  worst slack over sample points = {min(bound.residuals):.6f}  "
      f"[{bound.verdict}]")

print("\n== counting-measure lemma ==")
anchor = verify_counting_lemma(BorelMeasure((Atom((0.0, 0.0), 1.0),), 2), 1.0, 2.0)
print(f"  d=2 anchor: {anchor.lhs} <= {anchor.rhs:.6f} "
      f"(2 ln 2 = {2 * math.log(2):.6f})  [{anchor.verdict}]")
anchor3 = verify_counting_lemma(BorelMeasure((Atom((0.0, 0.0, 0.0), 1.0),), 3), 1.0, 2.0)
print(f"  d=3 anchor: {anchor3.lhs} <= {anchor3.rhs}  [{anchor3.verdict}]")
for trial in range(5):
    d = rng.choice([2, 3])
    R = rng.uniform(1.0, 4.0)
    R_star = R * rng.uniform(0.2, 0.9)
    atoms = tuple(Atom(tuple(rng.uniform(-R, R) for _ in range(d)),
                       rng.uniform(0.1, 2.0))
                  for _ in range(rng.randint(1, 6)))
    rep = verify_counting_lemma(BorelMeasure(atoms, d), R_star, R)
    print(f"  random d={d}: charge(B({R_star:.2f})) = {rep.lhs:.4f} "
          f"<= {rep.rhs:.4f}  [{rep.verdict}]")
