#!/usr/bin/env python3
"""The main integral inequality on concrete scenarios.

    integral over B(r) of U^+ d mu
        <= A_d(r,R) * T_U(r0, R) * (M + integral_0^{R+r} h_mu(t)/t^{d-1} dt)

Runs the golden anchor scenario, one scenario per measure family, and a
small seeded corpus, printing the LHS / RHS / slack breakdown per row.
"""

import math
from collections import Counter

from deltasubh import (
    BorelMeasure,
    CorpusConfig,
    MeromorphicFn,
    Scenario,
    UniformArc,
    constant_A,
    generate_scenario,
    run_checks,
    run_corpus,
    verify_main_theorem,
)

print("== the constant A_d(r, R) ==")
print(f"  A_2(1, 3) = {constant_A(2, 1, 3)}   (exact anchor: 4)")
print(f"  A_2(1, 2) = {constant_A(2, 1, 2)}   A_3(1, 2) = {constant_A(3, 1, 2)}")

print("\n== golden scenario: f(z) = z, unit full-circle measure on |z| = 2 ==")
f = MeromorphicFn(zeros=((0j, 1),))
mu = BorelMeasure((UniformArc((0.0, 0.0), 2.0, 0.0, 2 * math.pi, 1.0),), 2)
s = Scenario("golden", f.to_delta_subharmonic(), mu, 2.0, 4.0, f=f, r0=0.0)
rep = verify_main_theorem(s)
print(f"  LHS = {rep.lhs:.10f}  (Jensen: ln 2 = {math.log(2):.10f})")
print(f"  RHS = {rep.rhs:.10f}  = A * T * (M + Dini) = "
      f"{rep.components['A']:.4f} * {rep.components['T']:.6f} * "
      f"({rep.components['M']:.4f} + {rep.components['dini']:.6f})")
print(f"  slack = {rep.slack:.6f}, verdict: {rep.verdict}")

print("\n== one scenario per family ==")
for index, family in enumerate(("ef_arc", "segment", "disk", "disk_union")):
    s = generate_scenario(7, index, family)
    rows = run_checks(s, ("UR", "UR2f", "UR2fr"))
    line = "  ".join(f"{r.inequality}: slack={r.slack:9.4f} [{r.verdict}]"
                     for r in rows)
    print(f"  {s.scenario_id:<18} {line}")

print("\n== seeded corpus (40 scenarios x 4 checks) ==")
reports = run_corpus(CorpusConfig(count=40), seed=42)
counts = Counter(r.verdict for r in reports)
print(f"  verdicts: {dict(counts)}")
worst = min(r.slack for r in reports if math.isfinite(r.slack))
print(f"  smallest slack across all rows: {worst:.6f} (the theorem holds with room)")
