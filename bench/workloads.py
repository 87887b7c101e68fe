"""The benchmark's three workloads, driven through the public deltasubh API.

Each workload is a sequence of scenarios ``generate_scenario(seed, k, family)``
for k = 0, 1, 2, ...  ``run_scenario`` does the timed work of one scenario and
returns what the correctness gate needs; ``check`` is the gate, run after the
timer stops.  Library calls go through module attributes (``lab.run_checks``)
so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from deltasubh import characteristics, cli, lab, measures

CORPUS_FAMILIES = ("ef_arc", "segment", "disk", "disk_union")
CORPUS_CHECKS = ("UR", "UR2", "UR2f", "UR2fr")
PROOF_CHECKS = ("Ux", "U+B", "dBr")


def family(workload: str, k: int) -> str:
    """Scenario family of index k: the corpus's round-robin, or ``charges``."""
    return "charges" if workload == "proof" else CORPUS_FAMILIES[k % 4]


def run_scenario(workload: str, seed: int, k: int):
    """The timed work of scenario k: generation plus the checks, or generation
    plus one step of the radius sweep."""
    s = lab.generate_scenario(seed, k, family(workload, k), lab.Tolerances())
    if workload == "corpus":
        return s, lab.run_checks(s, CORPUS_CHECKS)
    if workload == "proof":
        return s, lab.run_checks(s, PROOF_CHECKS)
    return s, _sweep(s, k)


def _sweep(s, k: int):
    """Step k mod 7 of the ``characteristic`` and ``modulus`` subcommands'
    radius sweep: on the grid r_0 < ... < r_7 = linspace(R/4, R, 8), T(r, f)
    at r_0 and r_{j+1}, T_U(r_0, r_{j+1}) in definition and canonical form,
    and h_mu at every 7th point of linspace(0.01, r, 16) from the j-th.
    Seven consecutive scenarios cover the whole sweep, each step on its own
    scenario, so every call is at a radius no other call of its scenario uses."""
    tol = s.tolerances.mean
    j = k % 7
    grid = np.linspace(0.25 * s.R, s.R, 8)
    r0, r = float(grid[0]), float(grid[j + 1])
    return {
        "r0": r0,
        "T": characteristics.nevanlinna_T(s.f, r, tol),
        "T0": characteristics.nevanlinna_T(s.f, r0, tol),
        "definition": characteristics.difference_characteristic(s.U, r0, r, tol),
        "canonical": characteristics.difference_characteristic_canonical(s.U, r0, r, tol),
        "profile": measures.modulus_profile(
            s.mu, [float(t) for t in np.linspace(0.01, s.r, 16)[j::7]], "auto"),
    }


def _agree(a: float, b: float, estimate: float) -> bool:
    """|a - b| within the combined error estimate plus a rounding allowance."""
    return abs(a - b) <= estimate + 1e-12 * max(1.0, abs(a), abs(b))


def check(workload: str, s, out) -> list:
    """Correctness gate for one scenario; returns the reasons it failed."""
    problems = []
    if workload in ("corpus", "proof"):
        problems += [f"{rep.inequality} verdict {rep.verdict}"
                     for rep in out if rep.verdict != "pass"]
    if workload == "corpus":
        rows = {rep.inequality: rep for rep in out}
        ur, ur2 = rows.get("UR"), rows.get("UR2")
        if ur is None or ur2 is None:
            problems.append("UR or UR2 row missing")
        elif not (_agree(ur.lhs, ur2.lhs, ur.error_budget)
                  and _agree(ur.rhs, ur2.rhs, ur.error_budget)):
            problems.append("UR2 row differs from UR row beyond the row budget")
    if workload in ("corpus", "sweep"):
        c_plus = characteristics.spherical_mean(s.U, s.R, "positive", s.tolerances.mean)
        m = characteristics.nevanlinna_m(s.f, s.R, s.tolerances.mean)
        if not _agree(c_plus.value, m.value, c_plus.error_estimate + m.error_estimate):
            problems.append(f"C_U+(R) {c_plus.value!r} != m(R,f) {m.value!r}")
    if workload == "sweep":
        d, c, T = out["definition"], out["canonical"], out["T"]
        N0 = characteristics.nevanlinna_N(s.f, out["r0"])
        if not _agree(d.value, c.value, d.error_estimate + c.error_estimate):
            problems.append(f"T_U({d.r!r},{d.R!r}) definition {d.value!r} "
                            f"!= canonical {c.value!r}")
        if not _agree(T.value - N0.value, d.value,
                      T.error_estimate + N0.error_estimate + d.error_estimate):
            problems.append(f"bridge at r={T.r!r}: T(r,f)-N(r0,f) "
                            f"{T.value - N0.value!r} != T_U {d.value!r}")
        profile = out["profile"]
        if not all(0.0 <= h <= profile.mass * (1.0 + 1e-12) for h in profile.values):
            problems.append("modulus profile value outside [0, mu mass]")
    return problems


def render_rows(rows) -> str:
    """Corpus rows as ``deltasubh-lab corpus`` writes them, through the CLI's
    own CSV writer (which writes to standard output when given no path)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli._write_rows(rows, None)
