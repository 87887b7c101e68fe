"""One benchmark process: imports deltasubh from the checkout's ``src/``,
runs ``--count`` scenarios of one workload and prints one JSON line.

Started by ``run.py`` with thread pools pinned to one thread; ``--t0`` is the
parent's ``time.monotonic()`` just before this process was started, so
``setup_s`` covers interpreter start, imports and everything up to the first
timed scenario.

Each scenario is timed around generation plus its checks (or its sweep
step), bracketed by two runs of ``reference_loop``, then checked by
``workloads.check`` outside the timer.  Traced, each scenario then runs once
more under the tracer; the traced total minus the untraced total is the
tracing overhead, and both runs must give the same output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("geometry", "measures", "potentials", "quadrature", "characteristics",
           "lab", "scenario_io", "cli")
CORPUS_200 = 200  # the ROADMAP's corpus size, whose CSV md5 is recorded
REF_ROOTS = (0.3 + 0.2j, -0.5 + 0.7j, 0.9 - 0.4j, -0.2 - 0.8j, 0.6 + 0.9j, -0.9 + 0.1j)

# (span name, statistics reported for it); README.md says what each should
# move, and where.
LAYER_STATS = (
    ("measures.dini_integral_result", ("calls_per_scenario", "self_s", "nodes")),
    ("measures.integrated_counting_result", ("calls", "s")),
    ("measures.modulus_profile", ("calls", "s")),
    ("characteristics.difference_characteristic", ("calls_per_scenario",)),
    ("characteristics.difference_characteristic_canonical", ("calls", "s")),
    ("characteristics.nevanlinna_T", ("calls_per_scenario",)),
    ("characteristics.nevanlinna_m", ("calls", "self_s")),
    ("characteristics.spherical_mean", ("calls", "self_s")),
    ("quadrature.integrate_interval", ("calls", "self_s", "nodes")),
    ("quadrature.circle_mean", ("calls", "self_s", "nodes")),
    ("quadrature.integrand", ("calls", "s", "nodes")),
    ("potentials.values_with_polar", ("calls", "s", "points_per_call")),
    ("potentials.log_abs", ("calls", "s", "points_per_call")),
    ("potentials.potential_values", ("calls", "s")),
    ("potentials.canonical_representation", ("calls", "s")),
    ("potentials.jordan_decomposition", ("calls",)),
    ("lab.generate_scenario", ("s",)),
    ("lab.run_checks", ("self_s",)),
    ("lab.positive_part_integral", ("calls", "self_s", "nodes")),
    ("lab.verify_poisson_jensen", ("self_s",)),
    ("lab.verify_pointwise_bound", ("self_s",)),
)


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import deltasubh

    if Path(deltasubh.__file__).resolve().parent != ROOT / "src" / "deltasubh":
        raise SystemExit(f"deltasubh imported from {deltasubh.__file__}, not {ROOT / 'src'}")


def _timed(workload: str, seed: int, k: int):
    """Scenario k of the workload, timed: (seconds, scenario, output)."""
    import workloads

    start = time.perf_counter()
    s, out = workloads.run_scenario(workload, seed, k)
    return time.perf_counter() - start, s, out


def reference_loop() -> float:
    """Fixed work shaped like the lab's integrand evaluations (30 calls of six
    log-kernels on 15 nodes), independent of deltasubh.  Its duration measures
    how fast the machine runs this kind of code at that moment."""
    import numpy as np

    theta = np.linspace(0.0, 2.0 * math.pi, 15)
    acc = 0.0
    for j in range(30):
        z = 1.3 * np.exp(1j * (theta + 0.01 * j))
        v = np.zeros(15)
        for a in REF_ROOTS:
            v = v + np.log(np.abs(z - a))
        acc += float(np.maximum(v, 0.0).sum())
    return acc


def _time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def _layer_metrics(tracer, n: int) -> dict:
    stats = tracer.stats
    out = {}
    for name, fields in LAYER_STATS:
        st = stats[name]
        values = {"calls": st.calls, "calls_per_scenario": st.calls / n, "s": st.total,
                  "self_s": st.self_time, "nodes": st.nodes,
                  "points_per_call": st.nodes / st.calls if st.calls else 0.0}
        for field in fields:
            out[f"{name}.{field}"] = values[field]
    integrand = stats["quadrature.integrand"]
    out["quadrature.nodes_per_integrand_call"] = (
        integrand.nodes / integrand.calls if integrand.calls else 0.0)
    out["quadrature.nudge_events"] = tracer.nudge_events
    out["quadrature.budget_errors"] = tracer.budget_errors
    for module in MODULES:
        with open(ROOT / "src" / "deltasubh" / f"{module}.py", encoding="utf-8") as fh:
            out[f"src_lines.{module}"] = sum(1 for _ in fh)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only start up and report setup_s")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None, help="write traced spans here (.npz)")
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    times, refs, traced_times, families, failures, rows = [], [], [], [], [], []
    setup_s = time.monotonic() - args.t0
    for k in range(args.count):
        families.append(workloads.family(args.workload, k))
        elapsed, bracket, out, traced_out = math.nan, (math.nan, math.nan), [], None
        try:
            before = _time_reference()
            elapsed, s, out = _timed(args.workload, args.seed, k)
            bracket = (before, _time_reference())
            problems = workloads.check(args.workload, s, out)
            if tracer is not None:
                tracer.scenario = k
                tracer.install()
                try:
                    traced_elapsed, _s, traced_out = _timed(args.workload, args.seed, k)
                finally:
                    tracer.uninstall()
                traced_times.append(traced_elapsed)
                if repr(traced_out) != repr(out):
                    problems.append("traced run gave a different output")
        except Exception as exc:  # a scenario that raises counts as failed
            problems = [f"raised {type(exc).__name__}: {exc}"]
            elapsed = math.nan
        times.append(elapsed)
        refs.append(bracket)
        if problems:
            failures.append({"scenario": k, "problems": problems})
        if args.workload == "corpus":
            rows.append(out if traced_out is None else traced_out)

    result = {"setup_s": setup_s, "times": times, "references": refs,
              "families": families, "failures": failures,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rows:
        all_rows = [rep for part in rows for rep in part]
        result["csv_md5"] = hashlib.md5(workloads.render_rows(all_rows).encode()).hexdigest()
        if len(rows) >= CORPUS_200:
            first = [rep for part in rows[:CORPUS_200] for rep in part]
            result["csv_md5_200"] = hashlib.md5(workloads.render_rows(first).encode()).hexdigest()
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, args.count)
        result["layers"]["trace.overhead_s"] = math.fsum(traced_times) - math.fsum(times)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
