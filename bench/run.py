"""Benchmark of deltasubh-lab: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload corpus --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ``src/deltasubh`` from there
and exits with code 2, printing no result, when that is missing.  Workloads
(see bench/README.md for why each exists):

* ``corpus``: ``deltasubh-lab corpus`` in-process, checks UR,UR2,UR2f,UR2fr;
* ``proof``:  the ``charges`` family with checks Ux,U+B,dBr;
* ``sweep``:  one step of the ``characteristic``/``modulus`` radius sweep per
  scenario.

``--seconds`` fixes the number of scenarios (``SCENARIOS_PER_SECOND``), so
two commits time the same scenarios.  They run in one fresh process with
thread pools pinned to one thread.  Each scenario's time is divided by the
time of a fixed reference loop run just before and after it
(``worker.reference_loop``) and multiplied by ``REF_S``: the shared machine
this was built on ran identical work up to 1.7 times slower for minutes at a
time, and the reference loop slows with it.  ``setup_s`` is the median over
``SETUP_SAMPLES`` fresh processes (the measured one and some that only start
up), each divided by the start-up time of a reference process, a bare
interpreter importing numpy and scipy.optimize, run just before (and after)
it, and multiplied by ``REF_SETUP_S``.  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
separate traced run.  Lines before it are a readable summary; the full record, and
the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "proof", "sweep")
# Scenarios per second of --seconds: about the rate of the code this
# benchmark was written against on a shared 2-core x86-64 machine.
SCENARIOS_PER_SECOND = {"corpus": 18, "proof": 36, "sweep": 12}
# Nominal duration of worker.reference_loop: an adjusted time is what the
# scenario would take on a machine that runs the loop in REF_S seconds.
REF_S = 0.00075
# Reference start-up, run before and after each timed start-up: a fresh
# interpreter importing what deltasubh imports, and none of deltasubh.  An
# adjusted setup_s is what set-up would take on a machine that runs it in
# REF_SETUP_S seconds.
REF_SETUP_CODE = "import time, numpy, scipy.optimize; print(time.monotonic())"
REF_SETUP_S = 0.6
SETUP_SAMPLES = 5  # fresh processes whose start-up is timed, the measured one included
MIN_SCENARIOS = 12  # one round of every family, and a tail sample
DEADLINE_S = 170    # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "scenario_ms_p50": "ms", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("DELTASUBH_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(argv: list, env: dict, deadline: float) -> dict:
    """Start worker.py, wait for it, and return its JSON line."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv, "--t0", repr(t0)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: worker {argv} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {argv} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _reference_setup(env: dict, deadline: float) -> float:
    """Start-up time of a fresh interpreter running REF_SETUP_CODE."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-c", REF_SETUP_CODE], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.SubprocessError, OSError) as exc:
        raise SystemExit(f"error: reference start-up failed: {exc}")
    return float(proc.stdout.split()[-1]) - t0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "lines" if name.startswith("src_lines.") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deltasubh" / "__init__.py").is_file():
        print(f"error: no deltasubh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    count = max(MIN_SCENARIOS, round(SCENARIOS_PER_SECOND[args.workload] * args.seconds))
    env = _env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    # (start-up time, reference time): a probe's reference is the mean of the
    # reference start-ups just before and after it, the measured process's
    # the one just before it.
    setups = []
    refs = [] if args.trace else [_reference_setup(env, deadline)]
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        t = _worker(argv + ["--setup-only"], env, deadline)["setup_s"]
        refs.append(_reference_setup(env, deadline))
        setups.append((t, 0.5 * (refs[-2] + refs[-1])))
    argv += ["--count", str(count)]
    if args.trace:
        argv += ["--trace", "1", "--spans", str(OUT / f"spans-{tag}.npz")]
    run = _worker(argv, env, deadline)
    setups.append((run["setup_s"], refs[-1] if refs else math.nan))

    adjusted, raw, speed, by_family = [], [], [], {}
    for t, (before, after), fam in zip(run["times"], run["references"], run["families"]):
        if math.isfinite(t):
            ref = 0.5 * (before + after)
            adjusted.append(t * REF_S / ref)
            raw.append(t)
            speed.append(ref / REF_S)
            by_family.setdefault(fam, []).append(adjusted[-1])
    failures = {f["scenario"]: f["problems"] for f in run["failures"]}
    failed = len(failures)
    if args.trace:
        metrics = {name: {"value": v, "unit": _layer_unit(name)}
                   for name, v in run["layers"].items()}
    else:
        values = {
            "wall_s": math.fsum(adjusted),
            "setup_s": statistics.median(t * REF_SETUP_S / ref for t, ref in setups),
            "scenario_ms_p50": 1000.0 * statistics.median(adjusted),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    # Reported, not gated (README.md says why).
    reported = {
        "wall_s_unadjusted": {"value": math.fsum(raw), "unit": "s"},
        "scenario_ms_p50_unadjusted": {"value": 1000.0 * statistics.median(raw), "unit": "ms"},
        "machine_slowdown": {"value": statistics.median(speed), "unit": "ratio"},
        "setup_s_unadjusted": {"value": statistics.median(t for t, _ in setups), "unit": "s"},
        "scenario_ms_tail": {"value": 1000.0 * sorted(adjusted)[-min(11, len(adjusted))],
                             "unit": "ms"},
        "fail_frac": {"value": failed / count, "unit": "ratio"},
    }
    for fam, v in sorted(by_family.items()):
        reported[f"ms_per_scenario.{fam}"] = {"value": 1000.0 * statistics.fmean(v), "unit": "ms"}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scenarios": count, "setup_s_samples": setups,
              "metrics": metrics, "reported": reported,
              **{k: v for k, v in run.items() if k != "layers"}}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} scenarios={count} failed={failed}")
    for k, problems in sorted(failures.items())[:10]:
        print(f"  FAILED scenario {k}: {'; '.join(problems)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, m in reported.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (reported, not gated)")
    for key in ("csv_md5", "csv_md5_200"):
        if key in run:
            print(f"  {key} = {run[key]}")
    print(json.dumps({"correct": failed == 0, "attempted": count, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
