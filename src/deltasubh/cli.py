"""deltasubh-lab: scenario ingestion, corpus execution, report emission.

Subcommands:
    characteristic  print characteristic records over a radius grid as CSV
    modulus         print a modulus-of-continuity profile as CSV
    verify          evaluate the enabled inequality checks on one scenario
    corpus          run a seeded deterministic scenario batch
    report          merge report CSV files and print verdict counts

Exit codes: 0 = no fail verdict and inconclusive within threshold;
1 = a fail verdict (or too many inconclusive); 2 = I/O or parse errors.

Report CSV columns (frozen order):
    scenario_id,inequality_tag,lhs,rhs,slack,error_budget,verdict,wall_time_ms

Floats are rendered with %.17g (round-trip safe and platform stable);
identical inputs and seed give byte-identical output.  wall_time_ms is 0
unless --timing is passed, so default output is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .characteristics import (
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_N,
    nevanlinna_T,
    nevanlinna_m,
    spherical_mean,
    sup_on_sphere,
)
from .lab import (
    ALL_CHECKS,
    DEFAULT_CHECKS,
    DEFAULT_FAMILIES,
    FAMILIES,
    VERDICTS,
    CorpusConfig,
    Scenario,
    Tolerances,
    run_checks,
    run_corpus,
)
from .measures import modulus_profile
from .quadrature import QuadratureBudgetError
from .scenario_io import ScenarioError, parse_scenario

CSV_COLUMNS = ("scenario_id", "inequality_tag", "lhs", "rhs", "slack",
               "error_budget", "verdict", "wall_time_ms")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


_MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> list:
    """start:stop:step with inclusive stop when reachable within 1e-12; finite
    fields and at most _MAX_GRID_POINTS points, counted before the list, and
    at least one point, each above the one before: a step that does not move
    start + k step in floating point would otherwise repeat it forever."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}; expected start:stop:step") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"bad grid {spec!r}; start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be > 0")
    if (stop + 1e-12 - start) / step >= _MAX_GRID_POINTS:
        raise ValueError(f"bad grid {spec!r}; more than {_MAX_GRID_POINTS} points")
    out = []
    k = 0
    while True:
        val = start + k * step
        if val > stop + 1e-12:
            break
        if out and min(val, stop) <= out[-1]:
            raise ValueError(f"bad grid {spec!r}; its points do not strictly increase")
        out.append(min(val, stop))
        k += 1
    if not out:
        raise ValueError(f"bad grid {spec!r}; it has no point")
    return out


def _fraction(text: str) -> float:
    """--max-inconclusive: a finite fraction in [0, 1].  A NaN would make the
    gate's comparison False and so switch it off."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # False for NaN too
        raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1], got {text!r}")
    return value


def _load_scenario(path: str) -> Scenario:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


def _tolerances(base: Tolerances, args) -> Tolerances:
    """base with the --tol-mean override applied."""
    return base if args.tol_mean is None else replace(base, mean=args.tol_mean)


def _apply_tol_overrides(s: Scenario, args) -> Scenario:
    return replace(s, tolerances=_tolerances(s.tolerances, args))


def _table(header, rows) -> str:
    """The CSV text of header and rows, each line ended by a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_rows(rows, out_path: Optional[str]) -> str:
    text = _table(CSV_COLUMNS, ([rep.scenario_id, rep.inequality, _fmt(rep.lhs), _fmt(rep.rhs),
                                 _fmt(rep.slack), _fmt(rep.error_budget), rep.verdict,
                                 rep.wall_time_ms] for rep in rows))
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _summarize(verdicts) -> dict:
    counts = dict.fromkeys(VERDICTS, 0)
    for verdict in verdicts:
        counts[verdict] += 1
    return counts


def _exit_code(counts: dict, max_inconclusive: float) -> int:
    if counts.get("fail", 0) > 0:
        return EXIT_FAIL
    judged = sum(counts.values())
    if judged and counts.get("inconclusive", 0) > max_inconclusive * judged:
        return EXIT_FAIL
    return EXIT_OK


# --kind -> the record at (scenario s, radius r, upper radius R, mean tolerance tol)
_KINDS = {
    "m": lambda s, r, R, tol: nevanlinna_m(_scenario_f(s), r, tol),
    "N": lambda s, r, R, tol: nevanlinna_N(_scenario_f(s), r),
    "T": lambda s, r, R, tol: nevanlinna_T(_scenario_f(s), r, tol),
    "C": lambda s, r, R, tol: spherical_mean(s.U, r, "identity", tol),
    "C+": lambda s, r, R, tol: spherical_mean(s.U, r, "positive", tol),
    "M": lambda s, r, R, tol: sup_on_sphere(s.U, r),
    "Tdiff": lambda s, r, R, tol: difference_characteristic(s.U, r, R, tol),
    "TdiffC": lambda s, r, R, tol: difference_characteristic_canonical(s.U, r, R, tol),
}


def _cmd_characteristic(args) -> int:
    s = _apply_tol_overrides(_load_scenario(args.scenario), args)
    R = s.R if args.R is None else args.R
    kind = _KINDS[args.kind]
    records = [kind(s, r, R, s.tolerances.mean) for r in _parse_grid(args.r_grid)]
    sys.stdout.write(_table(("kind", "r", "R", "value", "error_estimate"),
                            ([rec.kind, _fmt(rec.r), _fmt(rec.R) if rec.R else "",
                              _fmt(rec.value), _fmt(rec.error_estimate)] for rec in records)))
    return EXIT_OK


def _scenario_f(s: Scenario):
    if s.f is None:
        raise ScenarioError("FUNCTION_SPEC",
                            "classical characteristics need a meromorphic scenario")
    return s.f


def _cmd_modulus(args) -> int:
    s = _load_scenario(args.scenario)
    profile = modulus_profile(s.mu, _parse_grid(args.t_grid), method=args.method)
    rows = zip(profile.radii, profile.values, profile.flags)
    sys.stdout.write(_table(("t", "h", "flag"), ([_fmt(t), _fmt(h), flag] for t, h, flag in rows)))
    return EXIT_OK


def _emit(rows, args, summary: str) -> int:
    """Write the rows' CSV, print summary and the verdict counts, and return
    the exit code: the tail of verify and corpus."""
    _write_rows(rows, args.out)
    counts = _summarize(rep.verdict for rep in rows)
    print(f"{summary} " + " ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v),
          file=sys.stderr)
    return _exit_code(counts, args.max_inconclusive)


def _cmd_verify(args) -> int:
    s = _apply_tol_overrides(_load_scenario(args.scenario), args)
    rows = run_checks(s, args.checks, timing=args.timing)
    return _emit(rows, args, f"verify: {len(rows)} checks")


def _cmd_corpus(args) -> int:
    config = CorpusConfig(count=args.count, families=args.families, checks=args.checks,
                          tolerances=_tolerances(Tolerances(), args), timing=args.timing)
    rows = run_corpus(config, args.seed)
    return _emit(rows, args, f"corpus: seed={args.seed} scenarios={args.count} rows={len(rows)}")


def _cmd_report(args) -> int:
    verdicts = []
    for path in args.files:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != list(CSV_COLUMNS):
                raise ScenarioError("REPORT_SCHEMA",
                                    f"{path}: unexpected columns {reader.fieldnames}")
            for row in reader:
                if row["verdict"] not in VERDICTS:
                    raise ScenarioError("REPORT_SCHEMA", f"{path}: row {reader.line_num} "
                                        f"has unknown verdict {row['verdict']!r}")
                verdicts.append(row["verdict"])
    counts = _summarize(verdicts)
    print(f"rows={len(verdicts)}")
    for key in VERDICTS:
        print(f"{key}={counts[key]}")
    return _exit_code(counts, args.max_inconclusive)


def _names(text: str) -> tuple:
    """A comma list as a tuple; '' gives ('',), which no check tag or family matches."""
    return tuple(text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltasubh-lab",
        description="potential-theory inequality lab: characteristics, measure "
                    "moduli, and verification of the main integral inequality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # parent parsers: each subcommand takes the flags it reads
    scenario, tol, verdicts, rows = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    scenario.add_argument("scenario", help="scenario JSON file")
    tol.add_argument("--tol-mean", type=float, default=None,
                     help="override the circle/sphere mean tolerance")
    verdicts.add_argument("--max-inconclusive", type=_fraction, default=0.02,
                          help="inconclusive fraction tolerated before exit 1")
    rows.add_argument("--checks", type=_names, default=DEFAULT_CHECKS,
                      help=f"comma list from {','.join(ALL_CHECKS)}")
    rows.add_argument("--out", default=None, help="write CSV here instead of stdout")
    rows.add_argument("--timing", action="store_true",
                      help="record wall_time_ms (breaks byte determinism)")

    p_char = sub.add_parser("characteristic", parents=[scenario, tol],
                            help="characteristic records over a radius grid")
    p_char.add_argument("--kind", default="T", choices=list(_KINDS))
    p_char.add_argument("--r-grid", required=True, help="start:stop:step")
    p_char.add_argument("--R", type=float, default=None,
                        help="upper radius for Tdiff kinds (default: scenario R)")
    p_char.set_defaults(func=_cmd_characteristic)

    p_mod = sub.add_parser("modulus", parents=[scenario], help="modulus-of-continuity profile")
    p_mod.add_argument("--t-grid", required=True, help="start:stop:step")
    p_mod.add_argument("--method", default="auto", choices=["auto", "upper"])
    p_mod.set_defaults(func=_cmd_modulus)

    p_ver = sub.add_parser("verify", parents=[scenario, tol, verdicts, rows],
                           help="run inequality checks on one scenario")
    p_ver.set_defaults(func=_cmd_verify)

    p_cor = sub.add_parser("corpus", parents=[tol, verdicts, rows],
                           help="seeded deterministic scenario batch")
    p_cor.add_argument("--seed", type=int, required=True)
    p_cor.add_argument("--count", type=int, default=200)
    p_cor.add_argument("--families", type=_names, default=DEFAULT_FAMILIES,
                       help=f"comma list from {','.join(FAMILIES)}")
    p_cor.set_defaults(func=_cmd_corpus)

    p_rep = sub.add_parser("report", parents=[verdicts],
                           help="merge report CSVs and print counts")
    p_rep.add_argument("files", nargs="+")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QuadratureBudgetError as exc:
        print(f"error: quadrature budget exceeded: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
