import ast
import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from deltasubh import cli, lab
from deltasubh.cli import CSV_COLUMNS, _parse_grid, main
from deltasubh.lab import DEFAULT_FAMILIES, Scenario, Tolerances, generate_scenario
from deltasubh.measures import Atom, BorelMeasure
from deltasubh.potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    SubharmonicFn,
)
from deltasubh.scenario_io import ScenarioError, parse_scenario, serialize_scenario

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden_z_circle.json"


def _run(args):
    return subprocess.run([sys.executable, "-m", "deltasubh.cli", *args],
                          capture_output=True, text=True)


def test_parse_golden_fixture():
    s = parse_scenario(GOLDEN.read_bytes())
    assert s.scenario_id == "golden-z-circle"
    assert s.U.dim == 2
    assert s.r == 2.0 and s.R == 4.0 and s.r0 == 0.0
    assert s.f is not None and s.f.zeros == ((0j, 1),)
    assert s.mu.mass == pytest.approx(1.0)


def test_parse_error_codes():
    base = json.loads(GOLDEN.read_text())

    bad = dict(base, schema_version="999")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "SCHEMA_VERSION"

    bad = json.loads(GOLDEN.read_text())
    bad["radii"]["r"] = bad["radii"]["R"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "RADII_ORDER"

    bad = json.loads(GOLDEN.read_text())
    bad["measure"]["components"][0]["weight"] = -1.0
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "NEGATIVE_WEIGHT"

    bad = json.loads(GOLDEN.read_text())
    bad["measure"]["components"][0]["radius"] = 10.0
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "SUPPORT_OUTSIDE_BALL"

    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"not json {")
    assert err.value.code == "JSON_SYNTAX"

    bad = json.loads(GOLDEN.read_text())
    bad["dimension"] = 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "DIMENSION"

    # a component whose point has the wrong number of coordinates
    bad = json.loads(GOLDEN.read_text())
    bad["measure"]["components"] = [{"type": "atom", "point": [0.5, 0.0, 0.0],
                                     "weight": 1.0}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(bad))
    assert err.value.code == "DIMENSION"


def _zero_measure_d3() -> Scenario:
    """A d=3 scenario whose mu is the zero measure, which states its d."""
    u = SubharmonicFn(AffineHarmonic(0.5, (0.1, 0.0, -0.2)),
                      BorelMeasure((Atom((0.3, 0.1, 0.2), 1.0),), 3))
    U = DeltaSubharmonicFn(u, SubharmonicFn(None, BorelMeasure((), 3)))
    return Scenario("e", U, BorelMeasure((), 3), 1.0, 2.0)


@pytest.mark.parametrize("make", [
    lambda: parse_scenario(GOLDEN.read_bytes()),
    *(lambda family=family: generate_scenario(5, 3, family, Tolerances(mean=1e-9))
      for family in (*DEFAULT_FAMILIES, "charges", "atomic_mu")),
    _zero_measure_d3,
], ids=["golden", *DEFAULT_FAMILIES, "charges", "atomic_mu", "zero-mu-d3"])
def test_round_trip_scenarios(make):
    s = make()
    assert parse_scenario(serialize_scenario(s)) == s


def test_parse_ignores_the_dropped_dini_tolerance():
    # scenario files written while the Dini integral and the sphere sup had
    # tolerances still load
    obj = json.loads(GOLDEN.read_text())
    obj["tolerances"] = {"mean": 1e-9, "dini": 1e-4, "sup": 1e-6}
    s = parse_scenario(json.dumps(obj))
    assert s.tolerances == Tolerances(mean=1e-9)
    assert serialize_scenario(s)["tolerances"] == {"mean": 1e-9}


def test_round_trip_delta_subharmonic_scenario():
    obj = {
        "schema_version": "1",
        "scenario_id": "delta",
        "dimension": 2,
        "function": {
            "type": "delta_subharmonic",
            "u": {"harmonic": {"poly": [[0.1, 0.0], [0.5, -0.2]]},
                  "charge": [{"type": "atom", "point": [0.2, 0.1], "weight": 1.0}]},
            "v": {"harmonic": None,
                  "charge": [{"type": "atom", "point": [-0.4, 0.0], "weight": 0.5}]},
        },
        "measure": {"components": [
            {"type": "segment", "endpoints": [[-0.5, 0.0], [0.5, 0.0]],
             "weight": 1.0}]},
        "radii": {"r": 1.0, "R": 2.0},
    }
    s = parse_scenario(json.dumps(obj))
    assert s.f is None
    assert parse_scenario(serialize_scenario(s)) == s


def test_grid_parsing():
    assert _parse_grid("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]
    assert _parse_grid("0.01:0.03:0.01") == pytest.approx([0.01, 0.02, 0.03])
    with pytest.raises(ValueError):
        _parse_grid("1:2")
    with pytest.raises(ValueError):
        _parse_grid("1:2:-0.5")


@pytest.mark.parametrize("grid", ["nan:1:0.5", "0:inf:0.5", "0:1:nan", "0:nan:0.5",
                                  "0:1:1e-300", "0:1:1e-5"])
def test_grid_rejects_non_finite_fields_and_too_many_points(capsys, grid):
    # each of these looped until killed while its list grew (or, at 1e-300,
    # had no practical end); the point count is checked before the loop
    with pytest.raises(ValueError, match="finite|points"):
        _parse_grid(grid)
    assert main(["modulus", str(GOLDEN), "--t-grid", grid]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, grid", [
    ("m", "1e300:1e300:1"), ("C+", "1e300:1e300:1"), ("M", "1e300:1e300:1"),
    ("modulus", "1e300:1e300:1"), ("m", "1:0:0.5"), ("modulus", "1:0:0.5"),
])
def test_grid_without_strictly_increasing_points_exits_two(capsys, command, grid):
    # 1e300 + k * 1 rounds to 1e300: the grid repeated it until the process
    # ran out of memory, its point count reading 0; 1:0:0.5 printed a bare
    # header and exited 0
    argv = (["modulus", str(GOLDEN), "--t-grid", grid] if command == "modulus" else
            ["characteristic", str(GOLDEN), "--kind", command, "--r-grid", grid])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad grid {grid!r}" in captured.err
    assert ("no point" if grid == "1:0:0.5" else "do not strictly increase") in captured.err


def test_verify_golden_exit_zero(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run(["verify", str(GOLDEN), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["scenario_id", "inequality_tag", "lhs", "rhs", "slack",
                      "error_budget", "verdict", "wall_time_ms"]
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["UR", "UR2", "UR2f", "UR2fr"]
    for row in rows:
        assert row[6] == "pass"
        assert float(row[4]) > 0  # positive slack
        assert row[7] == "0"  # no timing by default


def test_verify_radii_order_exit_two(tmp_path):
    bad = json.loads(GOLDEN.read_text())
    bad["radii"]["R"] = bad["radii"]["r"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = _run(["verify", str(path)])
    assert proc.returncode == 2
    assert "RADII_ORDER" in proc.stderr


def _set(path, value):
    """An edit of a scenario object that sets its entry at path to value."""
    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj
    return edit


@pytest.mark.parametrize("edit, code", [
    (lambda obj: [], "SCHEMA_VERSION"),
    (lambda obj: dict(obj, measure={"components": [5]}), "MEASURE_SPEC"),
    (lambda obj: dict(obj, function="x"), "FUNCTION_SPEC"),
    (lambda obj: dict(obj, tolerances=5), "TOLERANCES"),
    *(pytest.param(lambda obj, m=m: dict(obj, tolerances={"mean": m}), "TOLERANCES",
                   id=f"mean={m}") for m in (-1, 0, math.nan, math.inf)),  # json's NaN, Infinity
    (lambda obj: dict(obj, function={"type": "delta_subharmonic",
                                     "u": {"charge": 5}, "v": {}}), "FUNCTION_SPEC"),
    (lambda obj: dict(obj, function={"type": "delta_subharmonic",
                                     "u": {"harmonic": {"poly": 5}}, "v": {}}), "FUNCTION_SPEC"),
    # int() would truncate 1.9 to 1 and read "3" as 3
    *(pytest.param(lambda obj, m=m: dict(obj, function=dict(
        obj["function"], zeros=[{"point": [0.0, 0.0], "multiplicity": m}])), "FUNCTION_SPEC",
        id=f"multiplicity={m!r}") for m in (1.9, "3", True)),
    # a segment has closed forms in d = 2 and 3 only; an atom takes any d
    pytest.param(lambda obj: dict(obj, dimension=4, function={
        "type": "delta_subharmonic", "u": {}, "v": {}}, measure={"components": [
            {"type": "segment", "endpoints": [[0, 0, 0, 0], [1, 0, 0, 0]], "weight": 1.0}]}),
        "MEASURE_SPEC", id="segment-in-d=4"),
    # d >= 2 is checked with the measure, by the one bare-d check
    *(pytest.param(_set(("dimension",), d), "DIMENSION", id=f"dimension={d!r}")
      for d in (None, "2", 2.0)),
    # log|f| is 2-d: a meromorphic f with a 3-d mu breaks Scenario's mu-vs-U rule
    pytest.param(lambda obj: dict(obj, dimension=3, measure={"components": [
        {"type": "atom", "point": [0.5, 0.0, 0.0], "weight": 1.0}]}),
        "DIMENSION", id="meromorphic-in-d=3"),
    # a charge component holds the weight rule of a mu component
    pytest.param(lambda obj: dict(obj, function={
        "type": "delta_subharmonic", "v": {},
        "u": {"charge": [{"type": "atom", "point": [0.5, 0.0], "weight": 0}]}}),
        "NEGATIVE_WEIGHT", id="u-charge-weight=0"),
    # a number is a JSON number, not a string or a bool that float() reads
    *(pytest.param(_set(path, value), code, id=f"{'.'.join(map(str, path))}={value!r}")
      for path, value, code in [
          (("measure", "components", 0, "weight"), "0.5", "MEASURE_SPEC"),
          (("measure", "components", 0, "weight"), True, "MEASURE_SPEC"),
          (("measure", "components", 0, "radius"), True, "MEASURE_SPEC"),
          (("radii", "r"), "2", "RADII_ORDER"),
          (("radii", "r0"), True, "RADII_ORDER"),
          (("radii", "r0"), "x", "RADII_ORDER"),
          (("tolerances",), {"mean": True}, "TOLERANCES"),
          (("function", "unit_factor"), True, "FUNCTION_SPEC"),
          (("function", "zeros", 0, "point"), [True, False], "FUNCTION_SPEC"),
      ]),
    # an integer beyond the largest float: an atom weight float() overflows
    pytest.param(_set(("function", "zeros", 0, "multiplicity"), 10 ** 400), "FUNCTION_SPEC",
                 id="multiplicity=10**400"),
    # the seed names the Ux and U+B sample points: 1, 1.0 and true drew
    # three different point sets, and [1] made the scenario unhashable
    *(pytest.param(_set(("seed",), seed), "SEED", id=f"seed={seed!r}")
      for seed in (1.0, True, [1])),
    # a segment whose length overflows a float: numpy's overflow warning, and
    # inside a ball that large, rows of NaN, in place of the constructor's rule
    *(pytest.param(lambda obj, r=r: dict(obj, radii=dict(obj["radii"], r=r, R=2 * r), measure={
        "components": [{"type": "segment", "endpoints": [[0, 0], [0, 1e300]], "weight": 1.0}]}),
        "MEASURE_SPEC", id=f"segment-length-1e300-r={r}",
        marks=pytest.mark.filterwarnings("error::RuntimeWarning")) for r in (2.0, 1e301)),
    pytest.param(_set(("measure", "components", 0, "type"), "blob"), "MEASURE_SPEC",
                 id="component-type-blob"),
    pytest.param(lambda obj: dict(obj, function={
        "type": "delta_subharmonic", "u": {"harmonic": {"sine": [1.0]}}, "v": {}}),
        "FUNCTION_SPEC", id="harmonic-part-sine"),
    pytest.param(_set(("function", "type"), "entire"), "FUNCTION_SPEC", id="function-type-entire"),
])
def test_malformed_scenario_json_exits_two(tmp_path, capsys, edit, code):
    # exit 1 is the fail verdict; a file of the wrong shape is an input error
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads(GOLDEN.read_text()))))
    assert main(["verify", str(path)]) == 2
    assert f"error: {code}:" in capsys.readouterr().err


def _every_number_kind():
    """The golden scenario with a component of each kind, a pole and an
    exponent: a place for every number a meromorphic scenario holds."""
    obj = json.loads(GOLDEN.read_text())
    obj["measure"]["components"] += [
        {"type": "atom", "point": [0.5, 0.5], "weight": 1.0},
        {"type": "segment", "endpoints": [[0.0, 0.0], [1.0, 0.0]], "weight": 1.0},
        {"type": "ball", "center": [0.0, 0.5], "radius": 0.5, "weight": 1.0}]
    obj["function"]["poles"] = [{"point": [1.0, 1.0], "multiplicity": 1}]
    obj["function"]["exponent"] = [[0.0, 0.0], [0.1, 0.0]]
    return obj


_DELTA_SUBHARMONIC = {
    "type": "delta_subharmonic",
    "u": {"harmonic": {"poly": [[0.0, 0.0], [1.0, 0.0]]},
          "charge": [{"type": "atom", "point": [0.5, 0.0], "weight": 1.0}]},
    "v": {"harmonic": {"affine": {"constant": 0.0, "gradient": [1.0, 0.0]}}}}


@pytest.mark.parametrize("path, value, code", [
    (("measure", "components", 0, "center", 0), math.nan, "MEASURE_SPEC"),   # arc
    (("measure", "components", 1, "point", 1), math.inf, "MEASURE_SPEC"),    # atom
    (("measure", "components", 1, "weight"), math.inf, "MEASURE_SPEC"),
    (("measure", "components", 2, "endpoints", 1, 0), math.nan, "MEASURE_SPEC"),
    (("measure", "components", 3, "center", 0), math.nan, "MEASURE_SPEC"),   # ball
    (("measure", "components", 3, "radius"), math.inf, "MEASURE_SPEC"),
    (("function", "zeros", 0, "point", 0), math.nan, "FUNCTION_SPEC"),
    (("function", "zeros", 0, "multiplicity"), math.inf, "FUNCTION_SPEC"),
    (("function", "poles", 0, "point", 1), math.inf, "FUNCTION_SPEC"),
    (("function", "unit_factor", 0), math.nan, "FUNCTION_SPEC"),
    (("function", "exponent", 1, 1), math.inf, "FUNCTION_SPEC"),
    (("function", "u", "harmonic", "poly", 1, 0), math.nan, "FUNCTION_SPEC"),
    (("function", "v", "harmonic", "affine", "constant"), math.inf, "FUNCTION_SPEC"),
    (("function", "v", "harmonic", "affine", "gradient", 1), math.nan, "FUNCTION_SPEC"),
    (("function", "u", "charge", 0, "point", 0), math.nan, "MEASURE_SPEC"),
    (("radii", "R"), math.inf, "RADII_ORDER"),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_non_finite_scenario_numbers_exit_two(tmp_path, capsys, path, value, code):
    # a NaN coordinate makes U NaN everywhere, where each row would print pass,
    # and an infinite R or weight a NaN lhs
    obj = _every_number_kind()
    if path[1] in ("u", "v"):
        obj["function"] = json.loads(json.dumps(_DELTA_SUBHARMONIC))
    parse_scenario(obj)  # finite as it stands
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(obj))  # json writes NaN and Infinity
    assert main(["verify", str(file)]) == 2
    out, err = capsys.readouterr()
    assert f"error: {code}:" in err and out == ""


def test_a_d2_affine_part_reads_as_a_polynomial():
    # d=2 has one harmonic kind: c + g0 x + g1 y is Re(c + (g0 - i g1) z)
    obj = _every_number_kind()
    obj["function"] = json.loads(json.dumps(_DELTA_SUBHARMONIC))
    obj["function"]["v"]["harmonic"]["affine"] = {"constant": 0.3, "gradient": [1.0, -0.5]}
    s = parse_scenario(obj)
    assert s.U.v.harmonic == HarmonicPolynomial((0.3, 1.0 + 0.5j))
    pts = np.array([[0.2, -0.7], [1.5, 0.4]])
    assert s.U.v.harmonic.values(pts) == pytest.approx(0.3 + pts[:, 0] - 0.5 * pts[:, 1])
    assert parse_scenario(serialize_scenario(s)) == s
    obj["function"]["v"]["harmonic"]["affine"]["gradient"] = [1.0, -0.5, 0.0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(obj)
    assert err.value.code == "FUNCTION_SPEC"


def test_missing_file_exit_two():
    proc = _run(["verify", "/nonexistent/file.json"])
    assert proc.returncode == 2


def test_modulus_monotone_csv():
    proc = _run(["modulus", str(GOLDEN), "--t-grid", "0.05:1:0.05"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "t,h,flag"
    hs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
    assert all(line.split(",")[2] == "exact" for line in lines[1:])


def test_characteristic_grid_csv():
    proc = _run(["characteristic", str(GOLDEN), "--kind", "T",
                 "--r-grid", "1:3:1"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "kind,r,R,value,error_estimate"
    vals = [float(line.split(",")[3]) for line in lines[1:]]
    # T(r, z) = ln^+ r
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[1] == pytest.approx(math.log(2.0), abs=1e-8)
    assert vals[2] == pytest.approx(math.log(3.0), abs=1e-8)


def test_characteristic_other_kinds():
    for kind, column_check in [
        ("C+", lambda v: v >= -1e-12),
        ("M", lambda v: math.isfinite(v)),
        ("m", lambda v: v >= -1e-12),
        ("N", lambda v: math.isfinite(v)),
    ]:
        proc = _run(["characteristic", str(GOLDEN), "--kind", kind,
                     "--r-grid", "1:2:1"])
        assert proc.returncode == 0, (kind, proc.stderr)
        rows = proc.stdout.strip().splitlines()[1:]
        assert all(column_check(float(row.split(",")[3])) for row in rows)
    # Tdiff over an r grid against the fixed upper radius
    proc = _run(["characteristic", str(GOLDEN), "--kind", "Tdiff",
                 "--r-grid", "0.5:1.5:0.5", "--R", "4.0"])
    assert proc.returncode == 0, proc.stderr
    vals = [float(line.split(",")[3])
            for line in proc.stdout.strip().splitlines()[1:]]
    # T_U(r, 4) for f = z: no negative charge, so constant ln 4 in r
    assert all(v == pytest.approx(math.log(4.0), abs=1e-8) for v in vals)
    proc2 = _run(["characteristic", str(GOLDEN), "--kind", "TdiffC",
                  "--r-grid", "1:1:1", "--R", "4.0"])
    assert proc2.returncode == 0, proc2.stderr
    val = float(proc2.stdout.strip().splitlines()[1].split(",")[3])
    assert val == pytest.approx(math.log(4.0), abs=1e-7)


@pytest.mark.parametrize("kind", ["Tdiff", "TdiffC"])
def test_characteristic_upper_radius_zero_is_rejected(capsys, kind):
    # --R 0 is a value like any other: it fails the 0 <= r < R check rather
    # than falling back to the scenario's R
    code = main(["characteristic", str(GOLDEN), "--kind", kind,
                 "--r-grid", "0.5:0.5:1", "--R", "0"])
    out = capsys.readouterr()
    assert code == 2
    assert "r < R" in out.err
    assert out.out == ""  # every record is built before the header is written


@pytest.mark.parametrize("argv, message", [
    (["corpus", "--seed", "1", "--count", "1", "--families", "ef_arc,bogus"],
     "unknown scenario family 'bogus'"),
    (["verify", "{golden}", "--checks", "UR,bogus"], "unknown check tag 'bogus'"),
    (["characteristic", "{pin_2d}", "--kind", "m", "--r-grid", "1:2:0.5"], "FUNCTION_SPEC"),
    (["corpus", "--seed", "1", "--count", "1", "--families", ""], "unknown scenario family ''"),
    (["corpus", "--seed", "1", "--count", "1", "--checks", ""], "unknown check tag ''"),
], ids=["family", "check", "kind-m-without-f", "empty-families", "empty-checks"])
def test_inputs_are_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # corpus exited 0 on an unused unknown family, verify ran UR before
    # rejecting a tag, characteristic wrote its header before the error, and
    # an empty --families or --checks ran the defaults
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(lab, "_CHECKS", {tag: check._replace(row=no_row)
                                         for tag, check in lab._CHECKS.items()})
    pin = tmp_path / "pin-2d.json"
    pin.write_text(json.dumps(PIN_2D))
    assert main([a.format(golden=GOLDEN, pin_2d=pin) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_each_option_of_the_parser_is_defined_once():
    # every subcommand takes shared flags from one parent parser, so a help
    # text, type or default cannot differ between two copies of a flag
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [arg.value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"
             for arg in node.args if isinstance(arg, ast.Constant)]
    assert "--checks" in names
    assert [n for n, count in Counter(names).items() if count > 1] == []


def test_verify_delta_subharmonic_scenario(tmp_path):
    obj = {
        "schema_version": "1",
        "scenario_id": "charges",
        "dimension": 2,
        "function": {
            "type": "delta_subharmonic",
            "u": {"harmonic": {"poly": [[0.2, 0.0]]},
                  "charge": [{"type": "atom", "point": [0.3, 0.1], "weight": 1.0}]},
            "v": {"harmonic": None,
                  "charge": [{"type": "atom", "point": [-0.5, 0.2], "weight": 0.6}]},
        },
        "measure": {"components": [
            {"type": "ball", "center": [0.0, 0.0], "radius": 0.5, "weight": 1.0}]},
        "radii": {"r": 1.0, "R": 2.5},
    }
    path = tmp_path / "charges.json"
    path.write_text(json.dumps(obj))
    proc = _run(["verify", str(path)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tags = [line.split(",")[1] for line in lines[1:]]
    assert tags == ["UR", "UR2"]  # meromorphic-only checks are skipped
    assert all(line.split(",")[6] == "pass" for line in lines[1:])


def test_verify_d3_scenario(tmp_path):
    obj = {
        "schema_version": "1",
        "scenario_id": "d3-ball",
        "dimension": 3,
        "function": {
            "type": "delta_subharmonic",
            "u": {"harmonic": {"affine": {"constant": 0.6,
                                          "gradient": [0.1, 0.0, -0.05]}},
                  "charge": [{"type": "atom", "point": [0.4, 0.2, -0.1],
                              "weight": 0.5}]},
            "v": {"harmonic": None,
                  "charge": [{"type": "atom", "point": [-0.6, 0.1, 0.3],
                              "weight": 0.4}]},
        },
        "measure": {"components": [
            {"type": "ball", "center": [0.0, 0.1, 0.0], "radius": 0.4,
             "weight": 1.0}]},
        "radii": {"r": 0.9, "R": 2.0},
        "tolerances": {"mean": 1e-7},
    }
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(obj))
    s = parse_scenario(path.read_bytes())
    assert s.U.dim == 3
    assert parse_scenario(serialize_scenario(s)) == s
    proc = _run(["verify", str(path), "--checks", "UR"])
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[1]
    assert line.split(",")[6] == "pass"


def test_corpus_determinism_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        proc = _run(["corpus", "--seed", "11", "--count", "6", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_corpus_row_count_and_summary(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run(["corpus", "--seed", "3", "--count", "4", "--out", str(out)])
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 4  # header + scenarios x enabled checks
    assert "corpus:" in proc.stderr


def test_report_merges_and_counts(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    _run(["corpus", "--seed", "5", "--count", "2", "--out", str(out1)])
    _run(["verify", str(GOLDEN), "--out", str(out2)])
    proc = _run(["report", str(out1), str(out2)])
    assert proc.returncode == 0, proc.stderr
    assert "rows=12" in proc.stdout
    assert "fail=0" in proc.stdout


def test_report_rejects_an_unknown_verdict(tmp_path, capsys):
    # "FAIL" is not "fail": counting it nowhere would print fail=0 and exit 0
    path = tmp_path / "rows.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n"
                    + "s0,UR,1,2,1,0,pass,0\ns1,UR,1,2,1,0,FAIL,0\ns2,UR,1,2,1,0,bogus,0\n")
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: REPORT_SCHEMA: {path}: row 3 has unknown verdict 'FAIL'" in captured.err


def test_main_entry_in_process(tmp_path, capsys):
    # the console entry point is callable in-process too
    code = main(["modulus", str(GOLDEN), "--t-grid", "0.5:1:0.25"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("t,h,flag")


def test_corpus_rows_follow_the_checks_order(tmp_path):
    # the checks are out of tag order: rows keep the scenario's check order,
    # not a sorted one
    out = tmp_path / "rows.csv"
    proc = _run(["corpus", "--seed", "3", "--count", "4", "--checks", "UR2f,UR",
                 "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["UR2f", "UR"] * 4
    assert [row[0] for row in rows[::2]] == [row[0] for row in rows[1::2]]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_corpus_rejects_a_count_below_one(capsys, count):
    # an empty run is an input error, not a clean header-only CSV
    assert main(["corpus", "--seed", "1", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--count must be >= 1, got {count}" in captured.err


# numpy's AVX-512 float64 loops (x86-64-v4) round log, exp, arctan2 and
# others differently from its baseline loops, which call the C library, so a
# digest that sees such a value has one pin per dispatch target.  The probe
# needs no private numpy API: the baseline np.log equals math.log entry by
# entry on this vector, and the AVX-512 one differs at 15 of its entries.
_PROBE = np.linspace(0.5, 2.0, 4097)
BASELINE_LOOPS = np.log(_PROBE).tolist() == [math.log(x) for x in _PROBE.tolist()]


def pin(avx512: str, baseline: str) -> str:
    """The pinned digest of this process's numpy dispatch target."""
    return baseline if BASELINE_LOOPS else avx512


TWO_PI = 6.283185307179586
PIN_2D = {
    "schema_version": "1", "scenario_id": "pin-2d", "dimension": 2,
    "function": {
        "type": "delta_subharmonic",
        "u": {"harmonic": {"poly": [[0.2, 0.0], [0.1, -0.05]]},
              "charge": [
                  {"type": "segment", "endpoints": [[-0.8, 0.3], [0.6, -0.4]], "weight": 0.9},
                  {"type": "ball", "center": [0.5, 0.6], "radius": 0.4, "weight": 0.7},
                  {"type": "arc", "center": [-0.3, -0.2], "radius": 0.9,
                   "angles": [0.0, TWO_PI], "weight": 0.6},
                  {"type": "atom", "point": [1.1, 0.9], "weight": 0.5}]},
        "v": {"harmonic": None,
              "charge": [
                  {"type": "atom", "point": [-1.2, 0.8], "weight": 0.8},
                  {"type": "ball", "center": [-0.6, -1.0], "radius": 0.5, "weight": 0.4},
                  {"type": "segment", "endpoints": [[0.9, -1.1], [1.4, -0.2]], "weight": 0.5}]},
    },
    "measure": {"components": [
        {"type": "segment", "endpoints": [[-1.0, -0.5], [0.7, 1.2]], "weight": 0.8},
        {"type": "arc", "center": [0.2, 0.1], "radius": 0.7, "angles": [0.0, TWO_PI],
         "weight": 0.5},
        {"type": "ball", "center": [-0.4, 0.9], "radius": 0.3, "weight": 0.6},
        {"type": "atom", "point": [1.0, -0.6], "weight": 0.3}]},
    "radii": {"r": 2.0, "R": 4.0},
}
PIN_DISK_UNION = dict(PIN_2D, scenario_id="pin-disk-union", measure={"components": [
    {"type": "ball", "center": [0.6, 0.4], "radius": 0.5, "weight": 0.8},
    {"type": "ball", "center": [-0.7, 0.3], "radius": 0.4, "weight": 0.5},
    {"type": "ball", "center": [0.1, -1.0], "radius": 0.35, "weight": 0.6}]})
PIN_3D = {
    "schema_version": "1", "scenario_id": "pin-3d", "dimension": 3,
    "function": {
        "type": "delta_subharmonic",
        "u": {"harmonic": {"affine": {"constant": 0.1, "gradient": [0.2, -0.1, 0.05]}},
              "charge": [
                  {"type": "ball", "center": [0.3, 0.2, -0.1], "radius": 0.8, "weight": 0.9},
                  {"type": "segment", "endpoints": [[-0.5, 0.0, 0.2], [0.4, 0.3, -0.3]],
                   "weight": 0.6},
                  {"type": "atom", "point": [-0.4, -0.6, 0.5], "weight": 0.4}]},
        "v": {"harmonic": None,
              "charge": [
                  {"type": "atom", "point": [0.7, -0.3, 0.2], "weight": 0.5},
                  {"type": "ball", "center": [-0.8, 0.6, -0.5], "radius": 0.3, "weight": 0.3}]},
    },
    "measure": {"components": [
        {"type": "ball", "center": [0.2, -0.3, 0.1], "radius": 0.6, "weight": 0.7},
        {"type": "segment", "endpoints": [[-0.8, 0.2, 0.0], [0.3, 0.9, -0.5]], "weight": 0.5},
        {"type": "atom", "point": [0.5, 0.5, 0.5], "weight": 0.2}]},
    "radii": {"r": 1.5, "R": 3.0},
}
# md5 of stdout per (scenario, command); the generated corpus carries only
# atomic charges, so these are what pins the segment, ball and full-circle
# charge potentials, canonical T_U, the 3-d sphere means and the modulus
# bracket
PINNED_STDOUT = {
    ("pin-2d", "Tdiff"): pin("c796ea395f25dfe8452a9ec839b5090a", "e417a557a373ff2f9d57604f7af3b569"),
    ("pin-2d", "TdiffC"): "dbb7ef866dd27bc0a0429a524ca574cc",
    ("pin-2d", "C+"): pin("367e4b00f2c9781dcfce623efec3051f", "7e05d23de9d9cb4143ec125b5f78ba19"),
    ("pin-2d", "M"): "64649216225916d627af82fbf7db2de5",
    ("pin-3d", "Tdiff"): pin("ce4b5197f132eb39dae4099f31f6a497", "95854db1b355e636eb3791472b0ba894"),
    ("pin-3d", "TdiffC"): pin("7cd38cfa9273a387f76f25e42458a04f", "2b6607e891c8f4ddfaabdea6474076c1"),
    ("pin-3d", "C+"): pin("a46ca64588f873a9ed31b4eebbcd386b", "898e96d2acebd8e90674788d3b4a8576"),
    ("pin-3d", "M"): "5e5375ddb3d3886e44313a31b720b0cb",
    ("pin-2d", "auto"): pin("2136ab7943e290cd363834a758523b48", "973708aba4acb8a8323ac5e29b0413c7"),
    ("pin-2d", "upper"): "7a6b9c72500d9afa0de435464b65d24d",
    ("pin-disk-union", "auto"): "13d165da5ff56cc538c94eb723fb8165",
    ("pin-disk-union", "upper"): "82799362e8e1f316a1f9c4b003811cce",
    ("pin-3d", "auto"): "0aa5323c64e6370ed1826528b369f604",
    ("pin-3d", "upper"): "dcb52053e83ec256dbb7dfd1959d862a",
}


def test_characteristic_and_modulus_stdout_is_pinned(tmp_path, capsys):
    paths = {}
    for obj in (PIN_2D, PIN_DISK_UNION, PIN_3D):
        paths[obj["scenario_id"]] = tmp_path / f"{obj['scenario_id']}.json"
        paths[obj["scenario_id"]].write_text(json.dumps(obj))
    got = {}
    for name, arg in PINNED_STDOUT:
        if arg in ("auto", "upper"):
            argv = ["modulus", str(paths[name]), "--t-grid", "0.1:0.9:0.4",
                    "--method", arg]
        else:
            grid = "1.5:3.0:0.75" if name == "pin-2d" else "1.0:2.0:1.0"
            argv = ["characteristic", str(paths[name]), "--kind", arg, "--r-grid", grid]
        assert main(argv) == 0
        got[name, arg] = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    assert got == PINNED_STDOUT
PIN_ARC = {
    "schema_version": "1", "scenario_id": "pin-arc", "dimension": 2,
    "function": {"type": "meromorphic",
                 "zeros": [{"point": [1.22, 0.12], "multiplicity": 1}],
                 "poles": [{"point": [-0.015, -0.897], "multiplicity": 1},
                           {"point": [-0.229, 1.037], "multiplicity": 1}],
                 "unit_factor": [0.8, 0.3], "exponent": []},
    "measure": {"components": [
        {"type": "arc", "center": [0.2, 0.1], "radius": 1.0, "angles": [-0.2, 3.5],
         "weight": 1.0}]},
    "radii": {"r": 1.5, "R": 3.5},
}
# PIN_2D's function integrated over a segment, a partial arc and a ball: no
# atom in mu, so its UR row computes the U+ mu-integral of continuous charges
# along the segment and the arc
PIN_MIXED = dict(PIN_2D, scenario_id="pin-mixed", measure={"components": [
    {"type": "segment", "endpoints": [[-1.0, -0.5], [0.7, 1.2]], "weight": 0.8},
    {"type": "arc", "center": [0.2, 0.1], "radius": 0.7, "angles": [0.4, 2.9], "weight": 0.5},
    {"type": "ball", "center": [-0.4, 0.9], "radius": 0.3, "weight": 0.6}]})
# md5 of stdout per command line ({pin-3d}, {pin-arc}, ...: the scenario files).
# These reach what neither the corpus nor the pins above do: the 3-d
# Poisson-Jensen boundary mean and reflected potentials; the closed-form
# kernel terms of a pole close to the arc of pin-arc and inside its angles
# (test_calibration checks that integral against its 30-digit reference), and
# of the zero and the pole close to the circles r = 1.2 and 0.9 of m(r, f)
# and C_{U+}(r); and the --tol-mean override.  Atomic charges converge to
# rounding at either tolerance, so the override is seen through the ball rule
# (pin-disk-union) and through pin-2d's continuous charges.
PINNED_RUNS = {
    "verify pin-3d": "verify {pin-3d} --checks UR,Ux,U+B,dBr",
    "verify pin-arc": "verify {pin-arc} --checks UR,UR2,UR2f,UR2fr,Ux,U+B,dBr",
    "m pin-arc": "characteristic {pin-arc} --kind m --r-grid 0.9:1.2:0.3",
    "C+ pin-arc": "characteristic {pin-arc} --kind C+ --r-grid 0.9:1.2:0.3",
    "verify pin-disk-union": "verify {pin-disk-union}",
    "verify pin-disk-union mean": "verify {pin-disk-union} --tol-mean 1e-5",
    "C+ pin-2d": "characteristic {pin-2d} --kind C+ --r-grid 1.5:3.0:0.75",
    "C+ pin-2d mean": "characteristic {pin-2d} --kind C+ --r-grid 1.5:3.0:0.75 --tol-mean 1e-5",
    # 11 scenarios: the first whose output --tol-mean reaches is s0010-disk,
    # through the ball rule; the line and circle rules of the ones before
    # converge to rounding at either tolerance
    "corpus": "corpus --seed 3 --count 11",
    "corpus tols": "corpus --seed 3 --count 11 --tol-mean 1e-6",
    "verify pin-arc default": "verify {pin-arc}",
    "verify pin-mixed": "verify {pin-mixed} --checks UR,UR2",
}
PINNED_RUN_STDOUT = {
    "verify pin-3d": pin("48775ff6632fa37723c9d0eb519ef536", "8d1b349a64d5aa70700aaa744ac0150f"),
    "verify pin-arc": "e98522a6e851cda1dc4856bd3685e1c2",
    "m pin-arc": "95051b5dfe0faea7033191ef933b5f95",
    "C+ pin-arc": "432a5df18f2b2438dc8af1c5b56fb440",
    "verify pin-disk-union": pin("f10e464121e465bf480e55d24c67d315", "7d32fda097c4fbe488ef58d6e7824d57"),
    "verify pin-disk-union mean": pin("20bd0947c5c0d6dce721122cece72aca", "3119ecf8072b80b71f753fc92d630e6b"),
    "C+ pin-2d": pin("367e4b00f2c9781dcfce623efec3051f", "7e05d23de9d9cb4143ec125b5f78ba19"),
    "C+ pin-2d mean": pin("b2388a4693b22b14b059967492f81d1c", "8c0f5ac59d9a9bf011e934834f0179a7"),
    "corpus": "0487a5f7b4b2544cf14f1fa5636fa8bc",
    "corpus tols": "09caea7fbe562e78c64cadba6ab07444",
    "verify pin-arc default": "f05bde3cf59a7ca3a254ce73c210e5f3",
    "verify pin-mixed": pin("440a5563433c6ee749dd4a0414b24540", "8d45b6284f92e8eca97c73ac922db28c"),
}


def test_unpinned_paths_and_tolerance_flags_stdout_is_pinned(tmp_path, capsys):
    paths = {}
    for obj in (PIN_2D, PIN_DISK_UNION, PIN_3D, PIN_ARC, PIN_MIXED):
        paths[obj["scenario_id"]] = tmp_path / f"{obj['scenario_id']}.json"
        paths[obj["scenario_id"]].write_text(json.dumps(obj))
    got = {}
    for label, line in PINNED_RUNS.items():
        assert main(line.format(**paths).split()) == 0
        got[label] = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
    # each override reaches the output
    assert got["verify pin-disk-union mean"] != got["verify pin-disk-union"]
    assert got["C+ pin-2d mean"] != got["C+ pin-2d"]
    assert got["corpus tols"] != got["corpus"]
    assert got == PINNED_RUN_STDOUT


def test_corpus_rejects_a_negative_mean_tolerance(capsys):
    # an unusable tolerance is an input error, not a run to the node budget
    assert main(["corpus", "--seed", "3", "--count", "1", "--tol-mean", "-1"]) == 2
    assert "tolerances.mean must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "corpus", "report"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_max_inconclusive_must_be_a_fraction(capsys, command, threshold):
    # nan would switch the gate off: 5 > nan * judged is False, so every row
    # inconclusive would still exit 0
    argv = {"verify": [str(GOLDEN)], "corpus": ["--seed", "3", "--count", "1"],
            "report": [str(GOLDEN)]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--max-inconclusive", threshold])
    assert exc.value.code == 2
    assert f"must be a fraction in [0, 1], got '{threshold}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    pytest.param("characteristic", "--tol-dini", id="--tol-dini"),
    pytest.param("characteristic", "--max-inconclusive", id="--max-inconclusive"),
    pytest.param("verify", "--tol-dini", id="verify---tol-dini"),
    pytest.param("corpus", "--tol-dini", id="corpus---tol-dini"),
])
def test_characteristic_rejects_verdict_flags(tmp_path, capsys, command, flag):
    # the Dini integral is closed-form and takes no tolerance anywhere, and
    # characteristic prints no verdict
    path = tmp_path / "pin-arc.json"
    path.write_text(json.dumps(PIN_ARC))
    argv = {"characteristic": [str(path), "--kind", "C+", "--r-grid", "0.9:1.2:0.3"],
            "verify": [str(path)],
            "corpus": ["--seed", "3", "--count", "1"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, "1e-4"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
