import ast
import math
import pathlib
import re

import numpy as np
import pytest

from deltasubh.geometry import ScenarioError, _d_hat, _distances, _dots, ext_mul, kernel
from deltasubh.lab import Scenario, constant_A
from deltasubh.measures import Atom, BorelMeasure, UniformArc, UniformBall, UniformSegment
from deltasubh.potentials import MeromorphicFn

INF = math.inf


def test_dimension_constants_closed_forms():
    # d_hat = max(1, d-2) = 1 + (d-3)^+
    for d in (2, 3, 4, 5):
        assert _d_hat(d) == max(1, d - 2)
        assert _d_hat(d) == 1 + max(0, d - 3)


def test_dimension_validation():
    # every formula or constructor that takes a bare d checks it is an integer >= 2
    for d in (1, 0, 2.0, "2"):
        for formula in (lambda: _d_hat(d), lambda: kernel(d, 1.0),
                        lambda: constant_A(d, 1.0, 2.0), lambda: BorelMeasure((), d)):
            with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
                formula()


_KINDS = {
    "atom": lambda w: Atom((0.0, 0.0), w),
    "segment": lambda w: UniformSegment((0.0, 0.0), (1.0, 0.0), w),
    "arc": lambda w: UniformArc((0.0, 0.0), 1.0, 0.0, 1.0, w),
    "ball": lambda w: UniformBall((0.0, 0.0), 0.5, w),
}


def _meromorphic_f_with_a_3d_mu():
    f = MeromorphicFn(((0j, 1),))
    return Scenario("m", f.to_delta_subharmonic(), BorelMeasure((Atom((0.1, 0.0, 0.0), 1.0),), 3),
                    1.0, 2.0, f=f)


@pytest.mark.parametrize("build, code", [
    *(pytest.param(lambda make=make, w=w: make(w), "NEGATIVE_WEIGHT", id=f"{kind}-weight={w}")
      for kind, make in _KINDS.items() for w in (0.0, -1.0)),
    pytest.param(lambda: BorelMeasure((Atom((0.0, 0.0, 0.0), 1.0),), 2), "DIMENSION",
                 id="3d-atom-in-d=2"),
    pytest.param(lambda: BorelMeasure((), 1), "DIMENSION", id="measure-d=1"),
    pytest.param(lambda: kernel(1, 1.0), "DIMENSION", id="kernel-d=1"),
    pytest.param(_meromorphic_f_with_a_3d_mu, "DIMENSION", id="meromorphic-f-3d-mu"),
    # a non-finite weight is no sign rule: the JSON reader calls it MEASURE_SPEC
    *(pytest.param(lambda make=make, w=w: make(w), None, id=f"{kind}-weight={w}")
      for kind, make in _KINDS.items() for w in (math.nan, math.inf, -math.inf)),
])
def test_python_callers_get_the_codes_a_file_gets(build, code):
    # each rule's constructor raises its code, so a Python caller and a
    # scenario file see the same one
    with pytest.raises(ValueError) as err:
        build()
    if code is None:
        assert not isinstance(err.value, ScenarioError)
    else:
        assert isinstance(err.value, ScenarioError) and err.value.code == code


def test_kernel_anchor_values():
    assert kernel(2, 1.0) == 0.0
    assert kernel(3, 2.0) == -0.5
    assert kernel(2, 0.0) == -INF
    assert kernel(3, 0.0) == -INF
    with pytest.raises(ValueError):
        kernel(2, -0.1)


def test_kernel_vectorized():
    t = np.array([0.0, 1.0, math.e])
    out = kernel(2, t)
    assert out[0] == -INF
    assert out[1] == 0.0
    assert out[2] == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_kernel_strictly_increasing(d):
    ts = np.linspace(0.0, 9.0, 400)
    vals = kernel(d, ts)
    assert np.all(np.diff(vals) > 0)


def test_extended_arithmetic_conventions():
    assert ext_mul(2.0, INF) == INF
    assert ext_mul(-2.0, INF) == -INF
    assert ext_mul(0.0, INF) == 0.0          # the 0 * inf := 0 convention
    assert ext_mul(0.0, -INF) == 0.0


# ---------------------------------------------------------------------------
# the summation rule: _dots and _distances add their terms left to right


def _left_to_right(a, b) -> float:
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


@pytest.mark.parametrize("shape", [(7,), (2,), (300, 3), (300, 2), (5, 40, 3), (4, 6, 15)])
def test_dots_equal_a_python_left_to_right_loop_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    b = rng.standard_normal(shape[-1:]) * 10.0 ** rng.integers(-8, 8, shape[-1:])
    got = _dots(a, b)  # b broadcasts against a
    assert np.shape(got) == shape[:-1]
    rows = a.reshape(-1, shape[-1])
    want = [_left_to_right(row.tolist(), b.tolist()) for row in rows]
    assert np.reshape(got, -1).tolist() == want
    full = rng.standard_normal(shape)  # and b of a's own shape
    want = [_left_to_right(x.tolist(), y.tolist())
            for x, y in zip(rows, full.reshape(-1, shape[-1]))]
    assert np.reshape(_dots(a, full), -1).tolist() == want


def test_dots_of_nothing_is_zero():
    assert _dots(np.zeros(0), np.zeros(0)) == 0.0
    assert _dots(np.zeros((3, 0)), np.zeros(0)).tolist() == [0.0] * 3


@pytest.mark.parametrize("d", [2, 3])
def test_distances_are_the_root_of_dots(d):
    rng = np.random.default_rng(40 + d)
    pts = rng.uniform(-3.0, 3.0, (2049, d)) * 10.0 ** rng.integers(-6, 6, (2049, 1))
    for p in (rng.uniform(-1.0, 1.0, d), 0.0, pts[:5, None, :]):
        v = pts - p
        assert np.array_equal(_distances(pts, p), np.sqrt(_dots(v, v)))
    v = pts[3] - pts[7]
    assert _distances(pts[3], pts[7]) == math.sqrt(_left_to_right(v.tolist(), v.tolist()))


_BLAS_NAMES = {"dot", "einsum", "matmul", "inner", "vdot", "tensordot", "linalg"}


def _src_nodes():
    """(file:line, node) for every AST node of the package's modules."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasubh"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def _attribute_of(node, modules):
    """node's attribute name when node is <module>.<name>, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return node.attr
    return None


def test_src_has_no_blas_reduction():
    # every inner product is _dots and every norm _distances: no @, np.dot,
    # np.einsum, np.matmul, np.inner, np.vdot, np.tensordot or np.linalg
    found = []
    for where, node in _src_nodes():
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where} @")
        elif _attribute_of(node, ("np", "numpy")) in _BLAS_NAMES:
            found.append(f"{where} np.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            found += [f"{where} import {n}" for n in names if "linalg" in n]
    assert found == []


def test_src_takes_every_distance_between_two_points_by_distances():
    # no math.dist or np.hypot, and math.hypot only as math.hypot(*p), the
    # norm of one stored point: every other distance is _distances, so no
    # value depends on whether a point comes as a tuple or an array row
    found, hypot_of_one_point = [], set()  # ast.walk yields a call before its function
    for where, node in _src_nodes():
        if (isinstance(node, ast.Call) and _attribute_of(node.func, ("math",)) == "hypot"
                and len(node.args) == 1 and isinstance(node.args[0], ast.Starred)
                and not node.keywords):
            hypot_of_one_point.add(id(node.func))
        name = _attribute_of(node, ("math", "np", "numpy"))
        if name in ("dist", "hypot") and id(node) not in hypot_of_one_point:
            found.append(f"{where} {node.value.id}.{name}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            found += [f"{where} from {node.module} import {a.name}"
                      for a in node.names if a.name in ("dist", "hypot")]
    assert found == []


# serialize_scenario is the scenario format's writer: nothing in the package
# writes a scenario, but the round-trip tests check parse_scenario with it
_EXPORTS_WITHOUT_A_CALLER = {"serialize_scenario"}


def test_every_export_has_a_caller_outside_the_tests():
    # each name __init__ imports is used as code (a name or an attribute, not
    # a string) in another module of the package, in bench/ or in demos/; a
    # use inside the definition of another export that nothing uses does not
    # count, so a group of helpers that only call each other shows up whole
    root = pathlib.Path(__file__).resolve().parent.parent
    init = root / "src" / "deltasubh" / "__init__.py"
    exported = {a.asname or a.name: node.module
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    paths = [p for p in (root / "src" / "deltasubh").glob("*.py") if p != init]
    paths += sorted((root / "bench").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    uses = []  # (used name, the export whose definition holds the use, or None)
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            name = getattr(top, "name", None)
            owner = name if path.stem == exported.get(name) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, owner))
    unused = set(exported) - _EXPORTS_WITHOUT_A_CALLER
    while True:
        used = {n for n, owner in uses if owner != n and owner not in unused}
        if not unused & used:
            break
        unused -= used
    assert not unused, f"exported, but only the tests call: {sorted(unused)}"


def test_every_module_level_import_is_used_by_its_module():
    # a name a module of the package imports at module level is read as
    # code in that module, or listed in its __all__ (a re-export); a stale
    # import left behind when its last use moves away fails here.  __init__
    # imports only the package's exports, which the test above checks
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasubh"
    unused = []
    for path in sorted(set(src.glob("*.py")) - {src / "__init__.py"}):
        tree = ast.parse(path.read_text(), str(path))
        imported = [(a.asname or a.name).split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= {e.value for e in node.value.elts}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == [], f"imported at module level, never used: {unused}"


# VerificationReport.note says why a row is precondition-failed or vacuous;
# nothing prints it yet, and the per-row trace of ROADMAP item 1 is to carry it
_FIELDS_WITHOUT_A_READER = {"VerificationReport.note"}


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read_outside_its_class():
    # each field of a dataclass of the package is read as an attribute, or by
    # a getattr string, in src/, bench/ or demos/ outside its own class body:
    # a field only its constructor and the tests touch is computed for no one
    root = pathlib.Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "deltasubh").glob("*.py"))
    paths = src + sorted((root / "bench").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    fields, reads = set(), set()  # (class, field); (field, the class holding the read)
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            if path in src and _is_dataclass(top):
                fields |= {(owner, s.target.id) for s in top.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owner))
                elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                      and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                    reads.add((node.args[1].value, owner))
    unread = {f"{cls}.{name}" for cls, name in fields
              if not any(attr == name and where != cls for attr, where in reads)}
    assert unread == _FIELDS_WITHOUT_A_READER, f"fields no caller reads: {sorted(unread)}"


def test_no_dimension_parameter_has_a_default():
    # the dimension is stated by the caller or read from the object that
    # carries it: no function or lambda of the package defaults a d or a dim
    found = []
    for where, node in _src_nodes():
        if isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            defaulted = positional[len(positional) - len(node.defaults):]
            defaulted += [a for a, v in zip(node.kwonlyargs, node.kw_defaults) if v is not None]
            found += [f"{where.split(':')[0]}:{a.lineno} {a.arg}"
                      for a in defaulted if a.arg in ("d", "dim")]
    assert found == []


def test_pass_and_fail_are_decided_only_by_the_verdict_rule():
    # every row's verdict comes from lab._verdict: the names PASS and FAIL
    # are read only there and in the VERDICTS tuple, so no check writes its
    # own pass/fail rule (one that would print fail for a NaN slack)
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "deltasubh"
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            targets = [getattr(t, "id", None) for t in getattr(top, "targets", ())]
            if path.name == "lab.py" and (getattr(top, "name", None) == "_verdict"
                                          or targets == ["VERDICTS"]):
                continue
            found += [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(top)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and node.id in ("PASS", "FAIL")]
    assert found == []


_G_METHODS = {"value", "slope", "values", "slopes"}  # characteristics._Planar's g and g'


def test_planar_atomic_u_has_one_model():
    # characteristics._Planar is the one model of planar atomic U: lab has no
    # class of its own that evaluates g and imports neither cmath nor
    # potentials._horner, the sign finder takes no list of splits, and src
    # has one synthetic-division Taylor shift and one conversion of point
    # rows to complex numbers
    lab_classes, lab_imports, splits, shifts, rows = [], [], [], [], []
    for where, node in _src_nodes():
        name = where.split(":")[0]
        if name == "lab.py" and isinstance(node, ast.ClassDef):
            lab_classes += [f"{where} {node.name}" for f in node.body
                            if isinstance(f, ast.FunctionDef) and f.name in _G_METHODS]
        if name == "lab.py" and isinstance(node, ast.Import):
            lab_imports += [f"{where} {a.name}" for a in node.names if a.name == "cmath"]
        if name == "lab.py" and isinstance(node, ast.ImportFrom):
            lab_imports += [f"{where} {a.name}" for a in node.names if a.name == "_horner"]
        if name == "lab.py" and _attribute_of(node, ("potentials",)) == "_horner":
            lab_imports.append(f"{where} potentials._horner")
        if name == "characteristics.py" and isinstance(node, (ast.FunctionDef, ast.Lambda)):
            splits += [where for a in node.args.args if a.arg == "splits"]
        if isinstance(node, ast.AugAssign) and re.fullmatch(
                r"(\w+)\[(\w+)\] \+= \w+ \* \1\[\2 \+ 1\]", ast.unparse(node)):
            shifts.append(where)
        if isinstance(node, ast.BinOp) and re.fullmatch(
                r"([\w.]+)\[:, 0\] \+ 1j \* \1\[:, 1\]", ast.unparse(node)):
            rows.append(where)
    assert lab_classes == [] and lab_imports == [] and splits == []
    assert len(shifts) == 1 and len(rows) == 1, (shifts, rows)
