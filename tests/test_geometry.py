import ast
import math
import pathlib

import numpy as np
import pytest

from deltasubh.geometry import _d_hat, _distances, _dots, ext_mul, kernel
from deltasubh.lab import constant_A
from deltasubh.measures import BorelMeasure

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
