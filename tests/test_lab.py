import ast
import dataclasses
import json
import math
import random
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from deltasubh import characteristics, lab, measures, potentials

from deltasubh.characteristics import _sphere_mean
from deltasubh.geometry import _distances, _dots, kernel
from deltasubh.measures import (
    Atom,
    BorelMeasure,
    UniformArc,
    UniformBall,
    UniformSegment,
)
from deltasubh.potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    MeromorphicFn,
    SubharmonicFn,
    jordan_decomposition,
    potential_values,
)
from deltasubh.quadrature import QuadratureBudgetError, integrate_interval
from deltasubh.scenario_io import parse_scenario
from deltasubh.lab import (
    CorpusConfig,
    Scenario,
    Tolerances,
    constant_A,
    generate_scenario,
    positive_part_integral,
    run_checks,
    run_corpus,
    verify_counting_lemma,
    verify_main_theorem,
    verify_pointwise_bound,
    verify_poisson_jensen,
)

def _mero(zeros=(), poles=(), unit=1.0, exponent=()):
    return MeromorphicFn(tuple(zeros), tuple(poles), unit, tuple(exponent))


def _scenario(f, mu, r, R, r0=None, tols=Tolerances()):
    return Scenario("test", f.to_delta_subharmonic(), mu, r, R, f=f, r0=r0,
                    tolerances=tols, seed=1)


def test_constant_A_anchors():
    assert constant_A(2, 1.0, 3.0) == 4.0
    assert constant_A(2, 1.0, 2.0) == 6.0
    assert constant_A(3, 1.0, 2.0) == 18.0
    with pytest.raises(ValueError):
        constant_A(2, 2.0, 1.0)


def test_golden_scenario_f_z_circle_measure():
    # f(z) = z, mu = unit arclength-normalized full circle on |z| = 2,
    # (r, R) = (2, 4), r0 = 0: LHS = ln 2 by Jensen on ln^+
    f = _mero(zeros=[(0j, 1)])
    mu = BorelMeasure((UniformArc((0.0, 0.0), 2.0, 0.0, 2 * math.pi, 1.0),), 2)
    s = _scenario(f, mu, 2.0, 4.0, r0=0.0)
    rep = verify_main_theorem(s)
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(math.log(2.0), abs=1e-8)
    # RHS = A_2(2,4) * T(0, 4) * (M + dini) with T = C_{ln^+|z|}(4) = ln 4
    assert rep.components["A"] == pytest.approx(6.0)
    assert rep.components["T"] == pytest.approx(math.log(4.0), abs=1e-8)
    assert rep.slack > 0


def test_negative_function_gives_zero_lhs():
    # |f| = |z|/10 <= 1 on the support: U^+ = 0 there, RHS >= 0
    f = _mero(zeros=[(0j, 1)], unit=0.1)
    mu = BorelMeasure((UniformSegment((-0.5, 0.0), (0.5, 0.0), 1.0),), 2)
    s = _scenario(f, mu, 1.0, 3.0)
    rep = verify_main_theorem(s)
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.rhs >= 0.0
    assert rep.verdict == "pass"


def test_zero_measure_passes_with_zero_rhs():
    f = _mero(poles=[(0j, 1)])  # T_U(0, R) would be +inf; 0 * inf = 0 rules
    mu = BorelMeasure((), 2)
    s = _scenario(f, mu, 1.0, 2.0, r0=0.0)
    rep = verify_main_theorem(s)
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.verdict == "pass"


def test_atomic_measure_precondition_failed():
    f = _mero(zeros=[(0j, 1)])
    mu = BorelMeasure((Atom((0.5, 0.0), 1.0),), 2)
    s = _scenario(f, mu, 1.0, 2.0)
    rep = verify_main_theorem(s)
    assert rep.verdict == "precondition-failed"
    assert math.isinf(rep.rhs)


def test_vacuous_when_growth_infinite():
    # pole at the origin and r0 = 0: T_U(0, R) = +inf, mu nonzero
    f = _mero(poles=[(0j, 1)])
    mu = BorelMeasure((UniformSegment((0.3, 0.0), (0.9, 0.0), 1.0),), 2)
    s = _scenario(f, mu, 1.0, 2.0, r0=0.0)
    rep = verify_main_theorem(s)
    assert rep.verdict == "vacuous"
    rep2, = run_checks(s, ("UR2f",))
    assert rep2.verdict == "vacuous"


def test_lhs_segment_integral_oracle():
    # dense-grid oracle for the mu-integral of U^+ over a segment
    f = _mero(zeros=[(0.2 + 0.4j, 1)], poles=[(-0.8 + 0.1j, 1)], unit=2.0)
    U = f.to_delta_subharmonic()
    seg = UniformSegment((-0.6, -0.2), (0.7, 0.5), 1.3)
    mu = BorelMeasure((seg,), 2)
    res = positive_part_integral(U, mu, tol=1e-9)
    s = np.linspace(0.0, 1.0, 2_000_001)
    pts = np.asarray(seg.start)[None, :] + s[:, None] * (
        np.asarray(seg.end) - np.asarray(seg.start))[None, :]
    vals = U.positive_values(pts)
    oracle = seg.weight * float(np.trapezoid(vals, s))
    assert res.value == pytest.approx(oracle, abs=5e-7)


def test_positive_part_integral_takes_every_atom_from_one_call(monkeypatch):
    # U^+ at all atoms of mu comes from one positive_values call, and each
    # w U^+ is added in component order, so the sum is the one-atom-at-a-time
    # loop's, bit for bit; the atom on f's zero adds (-inf)^+ = 0
    f = _mero(zeros=[(0.3 + 0.2j, 1)], poles=[(-0.5 + 0j, 1)], unit=2.0)
    U = f.to_delta_subharmonic()
    seg = UniformSegment((-0.9, -0.4), (0.8, 0.5), 0.7)
    first, *rest = (Atom((0.6, -0.3), 0.4), Atom((0.3, 0.2), 0.9), Atom((-0.2, 0.7), 0.3))
    mu = BorelMeasure((first, seg, *rest), 2)
    along = positive_part_integral(U, BorelMeasure((seg,), 2), 1e-9).value
    calls = []
    positive_values = DeltaSubharmonicFn.positive_values

    def counted(self, pts):
        calls.append(len(pts))
        return positive_values(self, pts)

    monkeypatch.setattr(DeltaSubharmonicFn, "positive_values", counted)
    got = positive_part_integral(U, mu, 1e-9)
    assert calls == [3]

    def plus(atom):
        vals, polar = U.values_with_polar(np.array([atom.point]))
        return 0.0 if polar[0] else max(float(vals[0]), 0.0)

    want = 0.0 + first.weight * plus(first) + along
    for atom in rest:
        want += atom.weight * plus(atom)
    assert plus(rest[0]) == 0.0 and got.value == want


def test_lhs_disk_integral_oracle():
    f = _mero(zeros=[(1.2 + 0.3j, 1)], poles=[(0.1 - 1.1j, 1)], unit=1.5)
    U = f.to_delta_subharmonic()
    disk = UniformBall((0.1, 0.0), 0.6, 2.0)
    mu = BorelMeasure((disk,), 2)
    res = positive_part_integral(U, mu, tol=1e-8)
    n = 1500
    qs = (np.arange(n) + 0.5) / n * disk.radius
    th = 2 * math.pi * (np.arange(n) + 0.5) / n
    Q, TH = np.meshgrid(qs, th, indexing="ij")
    pts = np.column_stack([(disk.center[0] + Q * np.cos(TH)).ravel(),
                           (disk.center[1] + Q * np.sin(TH)).ravel()])
    vals = U.positive_values(pts).reshape(n, n)
    oracle = disk.weight * float((vals * Q).sum() / Q.sum())
    assert res.value == pytest.approx(oracle, abs=2e-4)


def test_segment_through_pole_scenario():
    # f = z/(z-1), mu = uniform segment on [0, r] of the real axis (which
    # passes through the pole at 1), (r, R) = (2, 5).  Closed-form LHS:
    # (1/2) int_0^2 ln^+ (x/|x-1|) dx = 1.5 ln 2.
    f = _mero(zeros=[(0j, 1)], poles=[(1 + 0j, 1)])
    mu = BorelMeasure((UniformSegment((0.0, 0.0), (2.0, 0.0), 1.0),), 2)
    s = _scenario(f, mu, 2.0, 5.0)
    rep, = run_checks(s, ("UR2f",))
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(1.5 * math.log(2.0), abs=1e-8)
    assert rep.slack > 0
    rep_main = verify_main_theorem(s)
    assert rep_main.verdict == "pass"
    assert abs(rep_main.rhs - rep.rhs) <= 1e-7 * rep.rhs


def test_constant_function_small_modulus():
    # |c| <= 1: ln^+|c| = 0 everywhere, LHS = 0
    f = _mero(unit=0.7)
    mu = BorelMeasure((UniformBall((0.0, 0.0), 0.5, 1.0),), 2)
    s = _scenario(f, mu, 1.0, 2.0)
    rep = verify_main_theorem(s)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "pass"


def test_specialization_consistency_UR_vs_UR2f():
    # identical RHS to 1e-9 relative for d=2 meromorphic scenarios
    rng = random.Random(51)
    tight = Tolerances(mean=1e-11)
    for index in range(6):
        s = generate_scenario(777, index, "segment", tight)
        rep_main, rep_f = run_checks(s, ("UR", "UR2f"))
        assert rep_main.verdict == "pass" and rep_f.verdict == "pass"
        assert abs(rep_main.rhs - rep_f.rhs) <= 1e-9 * max(1.0, abs(rep_main.rhs))


UR_FAMILY = ("UR", "UR2", "UR2f", "UR2fr")


def test_ur_family_computes_each_ingredient_once(monkeypatch):
    # each function is counted in every module that holds it, so a call made
    # through any binding (lab's import, or characteristics' own globals) shows
    s = generate_scenario(42, 1, "segment")
    calls = Counter()
    defined = {"dini_integral_result": measures, "positive_part_integral": lab,
               "spherical_mean": characteristics, "nevanlinna_m": characteristics,
               "nevanlinna_T": characteristics,
               "difference_characteristic": characteristics}
    for name, home in defined.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (lab, characteristics, measures):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    reports = run_checks(s, UR_FAMILY)
    assert [rep.inequality for rep in reports] == list(UR_FAMILY)
    assert all(rep.verdict == "pass" for rep in reports)
    assert calls == {"dini_integral_result": 1, "positive_part_integral": 1,
                     "spherical_mean": 1}


def test_shared_circle_mean_agrees_with_nevanlinna_T():
    # m(R, f) stays the oracle of the T(R, f) built from C_{U^+}(R)
    for index in range(8):
        s = generate_scenario(42, index, lab.DEFAULT_FAMILIES[index % 4])
        value, error = lab._Ingredients(s).T_f
        T = characteristics.nevanlinna_T(s.f, s.R, s.tolerances.mean)
        assert abs(value - T.value) <= error + T.error_estimate, s.scenario_id


def test_run_checks_timing_covers_the_shared_ingredients(monkeypatch):
    s = generate_scenario(42, 1, "segment")
    real_dini = lab.dini_integral_result

    def slow_dini(*args, **kwargs):
        time.sleep(0.05)
        return real_dini(*args, **kwargs)

    monkeypatch.setattr(lab, "dini_integral_result", slow_dini)
    start = time.perf_counter()
    reports = run_checks(s, UR_FAMILY, timing=True)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    timed_ms = sum(rep.wall_time_ms for rep in reports)
    assert timed_ms >= 50
    # no ingredient is computed outside the per-row timers
    assert timed_ms >= elapsed_ms - 25


def test_r0_replacement_monotone_rhs():
    # RHS never decreases when r is replaced by a smaller r0 (T_U decreasing
    # in its first argument)
    f = _mero(zeros=[(0.4 + 0.2j, 1)], poles=[(1.2 - 0.5j, 1)])
    mu = BorelMeasure((UniformSegment((-0.4, 0.1), (0.5, 0.3), 1.0),), 2)
    rhs_values = []
    for r0 in (1.0, 0.7, 0.4, 0.1, 0.0):
        s = _scenario(f, mu, 1.0, 2.5, r0=r0)
        rep = verify_main_theorem(s)
        rhs_values.append(rep.rhs)
    for smaller_r0_rhs, larger_r0_rhs in zip(rhs_values[1:], rhs_values):
        assert smaller_r0_rhs >= larger_r0_rhs - 1e-7


def test_ur2fr_requires_precondition():
    f = _mero(poles=[(0j, 1)])
    mu = BorelMeasure((UniformSegment((0.2, 0.0), (0.4, 0.0), 1.0),), 2)
    s = _scenario(f, mu, 0.5, 2.0)  # r < 1 and pole at origin
    rep, = run_checks(s, ("UR2fr",))
    assert rep.verdict == "precondition-failed"
    s_big = _scenario(f, mu, 1.0, 2.0)
    rep_big, = run_checks(s_big, ("UR2fr",))
    assert rep_big.verdict == "pass"


def test_poisson_jensen_harmonic_reproduction():
    # no charge: pure Poisson formula, residual at machine scale
    f = _mero(exponent=(0.2 + 0j, 1.0 + 0j))  # Re z + 0.2 as log|e^{p}|
    U = f.to_delta_subharmonic()
    rng = random.Random(52)
    pts = []
    while len(pts) < 25:
        p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if p[0] ** 2 + p[1] ** 2 <= 1.0:
            pts.append(p)
    rep = verify_poisson_jensen(U, 2.0, pts, tol=1e-10)
    assert rep.max_relative < 1e-9
    assert not rep.skipped


def test_poisson_jensen_with_charges_and_skip():
    f = _mero(zeros=[(0.5 + 0j, 1)], poles=[(-0.3 + 0.4j, 2)])
    U = f.to_delta_subharmonic()
    pts = [(0.5, 0.0), (0.2, 0.2), (-0.3, 0.4)]  # first and last are charges
    rep = verify_poisson_jensen(U, 2.0, pts, tol=1e-9)
    assert len(rep.skipped) == 2
    assert rep.max_relative < 1e-6
    assert rep.verdict == "pass"


def test_pointwise_bound_examples():
    f = _mero(poles=[(1 + 0j, 1)])
    U = f.to_delta_subharmonic()
    rep = verify_pointwise_bound(U, 0.5, 2.0, [(0.0, 0.0)], tol=1e-9)
    assert rep.verdict == "pass"
    assert rep.residuals[0] > 0  # positive slack
    # U <= 0 at x: LHS = 0 <= RHS
    g = _mero(zeros=[(0j, 1)], unit=0.05)
    rep2 = verify_pointwise_bound(g.to_delta_subharmonic(), 0.5, 2.0,
                                  [(0.25, 0.1)], tol=1e-9)
    assert rep2.verdict == "pass"


def test_pointwise_bound_max_relative_is_relative():
    # slack / max(1, |rhs|) per point, as in the Poisson-Jensen report
    f = _mero(zeros=[(0.5 + 0.2j, 1)], poles=[(-0.6 + 0.4j, 2)], unit=1.3)
    rep = verify_pointwise_bound(f.to_delta_subharmonic(), 1.2, 2.5,
                                 [(0.1, 0.2), (0.9, -0.3), (-0.2, -0.7)], tol=1e-9)
    lhs = np.maximum(f.to_delta_subharmonic().values(np.array(rep.points)), 0.0)
    rhs = np.array(rep.residuals) + lhs
    relative = np.abs(rep.residuals) / np.maximum(1.0, np.abs(rhs))
    assert rep.max_relative == pytest.approx(relative.max(), rel=1e-12)
    assert rep.max_relative <= 1.0 < max(abs(v) for v in rep.residuals)


def test_pointwise_bound_random_scenarios():
    rng = random.Random(53)
    for index in range(5):
        s = generate_scenario(999, index, "segment")
        pts = []
        while len(pts) < 15:
            p = (rng.uniform(-s.r, s.r), rng.uniform(-s.r, s.r))
            if p[0] ** 2 + p[1] ** 2 <= s.r ** 2:
                pts.append(p)
        rep = verify_pointwise_bound(s.U, s.r, s.R, pts, tol=1e-9)
        assert rep.verdict == "pass"


@pytest.mark.parametrize("scale, verdict", [(2.0, "fail"), (math.nan, "inconclusive")],
                         ids=["twice-the-rhs", "nan"])
def test_a_mutated_left_side_reads_fail_or_inconclusive(monkeypatch, scale, verdict):
    # a negative control: the UR row of s0001-segment passes, and a left side
    # scaled to twice its right side is a counterexample past the budget,
    # while a NaN one (slack and budget NaN) proves nothing either way
    s = generate_scenario(42, 1, "segment")
    (row,) = run_checks(s, ("UR",))
    assert row.verdict == "pass" and 0.0 < row.lhs < row.rhs
    integral = lab.positive_part_integral
    factor = scale * row.rhs / row.lhs
    monkeypatch.setattr(lab, "positive_part_integral",
                        lambda U, mu, tol: integral(U, mu, tol).scaled(factor))
    (mutated,) = run_checks(s, ("UR",))
    assert mutated.rhs == row.rhs
    assert mutated.verdict == verdict
    if verdict == "fail":
        assert mutated.slack == pytest.approx(-row.rhs) and -mutated.slack > mutated.error_budget


def test_a_nan_poisson_jensen_residual_reads_inconclusive(monkeypatch):
    # the Ux row's verdict is _verdict's, like every other row's: NaN
    # boundary means prove nothing either way, so the row must not read fail
    s = generate_scenario(42, 0, "charges")
    (row,) = run_checks(s, ("Ux",))
    assert row.verdict == "pass" and row.lhs < row.rhs == 1e-6
    sphere_means = lab._sphere_means

    def nan_means(*args):
        return [dataclasses.replace(b, value=math.nan) for b in sphere_means(*args)]

    monkeypatch.setattr(lab, "_sphere_means", nan_means)
    (mutated,) = run_checks(s, ("Ux",))
    assert math.isnan(mutated.lhs) and math.isnan(mutated.slack)
    assert mutated.verdict == "inconclusive"


def test_pointwise_bound_row_carries_its_budget_and_is_inconclusive_inside_it(monkeypatch):
    # the U+B row's budget is coeff C_{U+}(R).error_estimate, and a worst
    # slack inside it reads inconclusive, so noise cannot fake a pass
    s = generate_scenario(42, 0, "charges")
    (row,) = run_checks(s, ("U+B",))
    c_plus = characteristics.spherical_mean(s.U, s.R, "positive", s.tolerances.mean)
    coeff = s.R ** (s.U.dim - 2) * (s.R + s.r) / (s.R - s.r) ** (s.U.dim - 1)
    assert row.error_budget == coeff * c_plus.error_estimate > 0.0
    assert row.verdict == "pass"
    spherical_mean = lab.spherical_mean

    def loose(U, r, transform="identity", tol=1e-8):
        rec = spherical_mean(U, r, transform, tol)
        return dataclasses.replace(rec, error_estimate=2.0 * row.slack / coeff)

    monkeypatch.setattr(lab, "spherical_mean", loose)
    (inside,) = run_checks(s, ("U+B",))
    assert inside.slack == row.slack < inside.error_budget
    assert inside.verdict == "inconclusive"


def test_proof_rows_print_the_slack_their_verdict_judged(monkeypatch):
    # the Ux and U+B rows print the slack their verifier handed to _verdict;
    # U+B once took it again with Python's min, which passes over a NaN, and
    # printed a finite worst slack next to an inconclusive verdict
    s = generate_scenario(7, 0, "charges")
    judged = []
    verdict = lab._verdict
    monkeypatch.setattr(lab, "_verdict",
                        lambda slack, budget: judged.append(slack) or verdict(slack, budget))
    rows = run_checks(s, ("Ux", "U+B"))
    assert [row.verdict for row in rows] == ["pass", "pass"]
    assert [repr(row.slack) for row in rows] == [repr(x) for x in judged]
    values = lab.potential_values

    def nan_at_one_point(nu, X):
        out = np.array(values(nu, X), dtype=float)
        out[-1] = math.nan  # not the first: Python's min keeps a leading NaN
        return out

    monkeypatch.setattr(lab, "potential_values", nan_at_one_point)
    judged.clear()
    ux, bound = run_checks(s, ("Ux", "U+B"))
    assert repr(ux.slack) == repr(judged[0])
    assert math.isnan(bound.slack) and math.isnan(bound.lhs) and math.isnan(judged[1])
    assert bound.verdict == "inconclusive"


def test_each_check_tag_is_stated_once_as_a_key_of_the_table():
    # a tag's facts (where it applies, how its row is built) live in one
    # table, lab._CHECKS: no comparison in lab tests a tag, and a tag literal
    # appears nowhere else
    tree = ast.parse(Path(lab.__file__).read_text(encoding="utf-8"))
    tags = set(lab.ALL_CHECKS)

    def is_tag(node):
        if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
            return bool(node.elts) and all(is_tag(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in tags

    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(map(is_tag, [node.left, *node.comparators]))]
    assert compared == []
    tables = [node for node in ast.walk(tree)
              if isinstance(node, ast.Dict) and any(map(is_tag, filter(None, node.keys)))]
    assert len(tables) == 1
    assert [key.value for key in tables[0].keys] == list(lab.ALL_CHECKS)
    keys = set(map(id, tables[0].keys))
    elsewhere = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in tags and id(node) not in keys]
    assert elsewhere == []


def _charges_U():
    return generate_scenario(42, 0, "charges").U


@pytest.mark.parametrize("call, message", [
    (lambda: UniformArc((0.0, 0.0), 1.0, 0.0, 7.0, 1.0), "angular width"),
    (lambda: UniformBall((0.0, 0.0, 0.0, 0.0), 1.0, 1.0), "dimensions 2 and 3"),
    (lambda: measures.ModulusProfile((0.1, 0.2), (1.0,), (True, True), 1.0, 2), "equal length"),
    (lambda: measures.ModulusProfile((0.2, 0.1), (1.0, 1.0), (True, True), 1.0, 2),
     "strictly increasing"),
    (lambda: measures.integrated_counting_result(
        BorelMeasure((Atom((0.5, 0.0), 1.0),), 2), 2.0, 2.0), "r < R"),
    (lambda: measures.dini_integral_result(
        BorelMeasure((Atom((0.5, 0.0), 1.0),), 2), 0.0), "upper must be > 0"),
    (lambda: integrate_interval(np.sin, 1.0, 1.0), "a < b"),
    (lambda: characteristics.sup_on_sphere(_charges_U(), 0.0), "r must be > 0"),
    (lambda: verify_pointwise_bound(_charges_U(), 2.0, 2.0, [(0.0, 0.0)]), "r < R"),
], ids=["arc-width-7", "ball-in-d=4", "profile-lengths", "profile-order",
        "counting-r=R", "dini-upper=0", "interval-a=b", "sup-r=0", "bound-r=R"])
def test_out_of_range_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_counting_lemma_anchors_and_zero():
    delta = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
    rep = verify_counting_lemma(delta, 1.0, 2.0)
    assert rep.lhs == 1.0
    assert rep.rhs == pytest.approx(2.0 * math.log(2.0))
    assert rep.verdict == "pass"
    rep0 = verify_counting_lemma(BorelMeasure((), 2), 1.0, 2.0)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0 and rep0.verdict == "pass"
    delta3 = BorelMeasure((Atom((0.0, 0.0, 0.0), 1.0),), 3)
    rep3 = verify_counting_lemma(delta3, 1.0, 2.0)
    assert rep3.rhs == pytest.approx(2.0)
    with pytest.raises(ValueError):
        verify_counting_lemma(delta, 2.0, 1.0)


def test_counting_lemma_random_atomic():
    rng = random.Random(54)
    for _ in range(60):
        d = rng.choice([2, 3])
        R = rng.uniform(1.0, 4.0)
        R_star = R * rng.uniform(0.2, 0.9)
        atoms = tuple(
            Atom(tuple(rng.uniform(-R, R) for _ in range(d)), rng.uniform(0.1, 2.0))
            for _ in range(rng.randint(1, 6)))
        delta = BorelMeasure(atoms, d)
        rep = verify_counting_lemma(delta, R_star, R)
        assert rep.slack >= -rep.error_budget


def test_run_checks_dbr_and_identities():
    s = generate_scenario(123, 0, "segment")
    rows = run_checks(s, ("UR", "Ux", "U+B", "dBr"))
    tags = [r.inequality for r in rows]
    assert tags == ["UR", "Ux", "U+B", "dBr"]
    assert all(r.verdict == "pass" for r in rows)


def test_small_corpus_zero_fails():
    reports = run_corpus(CorpusConfig(count=24), seed=42)
    counts = Counter(r.verdict for r in reports)
    assert counts["fail"] == 0
    assert counts["pass"] >= 0.9 * len(reports)
    assert len(reports) == 24 * 4  # homogeneous d=2 meromorphic families


def test_corpus_determinism_in_memory():
    a = run_corpus(CorpusConfig(count=6), seed=7)
    b = run_corpus(CorpusConfig(count=6), seed=7)
    assert [(r.scenario_id, r.inequality, r.lhs, r.rhs, r.slack) for r in a] == \
           [(r.scenario_id, r.inequality, r.lhs, r.rhs, r.slack) for r in b]
    c = run_corpus(CorpusConfig(count=6), seed=8)
    assert [(r.lhs, r.rhs) for r in a] != [(r.lhs, r.rhs) for r in c]


def test_d3_ball_scenario_main_theorem():
    # d=3: affine harmonic + atomic charges, ball measure
    u = SubharmonicFn(AffineHarmonic(0.8, (0.1, -0.05, 0.2)),
                      BorelMeasure((Atom((0.5, 0.3, -0.2), 0.6),), 3))
    v = SubharmonicFn(None, BorelMeasure((Atom((-0.7, 0.2, 0.5), 0.4),), 3))
    U = DeltaSubharmonicFn(u, v)
    mu = BorelMeasure((UniformBall((0.1, 0.0, 0.0), 0.5, 1.0),), 3)
    s = Scenario("d3", U, mu, 1.0, 2.2, tolerances=Tolerances(mean=1e-7))
    rep = verify_main_theorem(s)
    assert rep.verdict == "pass"
    assert rep.components["A"] == pytest.approx(
        2.0 * ((2.2 + 1.0) / 1.2) ** 2 * max(1.0, 1.2))


def test_charges_family_corpus():
    # non-meromorphic delta-subharmonic scenarios: UR/UR2 checks only
    reports = run_corpus(CorpusConfig(count=6, families=("charges",)), seed=13)
    assert len(reports) == 12
    assert {r.inequality for r in reports} == {"UR", "UR2"}
    assert all(r.verdict == "pass" for r in reports)


def test_atomic_mu_family_all_precondition_failed():
    reports = run_corpus(CorpusConfig(count=5, families=("atomic_mu",),
                                      checks=("UR",)), seed=13)
    assert len(reports) == 5
    assert all(r.verdict == "precondition-failed" for r in reports)


def test_corpus_config_rejects_a_count_below_one():
    # an empty corpus is an input error, not an empty list of rows
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"--count must be >= 1, got {count}"):
            CorpusConfig(count=count)


def test_corpus_config_rejects_an_empty_family_list():
    # run_corpus picks family index % len(families): no families, no corpus
    with pytest.raises(ValueError, match="at least one scenario family"):
        CorpusConfig(families=())


def test_pointwise_bound_integrates_below_main_rhs():
    # integrating the pointwise bound at R* = (R+r)/2 over an atom-free mu
    # stays below the main theorem's RHS (the proof's chain of relaxations)
    from deltasubh.potentials import potential_values
    from deltasubh.geometry import kernel
    import numpy as np

    for index in range(6):
        s = generate_scenario(2024, index, ("segment", "disk", "ef_arc")[index % 3])
        rep = verify_main_theorem(s)
        assert rep.verdict == "pass"
        R_star = 0.5 * (s.R + s.r)
        d = s.U.dim
        coeff = R_star ** (d - 2) * (R_star + s.r) / (R_star - s.r) ** (d - 1)
        from deltasubh.characteristics import spherical_mean
        from deltasubh.potentials import jordan_decomposition
        _plus, minus = jordan_decomposition(s.U)
        c_plus = spherical_mean(s.U, R_star, "positive", tol=1e-9)
        k_sum = float(kernel(d, R_star + s.r))
        charge_term = 0.0
        for atom in minus.atoms:
            pot = float(potential_values(s.mu, np.asarray(atom.point, dtype=float)[None, :])[0])
            charge_term += atom.weight * (k_sum * s.mu.mass - pot)
        integrated_bound = coeff * c_plus.value * s.mu.mass + charge_term
        assert rep.lhs <= integrated_bound + 1e-6
        assert integrated_bound <= rep.rhs + 1e-6


def test_scenario_validation():
    f = _mero(zeros=[(0j, 1)])
    mu = BorelMeasure((Atom((0.5, 0.0), 1.0),), 2)
    with pytest.raises(ValueError):
        Scenario("bad", f.to_delta_subharmonic(), mu, 2.0, 1.0, f=f)
    with pytest.raises(ValueError):
        Scenario("bad", f.to_delta_subharmonic(), mu, 1.0, 2.0, f=f, r0=1.5)
    big = BorelMeasure((Atom((5.0, 0.0), 1.0),), 2)
    with pytest.raises(ValueError):
        Scenario("bad", f.to_delta_subharmonic(), big, 1.0, 2.0, f=f)


def test_scenario_rejects_a_measure_of_another_dimension():
    s = generate_scenario(42, 2, "disk")
    with pytest.raises(ValueError, match="dimension"):
        dataclasses.replace(s, mu=BorelMeasure((UniformBall((0.0, 0.0, 0.0), 0.3, 1.0),), 3))
    # the zero measure states its dimension too
    with pytest.raises(ValueError, match="dimension 2, got 3"):
        dataclasses.replace(s, mu=BorelMeasure((), 3))
    U3 = DeltaSubharmonicFn(SubharmonicFn(None, BorelMeasure((Atom((0.3, 0.1, 0.2), 1.0),), 3)),
                            SubharmonicFn(None, BorelMeasure((), 3)))
    Scenario("e", U3, BorelMeasure((), 3), 1.0, 2.0)
    with pytest.raises(ValueError, match="dimension 3, got 2"):
        Scenario("e", U3, BorelMeasure((), 2), 1.0, 2.0)


def test_scenario_rejects_an_f_that_U_is_not_log_of():
    # UR2f and UR2fr would take their lhs from one function and T(R, f) from
    # the other, and the scenario would not survive its own round trip
    s, other = generate_scenario(42, 5, "segment"), generate_scenario(42, 1, "segment")
    # another f, a U of another f, and log|1/f|
    for change in ({"f": other.f}, {"U": other.U}, {"U": DeltaSubharmonicFn(s.U.v, s.U.u)}):
        with pytest.raises(ValueError, match="to_delta_subharmonic"):
            dataclasses.replace(s, **change)


def test_scenario_shares_the_log_abs_model_of_its_f(monkeypatch):
    # one model of log|f| per f: the scenario's U is it, and rebuilding the
    # scenario (the CLI's tolerance override) builds no other
    s = generate_scenario(42, 5, "segment")
    assert s.U is s.f.to_delta_subharmonic()
    built = []
    monkeypatch.setattr(DeltaSubharmonicFn, "__post_init__", lambda self: built.append(self))
    t = dataclasses.replace(s, tolerances=Tolerances(mean=1e-6))
    assert t.U is s.U and built == []


def _ref_disk_integral(U, comp, tol):
    """The disk branch of lab._ball_integral before it reused samples: every
    level evaluates the whole radius x angle grid afresh."""
    c = np.asarray(comp.center)
    rho = comp.radius
    breaks = sorted({float(_distances(p, c)) for p in lab._split(U).points
                     if 0.0 < float(_distances(p, c)) < rho})
    edges = [0.0] + breaks + [rho]
    prev = None
    diff = math.inf
    nodes = 0
    n_r, n_a = 8, 128
    for _level in range(7):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo <= 1e-15 * rho:
                continue
            x, w = np.polynomial.legendre.leggauss(min(n_r, 48))
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            qs, qw = mid + half * x, half * w
            theta = 2.0 * math.pi * np.arange(n_a) / n_a
            Q, TH = np.meshgrid(qs, theta, indexing="ij")
            pts = np.column_stack([c[0] + (Q * np.cos(TH)).ravel(),
                                   c[1] + (Q * np.sin(TH)).ravel()])
            vals = U.positive_values(pts).reshape(len(qs), n_a)
            vals = np.where(np.isfinite(vals), vals, 0.0)
            shell = vals.mean(axis=1)
            total += float(_dots(qw, 2.0 * qs / (rho * rho) * shell))
            nodes += pts.shape[0]
        if prev is not None:
            diff = abs(total - prev)
            if diff <= tol / max(comp.weight, 1e-300):
                return comp.weight * total, comp.weight * diff, nodes
        prev = total
        n_r *= 2
        n_a *= 2
    return comp.weight * prev, comp.weight * diff, nodes


def test_ball_integral_reuses_samples_bit_for_bit():
    # U^+ kinks across the disk, so the doubling runs to level 6; from level
    # 4 on the radial rule is capped at 48 nodes and only odd angles are new
    U = MeromorphicFn(((0.3 + 0.1j, 1),), ((-0.2 + 0j, 1),), 1.4).to_delta_subharmonic()
    disk = UniformBall((0.1, 0.0), 0.8, 1.0)
    value, err, ref_nodes = _ref_disk_integral(U, disk, 1e-7)
    got = lab._ball_integral(U, disk, 1e-7)
    assert (got.value, got.error_estimate) == (value, err)
    assert ref_nodes == 2_276_352  # levels 0-6 on three radial panels
    assert got.nodes_used == 1_244_160


def test_ball_integral_keeps_only_the_previous_levels_rows():
    # the case above runs to level 6, which reads the level-5 rows of its
    # three panels: 3 x 48 x 4,096 x 8 B = 4.7 MB.  Level 5 holds those and
    # one panel's level-4 rows (0.8 MB) at its peak, and a block of at most
    # _BLOCK points adds well under 1 MB
    U = MeromorphicFn(((0.3 + 0.1j, 1),), ((-0.2 + 0j, 1),), 1.4).to_delta_subharmonic()
    disk = UniformBall((0.1, 0.0), 0.8, 1.0)
    lab._ball_integral(U, disk, 1e-7)  # first-use caches are not the rule's
    tracemalloc.start()
    try:
        got = lab._ball_integral(U, disk, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nodes_used == 1_244_160
    assert peak < 8e6


def _assert_block_size_free(monkeypatch, U, ball, tol, nodes, blocks):
    want = lab._ball_integral(U, ball, tol)
    assert want.nodes_used == nodes
    for block in blocks:
        monkeypatch.setattr(potentials, "_BLOCK", block)
        got = lab._ball_integral(U, ball, tol)
        assert (got.value, got.error_estimate, got.nodes_used) == \
            (want.value, want.error_estimate, want.nodes_used), block


@pytest.mark.parametrize("d, blocks", [(2, (1, 7)), (3, (7,))])
def test_ball_integral_does_not_depend_on_the_block_size(monkeypatch, d, blocks):
    # a block of rows holds at most _BLOCK points and at least one row, and a
    # point's U^+ is the same floats in any block: _BLOCK = 1 and 7 give
    # one-row blocks, which values_with_polar splits again.  U > 0 on the
    # ball, so the rule stops after two levels: 5,120 nodes in d = 2 and
    # 245,760 in d = 3, where one point per block would take 20 s
    if d == 2:
        U = MeromorphicFn(((1.5 + 0.2j, 1),), ((-1.4 + 0j, 1),), 4.0).to_delta_subharmonic()
        ball = UniformBall((0.1, 0.0), 0.5, 1.0)
    else:
        u = SubharmonicFn(AffineHarmonic(0.8, (0.1, -0.05, 0.2)),
                          BorelMeasure((Atom((1.5, 0.3, -0.2), 0.6),), 3))
        v = SubharmonicFn(None, BorelMeasure((Atom((-1.7, 0.2, 0.5), 0.4),), 3))
        U, ball = DeltaSubharmonicFn(u, v), UniformBall((0.1, 0.0, 0.0), 0.5, 1.0)
    _assert_block_size_free(monkeypatch, U, ball, 1e-6, 5_120 if d == 2 else 245_760, blocks)


def test_ball_integral_reuse_level_does_not_depend_on_the_block_size(monkeypatch):
    # U^+ kinks across the disk, so the rule runs to level 4, whose even
    # angles are level 3's rows: one-row blocks at _BLOCK = 7, and at 5,200
    # blocks of five rows at levels 3 and 4, the last of three
    U = MeromorphicFn(((0.9 + 0.1j, 1),), ((-0.9 + 0j, 1),), 1.0).to_delta_subharmonic()
    _assert_block_size_free(monkeypatch, U, UniformBall((0.0, 0.0), 0.5, 1.0), 3e-7, 119_808,
                            (7, 5200))


@pytest.mark.xfail(strict=True,
                   reason="known defect (ROADMAP item 12): the ball rule returns its last "
                          "change at its level cap, neither raising nor meeting tol")
def test_ball_rule_at_its_level_cap_raises_or_meets_its_tolerance():
    # s0154-disk of seed 42 is one ball; today all 7 levels (414,720 nodes)
    # end at an estimate of 2.44e-8 against tol 1e-8, and the call returns it
    s = generate_scenario(42, 154, "disk")
    tol = s.tolerances.mean
    try:
        res = positive_part_integral(s.U, s.mu, tol)
    except QuadratureBudgetError:
        return
    assert res.error_estimate <= tol


# -- the per-point proof checks, kept as the bit-identity reference -----------
# verify_poisson_jensen and verify_pointwise_bound evaluate U and the charge
# potentials at all sample points in one call each and share U's boundary
# values between points; these are the one-point-at-a-time loops they
# replaced, which they must equal in every PointReport field.


def _value_at(U, x):
    """U at the one point x, or None where values_with_polar marks it polar."""
    vals, polar = U.values_with_polar(x[None, :])
    return None if polar[0] else float(vals[0])


def _ref_reflected_potential(nu, x, R, d):
    mass = nu.mass
    if mass == 0.0:
        return 0.0
    q = float(_distances(x, 0.0))
    if q == 0.0:
        return mass * float(kernel(d, R))
    x_star = (R * R / (q * q)) * x
    pot = float(potential_values(nu, x_star[None, :])[0])
    if d == 2:
        return mass * math.log(q / R) + pot
    return (R / q) * pot


def _ref_poisson_jensen(U, R, sample_points, tol):
    d = U.dim
    points, residuals, relative, skipped = [], [], [], []
    plus, minus = jordan_decomposition(U)
    for raw in sample_points:
        x = np.asarray(raw, dtype=float)
        lhs = _value_at(U, x)
        if lhs is None or not math.isfinite(lhs):
            skipped.append(tuple(x))
            continue
        q2 = float(_dots(x, x))

        def poisson(y):
            dist2 = ((y - x[None, :]) ** 2).sum(axis=1)
            vals, polar = U.values_with_polar(y)
            kern = ((R * R - q2) / dist2 if d == 2
                    else R * (R * R - q2) / np.sqrt(dist2) ** 3)
            return np.where(polar, np.nan, kern * vals)

        boundary = _sphere_mean(poisson, R, d, tol)
        green = 0.0
        for nu, sign in ((plus, 1.0), (minus, -1.0)):
            if nu.mass == 0.0:
                continue
            refl = _ref_reflected_potential(nu, x, R, d)
            direct = float(potential_values(nu, x[None, :])[0])
            green -= sign * (refl - direct)
        res = lhs - (boundary.value + green)
        points.append(tuple(x))
        residuals.append(res)
        relative.append(abs(res) / max(1.0, abs(lhs)))
    max_rel = max(relative, default=0.0)
    return lab.PointReport(points, residuals, skipped, max_rel,
                           "pass" if max_rel < 1e-6 else "fail", 1e-6 - max_rel)


def _ref_pointwise_bound(U, r, R, sample_points, tol):
    d = U.dim
    _plus, minus = jordan_decomposition(U)
    c_plus = lab.spherical_mean(U, R, "positive", tol)
    coeff = R ** (d - 2) * (R + r) / (R - r) ** (d - 1)
    k_Rr = float(kernel(d, R + r))
    points, slacks, relative, skipped = [], [], [], []
    for raw in sample_points:
        x = np.asarray(raw, dtype=float)
        lhs = _value_at(U, x)
        if lhs is None or not math.isfinite(lhs):
            skipped.append(tuple(x))
            continue
        charge_term = k_Rr * minus.mass - float(potential_values(minus, x[None, :])[0])
        rhs = coeff * c_plus.value + charge_term
        slack = rhs - max(lhs, 0.0)
        points.append(tuple(x))
        slacks.append(slack)
        relative.append(slack / max(1.0, abs(rhs)))
    budget = coeff * c_plus.error_estimate
    worst = min(slacks, default=0.0)
    return lab.PointReport(points, slacks, skipped,
                           max((abs(v) for v in relative), default=0.0),
                           lab._verdict(worst, budget), worst, budget)


def _proof_case(name):
    """(U, r, R, sample points): 18 random points of B(r), the origin (the
    q = 0 reflected branch) and a charge atom (skipped)."""
    if name == "charges":
        s = generate_scenario(42, 4, "charges")
    else:
        from test_cli import PIN_3D
        s = parse_scenario(json.dumps(PIN_3D).encode())
    rng = random.Random(f"points:{name}")
    pts = [lab._point_in_ball(rng, s.r, s.U.dim) for _ in range(18)]
    pts += [(0.0,) * s.U.dim, s.U.u.riesz.atoms[0].point]
    return s.U, s.r, s.R, pts


@pytest.mark.parametrize("name", ["charges", "pin-3d"])
def test_batched_proof_checks_equal_per_point_loops(name):
    U, r, R, pts = _proof_case(name)
    got = verify_poisson_jensen(U, R, pts, 1e-8)
    assert got == _ref_poisson_jensen(U, R, pts, 1e-8)
    assert got.points[-1] == (0.0,) * U.dim
    assert got.skipped == [tuple(float(c) for c in pts[-1])]
    bound = verify_pointwise_bound(U, r, R, pts, 1e-8)
    assert bound == _ref_pointwise_bound(U, r, R, pts, 1e-8)
    assert bound.skipped == got.skipped


def test_poisson_jensen_calls_the_boundary_integrand_once_per_level(monkeypatch):
    s = generate_scenario(42, 1, "charges")
    rng = random.Random(7)
    pts = [lab._point_in_ball(rng, s.r, 2) for _ in range(20)]
    ref = _ref_poisson_jensen(s.U, s.R, pts, 1e-8)
    on_sphere = characteristics._on_sphere
    angles, shapes, u_calls = [], [], []

    def counted_on_sphere(values, r, dim):
        g = on_sphere(values, r, dim)

        def counted(theta):
            angles.append(theta.size)
            out = g(theta)
            shapes.append(np.shape(out))
            return out
        return counted

    original = DeltaSubharmonicFn.values_with_polar

    def counted_values(self, y):
        u_calls.append(len(y))
        return original(self, y)

    monkeypatch.setattr(characteristics, "_on_sphere", counted_on_sphere)
    monkeypatch.setattr(DeltaSubharmonicFn, "values_with_polar", counted_values)
    assert verify_poisson_jensen(s.U, s.R, pts, 1e-8) == ref
    # one call per doubling level of the trapezoid (64 nodes, then the
    # 64, 128, ... new ones), each for all 20 points; not one per point
    assert angles == [64] + [64 * 2 ** k for k in range(len(angles) - 1)]
    assert 2 <= len(angles) <= 4
    assert shapes == [(20, n) for n in angles]
    # U at the sample points, then once on each level's boundary nodes
    assert u_calls == [20] + angles
