import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from deltasubh import characteristics, potentials, quadrature
from deltasubh.geometry import _dots
from deltasubh.quadrature import (
    QuadratureBudgetError,
    circle_mean,
    integrate_interval,
    sphere_mean_3d,
    sphere_sup,
)
from deltasubh.scenario_io import parse_scenario


def test_smooth_interval():
    res = integrate_interval(lambda t: 1.0 / t, 1.0, 2.0, (), tol=1e-10)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-10)


def test_doubling_stability():
    # rerunning at half the tolerance moves the value by less than the
    # reported error estimate
    def f(t):
        return np.exp(-t) * np.sin(3.0 * t)

    res = integrate_interval(f, 0.0, 4.0, (), tol=1e-7)
    res2 = integrate_interval(f, 0.0, 4.0, (), tol=5e-8)
    assert abs(res.value - res2.value) <= max(res.error_estimate, 1e-14)


@pytest.mark.parametrize("s, tol", [
    (0.0, 1e-10),  # at an end of [0, 1]
    (0.5, 1e-8),   # at a piece end inside it
])
def test_a_non_integrable_piece_end_raises(s, tol):
    def nasty(t):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(t - s)  # non-integrable at s

    with pytest.raises(QuadratureBudgetError):
        integrate_interval(nasty, 0.0, 1.0, [s], tol=tol)


def test_a_non_integrable_singular_point_raises_at_the_floor():
    # 1/|t| on [-1, 1]: the panels next to 0 change by about ln 2 at every
    # level, so refinement reaches its width floor still above tolerance
    def f(t):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(t)

    for ends in ([0.0], ()):
        with pytest.raises(QuadratureBudgetError, match="resolution floor"):
            integrate_interval(f, -1.0, 1.0, ends, 1e-8)


def test_nudge_log_counts_only_the_non_finite_nodes(caplog):
    # inf at exactly one node of the first GL15 panel on [-1, 1]
    node = float(np.polynomial.legendre.leggauss(15)[0][3])

    def f(t):
        return np.where(t == node, np.inf, 1.0)

    with caplog.at_level(logging.DEBUG, logger="deltasubh.quadrature"):
        res = integrate_interval(f, -1.0, 1.0, (), tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    nudges = [rec.getMessage() for rec in caplog.records
              if rec.getMessage().startswith("perturbed")]
    assert nudges == ["perturbed 1 quadrature nodes off a singular point"]


def test_nudge_gives_up_where_the_moved_nodes_stay_non_finite():
    # NaN everywhere: no offset of the nodes finds a finite value
    def f(t):
        return np.full(np.shape(t), np.nan)

    with pytest.raises(QuadratureBudgetError, match="non-finite at nudged nodes"):
        integrate_interval(f, 0.0, 1.0, (), tol=1e-8)


def test_circle_mean_of_a_jump_raises_at_the_trapezoid_cap():
    # theta itself on [0, 2 pi): one jump, at 0, where the trapezoid's error
    # is pi / n and halves with each doubling, so it never settles below
    # tol before _MAX_TRAP nodes.  An indicator of an arc does not serve: two
    # levels can count the same nodes inside it and agree exactly
    with pytest.raises(QuadratureBudgetError, match="periodic trapezoid did not converge"):
        circle_mean(lambda theta: theta, tol=1e-12)


@pytest.mark.xfail(strict=True,
                   reason="known defect (ROADMAP item 12): two doubling levels count the same "
                          "nodes inside the arc, so the stop rule sees a change of 0")
def test_circle_mean_of_an_arc_indicator_raises_or_meets_its_estimate():
    # the indicator of theta < 1 has mean 1 / (2 pi); today circle_mean
    # returns 0.16015625 with an estimate of 5.7e-16
    try:
        res = circle_mean(lambda theta: (theta < 1.0).astype(float), 1e-12)
    except QuadratureBudgetError:
        return
    assert abs(res.value - 1.0 / (2.0 * math.pi)) <= res.error_estimate


def test_circle_mean_constant():
    res = circle_mean(lambda th: np.full_like(th, 2.5), tol=1e-12)
    assert res.value == pytest.approx(2.5, abs=1e-13)


def test_circle_mean_trig_polynomial_exact():
    # periodic trapezoid integrates low-degree trig polynomials exactly
    def g(th):
        return 1.0 + np.cos(th) - 2.0 * np.sin(3 * th) + 0.5 * np.cos(7 * th)

    res = circle_mean(g, tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_circle_mean_jensen_random():
    # mean of ln|r e^{i theta} - a| over the circle is ln max(r, |a|)
    rng = random.Random(20210525)
    for _ in range(50):
        r = rng.uniform(0.2, 5.0)
        rho = rng.uniform(0.0, 2.0) * r
        if abs(rho - r) < 0.05 * r:
            rho = 1.1 * r + rho * 0.1  # keep clear of the circle itself
        phi = rng.uniform(0, 2 * math.pi)
        a = rho * complex(math.cos(phi), math.sin(phi))

        def g(th):
            return np.log(np.abs(r * np.exp(1j * th) - a))

        res = circle_mean(g, tol=1e-10)
        assert res.value == pytest.approx(math.log(max(r, abs(a))), abs=1e-8)


def test_circle_mean_positive_log_pole():
    # ln^+ |2 e^{i theta}| = ln 2 everywhere
    res = circle_mean(lambda th: np.maximum(np.log(2.0) + 0.0 * th, 0.0), 1e-12)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-13)


def test_sphere_mean_constant():
    res = sphere_mean_3d(lambda th, ph: np.ones_like(th), tol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_sphere_mean_newtonian():
    # mean of -1/|x - a| over the sphere of radius r is -1/max(r, |a|)
    rng = random.Random(3)
    r = 1.0
    for _ in range(10):
        rho = rng.choice([rng.uniform(0.0, 0.8), rng.uniform(1.3, 3.0)])
        direction = np.array([rng.gauss(0, 1) for _ in range(3)])
        direction /= np.linalg.norm(direction)
        a = rho * direction

        def g(th, ph):
            st = np.sin(th)
            pts = np.column_stack([r * st * np.cos(ph), r * st * np.sin(ph),
                                   r * np.cos(th)])
            return -1.0 / np.linalg.norm(pts - a, axis=1)

        res = sphere_mean_3d(g, tol=1e-10)
        assert res.value == pytest.approx(-1.0 / max(r, rho), abs=1e-8)


def test_sphere_mean_odd_function():
    res = sphere_mean_3d(lambda th, ph: np.cos(th), tol=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_sphere_mean_reports_last_change_when_levels_run_out():
    # the cap theta < 1 has mean (1 - cos 1) / 2; its rim keeps every level
    # from converging to 1e-12, so the estimate is the last doubling change
    def g(th, ph):
        return (th < 1.0).astype(float)

    def level_mean(n):
        u, w = quadrature._leggauss(n)
        phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
        U, PHI = np.meshgrid(u, phi, indexing="ij")
        vals = g(np.arccos(U.ravel()), PHI.ravel())
        return 0.5 * float(_dots(vals.reshape(n, 2 * n).mean(axis=1), w))

    res = sphere_mean_3d(g, tol=1e-12)
    assert res.value == level_mean(1024)
    assert res.value == pytest.approx((1.0 - math.cos(1.0)) / 2.0, abs=1e-3)
    assert res.error_estimate > 0.0
    assert res.error_estimate == abs(level_mean(1024) - level_mean(512))


def _rows(*gs):
    """The batched integrand whose rows are the one-row integrands gs."""
    return lambda *angles: np.vstack([g(*angles) for g in gs])


def _assert_rows_equal_one_row_calls(batched, one_row, gs, tol):
    got = batched(_rows(*gs), tol)
    ref = [one_row(g, tol) for g in gs]
    assert [(r.value, r.error_estimate, r.nodes_used) for r in got] == \
        [(r.value, r.error_estimate, r.nodes_used) for r in ref]
    return got


def _smooth_row(th):
    return 1.0 + np.cos(th) - 2.0 * np.sin(3 * th)


def _log_pole_row(th):
    # ln |e^{i theta} - 1.05|: analytic, but slow to converge this close
    return np.log(np.abs(np.exp(1j * th) - 1.05))


def test_batched_circle_rows_stop_at_their_own_levels():
    got = _assert_rows_equal_one_row_calls(quadrature._circle_means, circle_mean,
                                           [_smooth_row, _log_pole_row, _smooth_row], 1e-10)
    assert got[0].nodes_used == got[2].nodes_used < got[1].nodes_used


def test_batched_circle_nudges_a_column_non_finite_in_one_row_only(caplog):
    # theta = 0 is a node of the first level; only the second row is inf there
    def pole_at_zero(th):
        return np.where(th == 0.0, np.inf, np.cos(th) ** 2)

    with caplog.at_level(logging.DEBUG, logger="deltasubh.quadrature"):
        got = _assert_rows_equal_one_row_calls(quadrature._circle_means, circle_mean,
                                               [_log_pole_row, pole_at_zero], 1e-10)
    assert got[1].value == pytest.approx(0.5, abs=1e-12)
    nudges = [rec.getMessage() for rec in caplog.records
              if rec.getMessage().startswith("perturbed")]
    # once in the batch, once in the one-row call of pole_at_zero
    assert nudges == ["perturbed 1 quadrature nodes off a singular point"] * 2


def _newtonian_row(a):
    def g(th, ph):
        st = np.sin(th)
        pts = np.column_stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)])
        return -1.0 / np.linalg.norm(pts - np.asarray(a), axis=1)
    return g


def _cap_row(th, ph):
    # the cap theta < 1: its rim keeps every level from converging to 1e-12
    return (th < 1.0).astype(float)


def test_batched_sphere_rows_stop_at_their_own_levels_or_run_out():
    smooth = lambda th, ph: np.cos(th) ** 2
    near = _newtonian_row((0.0, 0.0, 1.2))
    got = _assert_rows_equal_one_row_calls(quadrature._sphere_means_3d, sphere_mean_3d,
                                           [smooth, near, _cap_row], 1e-12)
    assert got[0].nodes_used < got[1].nodes_used < got[2].nodes_used
    assert got[0].value == pytest.approx(1.0 / 3.0, abs=1e-14)
    # the cap ran out of levels: its estimate is the last doubling change
    assert got[2].error_estimate > 1e-12


def test_batched_sphere_nudges_a_column_non_finite_in_one_row_only(caplog):
    # (theta_0, 0) is a node of the first level; only the first row is inf there
    theta0 = float(np.arccos(quadrature._leggauss(8)[0][0]))

    def pole(th, ph):
        return np.where((th == theta0) & (ph == 0.0), np.inf, np.cos(th) ** 2)

    with caplog.at_level(logging.DEBUG, logger="deltasubh.quadrature"):
        got = _assert_rows_equal_one_row_calls(quadrature._sphere_means_3d, sphere_mean_3d,
                                               [pole, _newtonian_row((0.3, 0.0, 1.2))], 1e-10)
    assert got[0].value == pytest.approx(1.0 / 3.0, abs=1e-12)
    nudges = [rec.getMessage() for rec in caplog.records
              if rec.getMessage().startswith("perturbed")]
    assert nudges == ["perturbed 1 quadrature nodes off a singular point"] * 2


def _whole_grid_sphere_means(G, tol):
    """_sphere_means_3d with each level one call of G on its whole (n x 2n)
    grid: the reference its blocks of circles must equal float for float."""
    active = slice(None)
    total = 0
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        u, w = quadrature._leggauss(n)
        phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
        cos, phis = (grid.ravel() for grid in np.meshgrid(u, phi, indexing="ij"))
        vals = quadrature._rows(lambda c: G(np.arccos(c), phis), cos, active, 1.0)
        if total == 0:
            m = len(vals)
            active, prev, diff, nodes = list(range(m)), [math.inf] * m, [math.inf] * m, [0] * m
        total += vals.shape[1]
        means = (0.5 * _dots(vals.reshape(-1, n, 2 * n).mean(axis=2), w)).tolist()
        still = []
        for i in active:
            diff[i] = abs(means[i] - prev[i])
            prev[i], nodes[i] = means[i], total
            if not diff[i] <= tol:
                still.append(i)
        active = still
        if not active:
            break
    return quadrature._results(prev, diff, nodes)


def _nudged_nodes(records) -> int:
    return sum(int(rec.getMessage().split()[1]) for rec in records
               if rec.getMessage().startswith("perturbed"))


@pytest.mark.parametrize("block", [1, 7, 8192])
def test_sphere_block_means_equal_the_whole_grid(monkeypatch, caplog, block):
    # blocks of one circle, of 7 nodes (still one circle) and of _BLOCK: the
    # same values, estimates, node counts and nudged nodes as the whole grid,
    # for rows that stop at their own levels, run out of levels, or have a
    # pole at a node of the first level (a circle of 16 nodes, so a block of
    # its own below _BLOCK = 16)
    theta0 = float(np.arccos(quadrature._leggauss(8)[0][2]))

    def pole(th, ph):
        return np.where((th == theta0) & (ph == 0.0), -np.inf, np.cos(th) ** 2)

    G = _rows(pole, _newtonian_row((0.3, 0.0, 1.2)), _cap_row)
    with caplog.at_level(logging.DEBUG, logger="deltasubh.quadrature"):
        want = _whole_grid_sphere_means(G, 1e-12)
        whole = _nudged_nodes(caplog.records)
        caplog.clear()
        monkeypatch.setattr(potentials, "_BLOCK", block)
        got = quadrature._sphere_means_3d(G, 1e-12)
        assert _nudged_nodes(caplog.records) == whole == 1
    assert [(r.value, r.error_estimate, r.nodes_used) for r in got] == \
        [(r.value, r.error_estimate, r.nodes_used) for r in want]
    assert got[2].nodes_used == sum(2 * n * n for n in (8, 16, 32, 64, 128, 256, 512, 1024))


def test_sphere_block_mean_of_the_3d_positive_part_equals_the_whole_grid():
    # PIN_3D's C_{U^+}(r), through U's own evaluator, at a tolerance that
    # reaches levels of many blocks
    from test_cli import PIN_3D
    U = parse_scenario(PIN_3D).U
    for r in (1.0, 3.0):
        g = characteristics._on_sphere(U.positive_values, r, 3)
        want = _whole_grid_sphere_means(lambda th, ph: g(th, ph).reshape(1, -1), 1e-6)[0]
        got = characteristics.spherical_mean(U, r, "positive", 1e-6)
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)
        assert want.nodes_used > 2 * 128 * 128  # a level of more than one block


def test_sphere_block_peak_memory_of_the_3d_positive_mean():
    # PIN_3D's C_{U^+}(1) and C_{U^+}(3) at tol 1e-8 reach n = 1024, whose
    # whole grid of 2,097,152 nodes traced a 172 MB peak; a block of circles
    # holds at most _BLOCK nodes (a cold cache of the GL rule of order 1024
    # adds its 8 MB companion matrix once)
    from test_cli import PIN_3D
    U = parse_scenario(PIN_3D).U
    for r in (1.0, 3.0):
        tracemalloc.start()
        try:
            characteristics.spherical_mean(U, r, "positive", 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, r


@pytest.mark.parametrize("batched, one_row, g", [
    (quadrature._circle_means, circle_mean, _log_pole_row),
    (quadrature._sphere_means_3d, sphere_mean_3d, _newtonian_row((0.3, 0.0, 1.2))),
])
def test_batched_rule_of_one_row(batched, one_row, g):
    _assert_rows_equal_one_row_calls(batched, one_row, [g], 1e-10)


def test_every_engine_reports_at_least_the_rounding_floor():
    # on integrands the rules integrate exactly, two levels agree bit for
    # bit; the estimate is then the rounding floor 16 eps |value|, not 0
    from deltasubh.lab import _ball_integral
    from deltasubh.measures import UniformBall
    from deltasubh.potentials import MeromorphicFn

    floor = 16.0 * np.finfo(float).eps
    results = [
        integrate_interval(lambda t: 3.0 * t * t, 0.0, 2.0, (), 1e-10),
        circle_mean(lambda th: np.full_like(th, 2.5), 1e-12),
        sphere_mean_3d(lambda th, ph: np.ones_like(th), 1e-12),
        _ball_integral(MeromorphicFn((), (), 3.0, ()).to_delta_subharmonic(),
                       UniformBall((0.1, 0.2), 0.5, 2.0), 1e-10),
    ]
    for res, value in zip(results, (8.0, 2.5, 1.0, 2.0 * math.log(3.0))):
        assert res.value == pytest.approx(value, rel=1e-13)
        assert res.error_estimate >= floor * abs(res.value) > 0.0


def test_sphere_sup_2d_anchors():
    # max over theta of |2 e^{i theta} - 1| is 3 at theta = pi
    def g(th):
        return np.log(np.abs(2.0 * np.exp(1j * th) - 1.0))

    assert sphere_sup(g, 1e-9, dim=2) == pytest.approx(math.log(3.0), abs=1e-8)
    assert sphere_sup(lambda th: np.full_like(th, 4.2), dim=2) == pytest.approx(4.2)
    assert sphere_sup(np.cos, 1e-10, dim=2) == pytest.approx(1.0, abs=1e-9)


def test_sphere_sup_never_above_true_sup():
    # the reported value is a refined lower bound of the true sup
    def g(th):
        return np.sin(5 * th) + 0.3 * np.cos(2 * th)

    val = sphere_sup(g, 1e-10, dim=2)
    dense = float(np.max(g(np.linspace(0, 2 * math.pi, 2_000_001))))
    assert val <= dense + 1e-9
    assert val >= dense - 1e-7


def test_sphere_sup_refinement_only_improves():
    # the refined value is never below the raw dense-grid maximum
    def g(th):
        return np.sin(7.3 * th + 0.4) + 0.2 * np.cos(2.0 * th)

    n = 4096
    raw = float(np.max(g(2 * math.pi * np.arange(n) / n)))
    assert sphere_sup(g, 1e-9, dim=2) >= raw - 1e-15


def test_sphere_sup_3d():
    def g(th, ph):
        return np.cos(th) + 0.5 * np.sin(th) * np.cos(ph)

    # max of cos t + 0.5 sin t cos p is sqrt(1 + 0.25) at cos p = 1
    assert sphere_sup(g, 1e-9, dim=3) == pytest.approx(math.sqrt(1.25), abs=1e-7)


def test_sphere_sup_bad_dim():
    with pytest.raises(ValueError):
        sphere_sup(lambda th: th, dim=4)


# -- the sequential depth-first engine, kept as the bit-identity reference ----
# integrate_interval runs the adaptive rules of all its pieces in lockstep,
# one integrand call per refinement round; these are the one-panel-per-call
# recursion and the one-piece-after-another loop it replaced, which it must
# equal float for float (value, error estimate and nodes), or raise the same
# error.  A child panel's coarse rule is its parent's half-panel sum, the
# same floats as a fresh GL15 sum over it.


def _ref_eval_safe(f, x, scale):
    y = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(y)
    if not bad.any():
        return y
    for step in (1e-13, -1e-13, 1e-11, -1e-11):
        xs = np.where(bad, x + step * max(scale, abs(float(np.max(np.abs(x)))), 1.0), x)
        y = np.where(bad, np.asarray(f(xs), dtype=float), y)
        bad = ~np.isfinite(y)
        if not bad.any():
            return y
    raise QuadratureBudgetError("non-finite at nudged nodes")


def _ref_gl_panel(f, a, b, scale, n=15):
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _ref_eval_safe(f, mid + half * x, scale)
    return half * float(_dots(y, w))


class _RefNodes:
    """The reference's node count, against the engine's budget."""

    def __init__(self):
        self.nodes = 0

    def spend(self, n):
        self.nodes += n
        if self.nodes > quadrature._MAX_NODES:
            raise QuadratureBudgetError(f"node budget {quadrature._MAX_NODES} exhausted")


def _ref_adaptive(f, a, b, tol, scale, budget, coarse=None, depth=0):
    if coarse is None:
        budget.spend(15)
        coarse = _ref_gl_panel(f, a, b, scale)
    mid = 0.5 * (a + b)
    budget.spend(30)
    left, right = _ref_gl_panel(f, a, mid, scale), _ref_gl_panel(f, mid, b, scale)
    fine = left + right
    err = abs(fine - coarse)
    if err <= tol:
        return fine, err
    if (b - a) <= 1e-14 * scale or depth >= 48:
        raise QuadratureBudgetError(
            f"panel [{a!r}, {b!r}] at the resolution floor still changes by {err:.3g} > {tol:.3g}")
    lv, le = _ref_adaptive(f, a, mid, 0.5 * tol, scale, budget, left, depth + 1)
    rv, re_ = _ref_adaptive(f, mid, b, 0.5 * tol, scale, budget, right, depth + 1)
    return lv + rv, le + re_


def _reference_integral(f, a, b, ends=(), tol=1e-8):
    scale = max(abs(a), abs(b), b - a)
    pts = sorted({a, b} | {float(s) for s in ends if a < s < b})
    budget = _RefNodes()
    total = 0.0
    err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo <= 1e-14 * scale:
            continue
        v, e = _ref_adaptive(f, lo, hi, tol / (len(pts) - 1), scale, budget)
        total += v
        err += e
    err = max(err, 16.0 * np.finfo(float).eps * abs(total))  # the rounding floor
    return quadrature.QuadratureResult(total, err, budget.nodes)


def _outcome(run):
    """(value, error estimate, nodes), or the error raised: which panel
    failed, by how much."""
    try:
        res = run()
    except QuadratureBudgetError as exc:
        return str(exc)
    return res.value, res.error_estimate, res.nodes_used


def _assert_same(got, ref):
    assert got.value == ref.value
    assert got.error_estimate == ref.error_estimate
    assert got.nodes_used == ref.nodes_used


def _kinked(t):
    return np.abs(np.sin(3.0 * t)) + np.maximum(t - 0.3, 0.0)


def _peaked(t):
    return 1.0 / (1e-6 + (t - 1.0 / 3.0) ** 2) + np.sqrt(np.abs(t - 0.7))


# six interior points where the derivative has a log singularity, as piece
# ends: 7 pieces in lockstep, each converging at its ends
_SIX = (0.11, 0.23, 0.4, 0.52, 0.7, 0.86)


def _six_logs(t):
    return sum((t - s) * np.log(np.abs(t - s)) for s in _SIX)


_KINKS = tuple(k * math.pi / 8.0 for k in range(1, 8))


def _log_by_kinks(t):
    # a log singularity at 1.2 between the kinks of |sin 8t| at 3 pi / 8
    # and pi / 2
    with np.errstate(divide="ignore"):
        return np.log(np.abs(t - 1.2)) + np.abs(np.sin(8.0 * t))


def _kinks(t):
    # kinked at the seven _KINKS inside [0, 3]
    return np.abs(np.sin(8.0 * t)) + np.sqrt(t + 1.0)


@pytest.mark.parametrize("f, a, b, sings, tol", [
    (lambda t: np.exp(-t) * np.sin(3.0 * t), 0.0, 4.0, (), 1e-10),  # smooth
    (_kinked, -1.0, 2.0, (), 1e-9),                                # undeclared kinks
    (np.log, 0.0, 1.0, [0.0], 1e-9),                               # log at an end: raises
    (_peaked, 0.0, 1.0, (), 1e-7),                                 # deep refinement
    (_six_logs, 0.0, 1.0, _SIX, 1e-9),                             # x ln|x| at piece ends
    (_log_by_kinks, 0.0, 3.0, (1.2,) + _KINKS, 1e-9),              # raises in piece 4
    (_kinks, 0.0, 3.0, _KINKS, 1e-10),                             # 8 pieces in lockstep
    (_kinked, -1.0, 2.0, (math.pi / 3, 0.3, 0.0), 1e-9),           # declared kinks
])
def test_batched_adaptive_equals_depth_first_bit_for_bit(f, a, b, sings, tol):
    assert _outcome(lambda: integrate_interval(f, a, b, sings, tol)) == \
        _outcome(lambda: _reference_integral(f, a, b, sings, tol))


def test_lockstep_pieces_share_integrand_calls():
    calls = {"got": 0, "ref": 0}

    def counted(key):
        def f(t):
            calls[key] += 1
            return _kinks(t)
        return f

    got = integrate_interval(counted("got"), 0.0, 3.0, _KINKS, 1e-10)
    ref = _reference_integral(counted("ref"), 0.0, 3.0, _KINKS, 1e-10)
    _assert_same(got, ref)
    assert calls["got"] < calls["ref"] / 10
    # every round evaluates at least the open panels of the deepest piece
    assert got.nodes_used > 15 * calls["got"]


def test_batched_adaptive_refines_deeply_in_few_calls():
    calls = []

    def f(t):
        calls.append(t.size)
        return _peaked(t)

    res = integrate_interval(f, 0.0, 1.0, (), 1e-7)
    assert res.nodes_used == sum(calls)
    assert len(calls) <= 49  # one call per refinement level
    assert res.nodes_used > 45 * len(calls)  # not one panel per call


def _inf_at(node, g):
    def f(t):
        with np.errstate(divide="ignore"):
            return np.where(t == node, np.inf, g(t))
    return f


def _assert_one_nudge(caplog):
    nudges = [rec.getMessage() for rec in caplog.records
              if rec.getMessage().startswith("perturbed")]
    assert nudges == ["perturbed 1 quadrature nodes off a singular point"]


def test_nudge_inside_a_batch_equals_depth_first(caplog):
    # |t| splits [-1, 1] once; at depth 1 the halves of [-1, 0] and [0, 1]
    # share one call, and the integrand is inf at one node of [-1, -0.5]
    x = np.polynomial.legendre.leggauss(15)[0]
    f = _inf_at(float(-0.75 + 0.25 * x[3]), lambda t: np.abs(t) + t * t)
    ref = _reference_integral(f, -1.0, 1.0, (), 1e-10)
    with caplog.at_level(logging.DEBUG, logger="deltasubh.quadrature"):
        got = integrate_interval(f, -1.0, 1.0, (), 1e-10)
    _assert_same(got, ref)
    _assert_one_nudge(caplog)


@pytest.mark.parametrize("pieces", [
    [],                                                # a sign class with no pieces
    [(0.0, 1e-15, 1e-8), (0.5, 0.5 + 5e-15, 1e-8)],  # all under the width floor
])
def test_no_pieces_to_integrate_call_no_integrand(pieces):
    def f(t):
        raise AssertionError("f called")

    assert quadrature._integrate_pieces(f, pieces, 1.0) == quadrature.QuadratureResult(0.0, 0.0, 0)


def test_first_failing_segment_in_order_raises():
    # |t|^(-1/4) on [-1, 0] reaches the width floor after 47 halvings; 1/t^2
    # on the piece [0, 1e-6] after 27, as its floor is relative to all of
    # [-1, 1].  In lockstep the later piece fails first, yet the error raised
    # is the first piece's, as when the pieces run one after another.  The
    # panels [-2h, -h] accepted on the way to 0 change by rounding noise of
    # order eps h^(3/4) against a tolerance of order 1e-8 h, so none of them
    # fails above h = 1e-30: the piece fails at its last panel, with every
    # other panel accepted.
    def f(t):
        with np.errstate(divide="ignore"):
            return np.where(t < 0.0, np.abs(t) ** -0.25, 1.0 / (t * t))

    with pytest.raises(QuadratureBudgetError) as ref:
        _reference_integral(f, -1.0, 1.0, [0.0, 1e-6], 1e-8)
    with pytest.raises(QuadratureBudgetError) as got:
        integrate_interval(f, -1.0, 1.0, [0.0, 1e-6], 1e-8)
    assert str(ref.value).startswith("panel [-1.4210854715202004e-14, 0.0] at the resolution")
    assert str(got.value) == str(ref.value)


def test_node_budget_raises_the_depth_first_message(monkeypatch):
    # below the nodes _peaked takes, both orders stop on the budget, not on a panel
    full = integrate_interval(_peaked, 0.0, 1.0, (), 1e-7)
    monkeypatch.setattr(quadrature, "_MAX_NODES", full.nodes_used // 2)
    ref = _outcome(lambda: _reference_integral(_peaked, 0.0, 1.0, (), 1e-7))
    got = _outcome(lambda: integrate_interval(_peaked, 0.0, 1.0, (), 1e-7))
    assert got == ref == f"node budget {full.nodes_used // 2} exhausted"


def test_failure_inside_a_piece_raises_the_depth_first_panel():
    # -1/t sums to the same ln 2 on every panel [-2h, -h], so those panels
    # change by the same rounding noise at every depth while the tolerance
    # halves: within 7e-8 of 0 the last bit of a sum decides whether a panel
    # fails, and the one that does lies inside the piece, in both orders.
    def f(t):
        with np.errstate(divide="ignore"):
            return np.where(t < 0.0, -1.0 / t, 1.0 / (t * t))

    with pytest.raises(QuadratureBudgetError) as ref:
        _reference_integral(f, -1.0, 1.0, [0.0, 1e-6], 1e-8)
    with pytest.raises(QuadratureBudgetError) as got:
        integrate_interval(f, -1.0, 1.0, [0.0, 1e-6], 1e-8)
    assert str(ref.value).startswith(
        "panel [-4.2542069422779605e-08, -4.254205521192489e-08] at the resolution")
    assert str(got.value) == str(ref.value)
