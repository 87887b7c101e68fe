import math
import random
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltasubh import measures
from deltasubh.geometry import _distances
from deltasubh.measures import (
    _lens_area_2d,
    _modulus,
    _modulus_bracket,
    _second_order_cover,
    Atom,
    BorelMeasure,
    UniformArc,
    UniformBall,
    UniformSegment,
    dini_integral_result,
    dini_limits_check,
    integrated_counting_result,
    modulus_of_continuity,
    modulus_profile,
    radial_counting,
)
from deltasubh.quadrature import QuadratureBudgetError

# ---------------------------------------------------------------------------
# radial counting: anchors and closed forms against independent oracles


def test_radial_counting_atom_anchors():
    mu = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
    assert radial_counting(mu, (0.0, 0.0), 0.0) == 1.0  # closed ball holds its center
    two = BorelMeasure((Atom((0.0, 0.0), 1.0), Atom((1.0, 0.0), 1.0)), 2)
    # both atoms at distance exactly 0.5 from (0.5, 0): closed balls include them
    assert radial_counting(two, (0.5, 0.0), 0.5) == 2.0
    assert radial_counting(two, (0.5, 0.0), 0.4999999) == 0.0


def test_radial_counting_rejects_a_negative_radius():
    disk = BorelMeasure((UniformBall((0.0, 0.0), 1.0, 1.0),), 2)
    seg = BorelMeasure((UniformSegment((-1.0, 0.0), (1.0, 0.0), 1.0),), 2)
    # a guard of t < 0 alone would let a nan radius through, to return nan
    for mu in (disk, seg):
        for t in (-0.5, np.array([-0.5, 0.5]), math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                radial_counting(mu, (0.0, 0.0), t)


@pytest.mark.parametrize("make", [
    lambda x: Atom((x, 0.0), 1.0),
    lambda x: Atom((0.0, 0.0), x),
    lambda x: UniformSegment((0.0, 0.0), (1.0, x), 1.0),
    lambda x: UniformSegment((0.0, 0.0), (1.0, 0.0), x),
    lambda x: UniformArc((0.0, x), 1.0, 0.0, 1.0, 1.0),
    lambda x: UniformArc((0.0, 0.0), x, 0.0, 1.0, 1.0),
    lambda x: UniformArc((0.0, 0.0), 1.0, 0.0, 1.0, x),
    lambda x: UniformBall((x, 0.0), 1.0, 1.0),
    lambda x: UniformBall((0.0, 0.0), x, 1.0),
    lambda x: UniformBall((0.0, 0.0), 1.0, x),
], ids=["atom-point", "atom-weight", "segment-end", "segment-weight", "arc-center",
        "arc-radius", "arc-weight", "ball-center", "ball-radius", "ball-weight"])
def test_measures_reject_non_finite_numbers(make):
    make(1.0)  # finite, accepted
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make(x)


def test_radial_counting_segment_proportional():
    seg = BorelMeasure((UniformSegment((0.0, 0.0), (1.0, 0.0), 1.0),), 2)
    assert radial_counting(seg, (0.0, 0.0), 0.25) == pytest.approx(0.25)
    assert radial_counting(seg, (0.5, 0.0), 0.25) == pytest.approx(0.5)
    assert radial_counting(seg, (0.5, 0.0), 2.0) == pytest.approx(1.0)


def _segment_mass_oracle(comp, y, t, n=200_001):
    s = np.linspace(0.0, 1.0, n)
    pts = np.asarray(comp.start)[None, :] + s[:, None] * (
        np.asarray(comp.end) - np.asarray(comp.start))[None, :]
    inside = (np.linalg.norm(pts - np.asarray(y), axis=1) <= t)
    return comp.weight * inside.mean()


def test_radial_counting_segment_oracle():
    rng = random.Random(11)
    for _ in range(20):
        comp = UniformSegment((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                              (rng.uniform(-1, 1), rng.uniform(-1, 1)),
                              rng.uniform(0.5, 2.0))
        y = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = rng.uniform(0.1, 1.5)
        assert comp.ball_mass(y, t) == pytest.approx(
            _segment_mass_oracle(comp, y, t), abs=3e-5 * comp.weight)


def _arc_mass_oracle(comp, y, t, n=400_001):
    th = np.linspace(comp.angle_start, comp.angle_end, n)
    px = comp.center[0] + comp.radius * np.cos(th)
    py = comp.center[1] + comp.radius * np.sin(th)
    inside = (px - y[0]) ** 2 + (py - y[1]) ** 2 <= t * t
    return comp.weight * inside.mean()


def test_radial_counting_arc_oracle():
    rng = random.Random(12)
    for _ in range(20):
        width = rng.uniform(0.3, 2 * math.pi)
        start = rng.uniform(0, 2 * math.pi)
        comp = UniformArc((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                          rng.uniform(0.3, 1.5), start, start + width,
                          rng.uniform(0.5, 2.0))
        y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = rng.uniform(0.1, 2.0)
        assert comp.ball_mass(y, t) == pytest.approx(
            _arc_mass_oracle(comp, y, t), abs=3e-5 * comp.weight)


@pytest.mark.parametrize("full", [True, False])
def test_arc_ball_mass_about_a_point_on_it_is_relatively_exact(full):
    # the origin lies on the circle of radius 0.37 (inside the partial arc's
    # angles), so mu(B(0, t)) = weight * 2 half / width, half of order t / rho
    rho, alpha = 0.37, 0.6
    center = (rho * math.cos(alpha), rho * math.sin(alpha))
    phi = alpha - math.pi  # the direction of the origin seen from the centre
    start, end = (0.0, 2.0 * math.pi) if full else (phi - 1.0, phi + 0.5)
    arc = UniformArc(center, rho, start, end, 1.3)
    with mp.workdps(30):
        q = mp.hypot(mp.mpf(center[0]), mp.mpf(center[1]))
        for t in (1e-9, 1e-7, 1e-5, 1e-3):
            s2 = (mp.mpf(t) ** 2 - (q - rho) ** 2) / (4 * rho * q)
            exact = 1.3 * 4 * mp.asin(mp.sqrt(s2)) / (mp.mpf(end) - mp.mpf(start))
            got = arc.ball_mass((0.0, 0.0), t)
            assert abs(got - exact) <= 1e-13 * exact, t


def _disk_mass_oracle(comp, y, t, n=1200):
    # polar grid over the disk support
    qs = (np.arange(n) + 0.5) / n * comp.radius
    th = 2 * math.pi * (np.arange(n) + 0.5) / n
    Q, TH = np.meshgrid(qs, th, indexing="ij")
    px = comp.center[0] + Q * np.cos(TH)
    py = comp.center[1] + Q * np.sin(TH)
    inside = (px - y[0]) ** 2 + (py - y[1]) ** 2 <= t * t
    frac = (inside * Q).sum() / Q.sum()
    return comp.weight * frac


def test_radial_counting_disk_oracle():
    rng = random.Random(13)
    for _ in range(12):
        comp = UniformBall((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                           rng.uniform(0.3, 1.2), rng.uniform(0.5, 2.0))
        y = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = rng.uniform(0.1, 2.2)
        assert comp.ball_mass(y, t) == pytest.approx(
            _disk_mass_oracle(comp, y, t), abs=2e-3 * comp.weight)


def _ball3_mass_oracle(comp, y, t):
    # independent route: two spherical caps of the lens
    q = math.dist(comp.center, y)
    r1, r2 = t, comp.radius
    if q >= r1 + r2:
        inter = 0.0
    elif q + r2 <= r1:
        inter = 4.0 / 3.0 * math.pi * r2 ** 3
    elif q + r1 <= r2:
        inter = 4.0 / 3.0 * math.pi * r1 ** 3
    else:
        h1 = (r2 - r1 + q) * (r2 + r1 - q) / (2 * q)
        h2 = (r1 - r2 + q) * (r1 + r2 - q) / (2 * q)
        inter = (math.pi * h1 * h1 * (3 * r1 - h1) / 3.0
                 + math.pi * h2 * h2 * (3 * r2 - h2) / 3.0)
    return comp.weight * inter / (4.0 / 3.0 * math.pi * comp.radius ** 3)


def test_radial_counting_ball3_oracle():
    rng = random.Random(14)
    for _ in range(40):
        comp = UniformBall((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                            rng.uniform(-0.5, 0.5)),
                           rng.uniform(0.3, 1.2), rng.uniform(0.5, 2.0))
        y = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        t = rng.uniform(0.1, 2.5)
        assert comp.ball_mass(y, t) == pytest.approx(
            _ball3_mass_oracle(comp, y, t), rel=1e-10, abs=1e-12)


def test_ball3_mass_of_a_near_concentric_equal_ball():
    # B_y(0.3) with |y - center| = 1e-12 holds all but O(1e-12) of the ball
    ball = UniformBall((0.7, 0.1, 0.0), 0.3, 0.8)
    assert abs(ball.ball_mass((0.7 + 1e-12, 0.1, 0.0), 0.3) - 0.8) <= 1e-9


def test_radial_counting_monotone_right_continuous():
    rng = random.Random(15)
    mu = BorelMeasure((
        Atom((0.3, -0.2), 0.7),
        UniformSegment((-0.5, 0.0), (0.5, 0.3), 1.1),
        UniformArc((0.0, 0.0), 0.8, 0.5, 3.5, 0.9),
        UniformBall((0.2, 0.2), 0.4, 1.3),
    ), 2)
    y = (0.1, 0.05)
    ts = np.sort(np.array([rng.uniform(0, 2.5) for _ in range(200)]))
    vals = radial_counting(mu, y, ts)
    assert np.all(np.diff(vals) >= -1e-12)
    # right continuity at the atom's jump radius
    d = math.dist((0.3, -0.2), y)
    jump_at = radial_counting(mu, y, d)
    just_after = radial_counting(mu, y, d * (1 + 1e-9))
    assert jump_at == pytest.approx(just_after, abs=1e-6)
    assert jump_at >= radial_counting(mu, y, d * (1 - 1e-9)) + 0.699


# ---------------------------------------------------------------------------
# modulus of continuity


def test_modulus_two_atoms_anchors():
    mu = BorelMeasure((Atom((0.0, 0.0), 1.0), Atom((1.0, 0.0), 1.0)), 2)
    # no disk of radius 0.4 covers both; the midpoint covers both at 0.5
    assert modulus_of_continuity(mu, 0.4) == pytest.approx(1.0)
    assert modulus_of_continuity(mu, 0.5) == pytest.approx(2.0)
    assert _modulus(mu, 0.4, "auto") == (pytest.approx(1.0), "exact")


def test_modulus_saturation():
    rng = random.Random(16)
    comps = tuple(Atom((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       rng.uniform(0.1, 1.0)) for _ in range(6))
    mu = BorelMeasure(comps, 2)
    big = 2.0 * mu.support_radius
    assert modulus_of_continuity(mu, big) == pytest.approx(mu.mass)


def _brute_force_h_2d(mu, t, step=2e-3):
    pts = np.array([a.point for a in mu.atoms])
    wts = np.array([a.weight for a in mu.atoms])
    lo = pts.min(axis=0) - t - step
    hi = pts.max(axis=0) + t + step
    xs = np.arange(lo[0], hi[0] + step, step)
    ys = np.arange(lo[1], hi[1] + step, step)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    acc = np.zeros_like(X)
    for p, w in zip(pts, wts):
        acc += np.where((X - p[0]) ** 2 + (Y - p[1]) ** 2 <= t * t, w, 0.0)
    best_flat = int(np.argmax(acc))
    i, j = divmod(best_flat, acc.shape[1])
    best = float(acc[i, j])
    # refinement around the best cell
    fine = np.linspace(-1.5 * step, 1.5 * step, 31)
    FX, FY = np.meshgrid(xs[i] + fine, ys[j] + fine, indexing="ij")
    acc2 = np.zeros_like(FX)
    for p, w in zip(pts, wts):
        acc2 += np.where((FX - p[0]) ** 2 + (FY - p[1]) ** 2 <= t * t, w, 0.0)
    return max(best, float(acc2.max()))


def test_modulus_atomic_exact_vs_brute_force():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 8)
        comps = tuple(Atom((rng.uniform(0, 0.4), rng.uniform(0, 0.4)),
                           rng.uniform(0.2, 1.0)) for _ in range(n))
        mu = BorelMeasure(comps, 2)
        t = rng.uniform(0.03, 0.25)
        exact = modulus_of_continuity(mu, t)
        brute = _brute_force_h_2d(mu, t)
        assert exact == pytest.approx(brute, abs=1e-9)


def test_segment_modulus_never_exceeds_its_weight():
    rng = random.Random(7)
    for _ in range(2000):
        d = rng.choice((2, 3))
        seg = UniformSegment(tuple(rng.uniform(-1, 1) for _ in range(d)),
                             tuple(rng.uniform(-1, 1) for _ in range(d)),
                             rng.uniform(0.1, 2.0))
        assert seg.h_single(5.0) <= seg.weight


def test_modulus_single_components_exact():
    # segment: h(t) = W min(2t, L) / L
    seg = BorelMeasure((UniformSegment((0.0, 0.0), (2.0, 0.0), 3.0),), 2)
    assert modulus_of_continuity(seg, 0.5) == pytest.approx(3.0 * 1.0 / 2.0)
    assert modulus_of_continuity(seg, 2.0) == pytest.approx(3.0)
    # full circle: h(t) = W arcsin(t/rho) / pi for t < rho, W at t >= rho
    circ = BorelMeasure((UniformArc((0.0, 0.0), 1.0, 0.0, 2 * math.pi, 2.0),), 2)
    assert modulus_of_continuity(circ, 0.5) == pytest.approx(
        2.0 * 2.0 * math.asin(0.5) / (2 * math.pi))
    assert modulus_of_continuity(circ, 1.0) == pytest.approx(2.0)
    # disk: h(t) = W (t/rho)^2
    disk = BorelMeasure((UniformBall((0.0, 0.0), 2.0, 5.0),), 2)
    assert modulus_of_continuity(disk, 1.0) == pytest.approx(5.0 * 0.25)
    # 3-d ball: h(t) = W (t/rho)^3
    ball = BorelMeasure((UniformBall((0.0, 0.0, 0.0), 2.0, 5.0),), 3)
    assert modulus_of_continuity(ball, 1.0) == pytest.approx(5.0 * 0.125)


def test_modulus_exact_values_match_search_lower_bound():
    # the search may not reach the exact sup but must never exceed it
    rng = random.Random(18)
    for comps in [
        (UniformSegment((-0.7, 0.1), (0.5, 0.4), 1.4),),
        (UniformArc((0.1, -0.2), 0.9, 0.3, 2.1, 2.0),),
        (UniformBall((0.2, 0.0), 0.6, 1.0),),
    ]:
        mu = BorelMeasure(comps, 2)
        for _ in range(5):
            t = rng.uniform(0.05, 1.2)
            exact, flag = _modulus(mu, t, "auto")
            assert flag == "exact"
            lower = _modulus_bracket(mu, t)[0]
            assert lower <= exact + 1e-9
            assert lower >= exact - 1e-6 * max(1.0, exact) - 1e-9


def test_modulus_translation_invariance():
    rng = random.Random(19)
    points, weights = ((0.1, 0.2), (-0.3, 0.4), (0.2, -0.2)), (0.5, 1.5, 0.7)
    mu = BorelMeasure(tuple(Atom(p, w) for p, w in zip(points, weights)), 2)
    shifted = BorelMeasure(tuple(Atom((x + 3.7, y - 1.2), w)
                                 for (x, y), w in zip(points, weights)), 2)
    for _ in range(10):
        t = rng.uniform(0.0, 1.0)
        assert modulus_of_continuity(mu, t) == pytest.approx(
            modulus_of_continuity(shifted, t), abs=1e-12)


def test_modulus_upper_bound_dominates():
    mu = BorelMeasure((UniformBall((0.0, 0.0), 0.5, 1.0),
                       UniformBall((1.5, 0.0), 0.5, 1.0)), 2)
    radii = (0.1, 0.3, 0.6, 1.0, 3.0)
    upper = modulus_profile(mu, radii, "upper")
    for t, bound in zip(radii, upper.values):
        assert bound >= _modulus_bracket(mu, t)[0] - 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_modulus_monotone_property(t1, t2):
    mu = BorelMeasure((Atom((0.0, 0.0), 1.0), Atom((0.6, 0.1), 0.5),
                       Atom((0.2, 0.5), 0.25)), 2)
    lo, hi = min(t1, t2), max(t1, t2)
    assert modulus_of_continuity(mu, lo) <= modulus_of_continuity(mu, hi) + 1e-12


def test_modulus_profile_flags_and_bounds():
    mu = BorelMeasure((UniformSegment((0.0, 0.0), (1.0, 0.0), 1.0),), 2)
    grid = [0.1, 0.2, 0.4, 0.8, 1.6]
    prof = modulus_profile(mu, grid)
    assert all(flag == "exact" for flag in prof.flags)
    assert all(v <= prof.mass + 1e-12 for v in prof.values)
    assert all(b >= a for a, b in zip(prof.values, prof.values[1:]))
    mixed = BorelMeasure((UniformBall((0.0, 0.0), 0.3, 1.0),
                          UniformBall((0.8, 0.0), 0.2, 0.5)), 2)
    prof_up = modulus_profile(mixed, grid, method="upper")
    assert "upper-bound" in prof_up.flags
    prof_lo = modulus_profile(mixed, grid)
    # the bracket closes at every grid point: inside the denser disk, that
    # disk filled, the other disk filled, then both
    assert prof_lo.flags == ("exact",) * len(grid)
    assert prof_lo.values == pytest.approx((0.125, 0.5, 1.0, 1.5, 1.5), abs=1.5e-12)
    for up, lo_v in zip(prof_up.values, prof_lo.values):
        assert up >= lo_v - 1e-12


def _grid_max(mu, t, n):
    """max of mu(B_y(t)) over n^d centers evenly spread on the cube of
    half-side support_radius + t: a lower bound of h_mu(t).  The centers go
    through ball_mass as one array, checked first against one-center calls."""
    side = np.linspace(-(mu.support_radius + t), mu.support_radius + t, n)
    centers = np.stack(np.meshgrid(*[side] * mu.dim, indexing="ij"), -1).reshape(-1, mu.dim)
    masses = sum(c.ball_mass(centers, t) for c in mu.components)
    for k in range(0, len(centers), len(centers) // 97):
        assert masses[k] == pytest.approx(radial_counting(mu, centers[k], t), abs=1e-14)
    return float(masses.max())


# disk union of sweep seed 42, k 239: open under the first-order cover
# alone, whose beam saturates (it overshoots by O(delta) at a smooth maximum)
OPEN_DISK_UNION = BorelMeasure((
    UniformBall((-0.2474110498153557, 0.1255547887375945), 0.1588984565844954,
                0.9013514718826396),
    UniformBall((0.2366174293171714, 0.12705869771565573), 0.24798861235982123,
                0.8503140488211554),
    UniformBall((0.021338951871140783, -0.5453910081386381), 0.10212866814013223,
                0.7100416173489872)), 2)
OPEN_DISK_UNION_T = 0.4608275374353696
# the best ball straddles the two balls, and d=3 balls have no second-order
# term, so the bracket stays open
TWO_BALLS_3D = BorelMeasure((UniformBall((0.0, 0.0, 0.0), 0.4, 1.0),
                             UniformBall((0.7, 0.1, 0.0), 0.3, 0.8)), 3)

PIN_3D_MEASURE = BorelMeasure((
    UniformBall((0.2, -0.3, 0.1), 0.6, 0.7),
    UniformSegment((-0.8, 0.2, 0.0), (0.3, 0.9, -0.5), 0.5),
    Atom((0.5, 0.5, 0.5), 0.2)), 3)


@pytest.mark.parametrize("mu, t, n", [
    # disk union of sweep seed 13, k 55: the best ball holds two whole disks
    (BorelMeasure((UniformBall((0.5036, -0.8712), 0.1599, 0.8255),
                   UniformBall((1.0401, -0.0574), 0.0876, 0.9038),
                   UniformBall((-0.5419, 0.1612), 0.2988, 0.4945)), 2), 0.69, 601),
    # the first 2-d case the first-order cover left open
    (OPEN_DISK_UNION, OPEN_DISK_UNION_T, 601),
    (TWO_BALLS_3D, 0.45, 81),
    (PIN_3D_MEASURE, 0.1, 81),
    (PIN_3D_MEASURE, 0.5, 81),
    (PIN_3D_MEASURE, 0.9, 81),
], ids=["disk-union-seed13", "open-disk-union-seed42", "two-balls-d3", "pin-3d-0.1", "pin-3d-0.5", "pin-3d-0.9"])
def test_modulus_bracket_holds_the_grid_maximum(mu, t, n):
    lower, upper = _modulus_bracket(mu, t)
    brute = _grid_max(mu, t, n)
    assert brute <= upper, (brute, upper)
    assert lower >= brute - 1e-9, (lower, brute)
    closed = upper <= lower + 1e-12 * max(1.0, mu.mass)
    assert modulus_profile(mu, [t]).values == (lower,)
    assert modulus_profile(mu, [t]).flags == ("exact" if closed else "lower-bound",)


def _counting_ball_masses(monkeypatch):
    """A list whose one entry counts the centers passed to UniformBall.ball_mass."""
    seen = [0]
    ball_mass = UniformBall.ball_mass

    def counting(self, y, t):
        seen[0] += len(np.atleast_2d(y))
        return ball_mass(self, y, t)

    monkeypatch.setattr(UniformBall, "ball_mass", counting)
    return seen


def test_open_modulus_bracket_narrows_its_beam(monkeypatch):
    # once a beam discard leaves the bracket open, the remaining levels split
    # at most _BEAM // 16 cells: 2,109,394 centers with the full beam
    seen = _counting_ball_masses(monkeypatch)
    lower, upper = _modulus_bracket(TWO_BALLS_3D, 0.45)
    assert upper > lower + 1e-12 * TWO_BALLS_3D.mass
    assert seen[0] <= 300_000, seen[0]


def test_second_order_cover_closes_the_open_disk_union(monkeypatch):
    # the first-order cover alone leaves a gap of 8.6e-4 after 192,987
    # centers; the second-order one closes the bracket in 3,591
    seen = _counting_ball_masses(monkeypatch)
    lower, upper = _modulus_bracket(OPEN_DISK_UNION, OPEN_DISK_UNION_T)
    assert upper <= lower + 1e-12 * OPEN_DISK_UNION.mass
    assert seen[0] <= 10_000, seen[0]
    assert _grid_max(OPEN_DISK_UNION, OPEN_DISK_UNION_T, 301) <= upper


def test_second_order_cover_bounds_every_mass_within_delta():
    # the cover of a cell with center c and half-diagonal delta holds
    # mu(B_y(t)) at every y with |y - c| <= delta, so at every y of the cell:
    # random disk unions, centers and deltas, y on that circle and inside it
    rng = np.random.default_rng(27)
    angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    inside = circle * np.sqrt(rng.uniform(0.0, 1.0, (48, 1)))
    tight = 0
    for _ in range(30):
        disks = tuple(UniformBall(tuple(rng.uniform(-1.0, 1.0, 2)), float(rng.uniform(0.1, 0.6)),
                                  float(rng.uniform(0.3, 1.0)))
                      for _ in range(int(rng.integers(1, 4))))
        t = float(rng.uniform(0.05, 1.0))
        delta = float(10.0 ** rng.uniform(-4.0, -1.0))
        centers = rng.uniform(-1.5, 1.5, (200, 2))
        at_center = np.array([c.ball_mass(centers, t) for c in disks])
        first = np.array([np.minimum(c.h_single(t), c.ball_mass(centers, t + delta))
                          for c in disks])
        cover = _second_order_cover(disks, centers, t, delta, at_center, first,
                                    sum(c.weight for c in disks))
        tight += int((cover < first.sum(axis=0)).sum())
        for offset in np.concatenate([circle, inside]) * delta:
            masses = sum(c.ball_mass(centers + offset, t) for c in disks)
            assert (masses <= cover).all(), (disks, t, delta, offset)
    # the second-order cover is the smaller one at many of the cells
    assert tight > 1000, tight


def test_second_order_cover_is_asked_only_in_d2_when_every_component_has_it(monkeypatch):
    # a component without a second-order term (an atom) or a d=3 ball keeps
    # the bracket on the first-order cover at every level: decided once per
    # call from d and the kinds, so _second_order_cover is never called
    def refuse(*args):
        raise AssertionError("second-order cover asked")

    monkeypatch.setattr(measures, "_second_order_cover", refuse)
    disk_and_atom = BorelMeasure((UniformBall((0.0, 0.0), 0.5, 1.0), Atom((0.6, 0.1), 0.7)), 2)
    for mu, t in ((disk_and_atom, 0.3), (TWO_BALLS_3D, 0.45)):
        lower, upper = _modulus_bracket(mu, t)
        assert lower <= upper
    with pytest.raises(AssertionError, match="second-order cover asked"):
        _modulus_bracket(OPEN_DISK_UNION, OPEN_DISK_UNION_T)


def _ref_lens_area_2d(t, rho, q):
    """The lens area by nested np.where, as first written: the reference
    that _lens_area_2d keeps bit for bit."""
    t = np.asarray(t, dtype=float)
    full_small = math.pi * t * t
    full_rho = math.pi * rho * rho
    with np.errstate(invalid="ignore", divide="ignore"):
        a1 = np.arccos(np.clip((q * q + t * t - rho * rho) / (2.0 * q * t), -1.0, 1.0))
        a2 = np.arccos(np.clip((q * q + rho * rho - t * t) / (2.0 * q * rho), -1.0, 1.0))
        s = (-q + t + rho) * (q + t - rho) * (q - t + rho) * (q + t + rho)
        lens = t * t * a1 + rho * rho * a2 - 0.5 * np.sqrt(np.maximum(s, 0.0))
    return np.where(t + rho <= q, 0.0,
                    np.where(q + rho <= t, full_rho,
                             np.where(q + t <= rho, full_small, lens)))


def test_lens_area_equals_the_nested_where_expression_bit_for_bit():
    # rho = 0.75 and t in {0, 0.25, 0.75, 1.25}: at q = 0, 0.5 and 1 and 2 the
    # disks are concentric, tangent inside (q = rho - t, q = t - rho) or
    # tangent outside (q = t + rho), all exactly in floats
    rng = np.random.default_rng(29)
    rho = 0.75
    q = np.concatenate([[0.0, 0.5, 1.0, 2.0], rng.uniform(0.0, 2.5, 300)])
    t = np.array([[0.0], [0.25], [0.75], [1.25], [0.4]])
    assert np.array_equal(_lens_area_2d(t, rho, q), _ref_lens_area_2d(t, rho, q))
    ball = UniformBall((0.0, 0.0), rho, 1.0)
    disk = BorelMeasure((ball,), 2)
    for tk in t[:, 0]:
        for qk in q[:8]:
            one = _lens_area_2d(tk, rho, qk)
            assert np.ndim(one) == 0 and one == _ref_lens_area_2d(tk, rho, qk), (tk, qk)
            # ball_mass always gives an array; radial_counting a float for one radius
            mass = radial_counting(disk, (float(qk), 0.0), float(tk))
            assert type(mass) is float
            assert mass == ball.ball_mass(np.array([[qk, 0.0]]), float(tk))[0]


def test_modulus_rejects_a_nan_radius_and_an_unknown_method():
    # a nan radius gave h = 0 flagged exact, and an unknown method ran auto
    mu = BorelMeasure((UniformBall((0.0, 0.0), 0.3, 1.0), UniformBall((0.8, 0.0), 0.2, 0.5)), 2)
    with pytest.raises(ValueError, match="t must be >= 0"):
        modulus_profile(mu, [math.nan])
    with pytest.raises(ValueError, match="method"):
        modulus_profile(mu, [0.2], "bogus")
    with pytest.raises(ValueError, match="t must be >= 0"):
        modulus_profile(mu, [math.nan], "upper")


# ---------------------------------------------------------------------------
# the dilogarithm of the arc potential


def _li2_test_points():
    rng = np.random.default_rng(23)
    random_disk = np.sqrt(rng.random(600)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 600))
    angles = np.linspace(-np.pi, np.pi, 25)
    near_circle = [(1.0 - 10.0 ** -k) * np.exp(1j * a) for k in range(1, 16) for a in angles]
    circle = np.exp(1j * np.linspace(-np.pi, np.pi, 241))
    # rays toward w = 1 from every side within the disk
    rays = [1.0 - 10.0 ** -k * np.exp(1j * a) for k in range(1, 16)
            for a in np.linspace(-0.45 * np.pi, 0.45 * np.pi, 7)]
    exact = [0.0, 1.0, -1.0, 0.5, complex(0.5, math.sqrt(3.0) / 2.0)]
    return np.concatenate([random_disk, near_circle, circle, rays, exact])


def test_li2_matches_mpmath_on_the_closed_unit_disk():
    w = _li2_test_points()
    with np.errstate(divide="raise", invalid="raise"):
        got = measures._li2(w)
    eps = np.finfo(float).eps
    with mp.workdps(30):
        for x, value in zip(w, got):
            ref = mp.polylog(2, mp.mpc(x.real, x.imag))
            assert abs(value - complex(ref)) <= 4.0 * eps * max(1.0, abs(ref)), x
    assert measures._li2(np.array([1.0 + 0j]))[0] == math.pi ** 2 / 6.0
    assert measures._li2(np.array([0j]))[0] == 0.0


def test_arc_potential_at_its_endpoints_and_centre_matches_mpmath():
    # on the arc's ends w = 1 exactly, where the reflection formula meets
    # ln(1) * ln(0); the centre and two more points inside and outside.  The
    # float end (cos 1, sin 1) lies off the arc by rounding, where the
    # potential's slope is about |ln eps| = 36: hence 1e-14, not a few eps
    arc = UniformArc((0.0, 0.0), 1.0, 0.0, 1.0, 1.0)
    pts = np.array([[1.0, 0.0], [math.cos(1.0), math.sin(1.0)], [0.0, 0.0],
                    [0.3, 0.4], [1.6, -0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arc.potential(pts)
    with mp.workdps(30):
        for p, value in zip(pts, got):
            z = mp.mpc(*p)
            ang = float(mp.arg(z)) if z != 0 else 0.0
            nodes = [0.0, ang, 1.0] if 0.0 < ang < 1.0 else [0.0, 1.0]
            ref = mp.quad(lambda a: mp.log(abs(z - mp.expj(a))), nodes)
            assert abs(value - float(ref)) <= 1e-14, p


def test_import_and_an_arc_corpus_run_load_no_scipy():
    code = ("import sys, deltasubh, deltasubh.cli; "
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # with scipy unimportable, an arc scenario still runs its checks
    code = ("import sys; sys.modules['scipy'] = None; from deltasubh.cli import main; "
            "sys.exit(main(['corpus', '--seed', '42', '--count', '1', '--families', 'ef_arc']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "rows=4 pass=4" in proc.stderr, proc.stderr


# ---------------------------------------------------------------------------
# integrated counting function


def test_integrated_counting_anchors():
    one_atom = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
    assert integrated_counting_result(one_atom, 1.0, math.e).value == pytest.approx(1.0)
    off = BorelMeasure((Atom((0.5, 0.0), 1.0),), 2)
    assert integrated_counting_result(off, 1.0, 2.0).value == pytest.approx(math.log(2.0))
    atom3 = BorelMeasure((Atom((0.0, 0.0, 0.0), 1.0),), 3)
    assert integrated_counting_result(atom3, 1.0, 2.0).value == pytest.approx(0.5)


def test_integrated_counting_r_zero_divergence():
    atom_at_0 = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
    assert integrated_counting_result(atom_at_0, 0.0, 1.0).value == math.inf
    # segment through the center: integrable in d=2
    seg = BorelMeasure((UniformSegment((-0.5, 0.0), (0.5, 0.0), 1.0),), 2)
    val = integrated_counting_result(seg, 0.0, 1.0).value
    assert math.isfinite(val)
    # same geometry in d=3 diverges (integrand ~ c/t)
    seg3 = BorelMeasure((UniformSegment((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 1.0),), 3)
    assert integrated_counting_result(seg3, 0.0, 1.0).value == math.inf


def test_integrated_counting_segments_through_the_origin_d2():
    # mu(B_0(t)) = (min(t, a) + min(t, b)) / (a + b): N(0, 2) in closed form
    rng = random.Random(2106)
    for _ in range(100):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(theta), math.sin(theta))
        a, b = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        seg = UniformSegment((-a * u[0], -a * u[1]), (b * u[0], b * u[1]), 1.0)
        value = integrated_counting_result(BorelMeasure((seg,), 2), 0.0, 2.0).value
        exact = (a + a * math.log(2.0 / a) + b + b * math.log(2.0 / b)) / (a + b)
        assert math.isfinite(value)
        assert abs(value - exact) <= 1e-10


def test_integrated_counting_circles_through_the_origin_d2():
    # mu(B_0(t)) = (2 / pi) asin(t / (2 rho)) up to t = 2 rho: N(0, 2) = ln(2 / rho)
    rng = random.Random(2106)
    for _ in range(100):
        rho, ang = rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        circle = UniformArc((rho * math.cos(ang), rho * math.sin(ang)), rho,
                            0.0, 2.0 * math.pi, 1.0)
        value = integrated_counting_result(BorelMeasure((circle,), 2), 0.0, 2.0).value
        assert abs(value - math.log(2.0 / rho)) <= 1e-10


def test_integrated_counting_d3_segment_through_the_origin_spends_no_node(monkeypatch):
    calls = []
    engine = measures.integrate_interval

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(measures, "integrate_interval", counted)
    segments = [UniformSegment((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 1.0)]
    # from -a u to b u in a general direction: in floats such a segment
    # misses the origin by up to about 1.6e-16
    rng = random.Random(2106)
    for _ in range(6):
        u = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        u /= np.linalg.norm(u)
        a, b = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
        segments.append(UniformSegment(tuple(-a * u), tuple(b * u), 1.0))
    for seg in segments:
        res = integrated_counting_result(BorelMeasure((seg,), 3), 0.0, 2.0)
        assert res.value == math.inf and res.nodes_used == 0
    assert calls == []


@pytest.mark.xfail(raises=QuadratureBudgetError, strict=True,
                   reason="known defect: the 1/delta square-root edge at t = delta exhausts "
                          "the node budget; a closed form for a segment's N_mu removes it")
def test_integrated_counting_d3_segment_near_the_origin_is_finite():
    # the chord of B(t) through the segment at distance delta has mass
    # min(sqrt(t^2 - delta^2), 1), so with d_hat = 1 and T = sqrt(1 + delta^2)
    # N_mu(0, 2) = ln((1 + T) / delta) - 1/2, about ln(1 / delta)
    delta = 1e-10
    seg = UniformSegment((-1.0, delta, 0.0), (1.0, delta, 0.0), 1.0)
    res = integrated_counting_result(BorelMeasure((seg,), 3), 0.0, 2.0)
    exact = math.log((1.0 + math.sqrt(1.0 + delta * delta)) / delta) - 0.5
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-12 * exact)


@pytest.mark.parametrize("seg", [
    UniformSegment((-0.5, 0.0, 0.0), (0.5, 0.0, 0.0), 1.0),
    UniformSegment((-0.8387068571281568, -0.15098412746126805),
                   (0.4817465587815061, 0.08672408388808474), 1.0),
])
def test_segment_ball_mass_about_a_point_of_it(seg):
    origin = (0.0,) * seg.dim
    assert seg.ball_mass(origin, 0.0) == 0.0
    for t in (1e-3, 1e-6, 1e-9):
        exact = seg.weight * 2.0 * t / seg.length
        assert seg.ball_mass(origin, t) == pytest.approx(exact, rel=1e-6)


def test_segment_and_arc_paths_match_their_geometry():
    # a segment's nearest point is found once, in feet: the first breakpoint
    # radius, about the origin, is distance_to(origin), and at(feet(y)) is no
    # farther from y than the nearest of 4,097 points along the segment
    rng = random.Random(11)
    samples = np.linspace(0.0, 1.0, 4097)
    for d in (2, 3):
        for _ in range(40):
            a = tuple(rng.uniform(-2, 2) for _ in range(d))
            b = tuple(rng.uniform(-2, 2) for _ in range(d))
            seg = UniformSegment(a, b, 1.0)
            y = np.array([rng.uniform(-3, 3) for _ in range(d)])
            assert seg.breakpoint_radii()[0] == seg.distance_to(np.zeros(d))
            foot = seg.at(seg.feet(y[None, :], *seg.span))[0]
            nearest = float(np.min(np.linalg.norm(seg.at(samples) - y, axis=1)))
            assert np.linalg.norm(foot - y) <= nearest * (1.0 + 1e-12)
    # an off-centre partial arc's path ends at its end angles
    for _ in range(40):
        center, radius = (rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.1, 3.0)
        lo = rng.uniform(-7.0, 7.0)
        arc = UniformArc(center, radius, lo, lo + rng.uniform(1e-3, 6.0), 1.0)
        ends = [[center[0] + radius * math.cos(t), center[1] + radius * math.sin(t)]
                for t in arc.span]
        scale = math.hypot(*center) + radius
        np.testing.assert_allclose(arc.at(np.array(arc.span)), ends, rtol=0.0,
                                   atol=4.0 * np.finfo(float).eps * scale)


def _components(d, rng):
    """One component of every kind in dimension d, in general position."""
    def pt():
        return tuple(rng.uniform(-1.0, 1.0, d))

    comps = [Atom(pt(), 0.7), UniformSegment(pt(), pt(), 0.9),
             UniformBall(pt(), float(rng.uniform(0.2, 0.8)), 1.1)]
    if d == 2:
        comps.append(UniformArc(pt(), float(rng.uniform(0.2, 0.8)), -0.4, 2.5, 0.8))
    return comps


@pytest.mark.parametrize("d", [2, 3])
def test_ball_mass_of_many_centres_equals_one_centre_calls_bit_for_bit(d):
    # the modulus bracket asks for mu(B_y(t)) at a beam of centres in one
    # call; each centre's masses must not depend on the others, nor on
    # whether the centre is a one-row array or a tuple, nor on whether
    # radial_counting asks.  About the origin, where N_mu reads them, the
    # breakpoint radii bracket the change of form: no mass below the first,
    # all of it past the last
    rng = np.random.default_rng(60 + d)
    centres = rng.uniform(-1.5, 1.5, (64, d))
    radii = np.sort(rng.uniform(0.0, 2.0, 200))[:, None]
    origin = (0.0,) * d
    for comp in _components(d, rng):
        alone = BorelMeasure((comp,), d)
        batch = comp.ball_mass(centres, radii)
        assert batch.shape == (200, 64)
        for i in range(64):
            one = comp.ball_mass(centres[i:i + 1], radii)
            assert np.array_equal(batch[:, i], one[:, 0]), (comp, i)
            assert np.array_equal(comp.ball_mass(tuple(centres[i]), radii), one), (comp, i)
            assert np.array_equal(radial_counting(alone, centres[i], radii[:, 0]), one[:, 0])
        if isinstance(comp, Atom):  # N_mu takes atoms in closed form
            continue
        breaks = comp.breakpoint_radii()
        assert all(type(b) is float for b in breaks), comp
        lo, hi = min(breaks), max(breaks)
        assert lo == 0.0 or radial_counting(alone, origin, lo * (1.0 - 1e-9)) == 0.0, comp
        assert radial_counting(alone, origin, hi * (1.0 + 1e-9)) == pytest.approx(comp.weight,
                                                                                  rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_segment_feet_and_distance_of_many_points_equal_one_point_calls(d):
    rng = np.random.default_rng(70 + d)
    for _ in range(30):
        seg = UniformSegment(tuple(rng.uniform(-2, 2, d)), tuple(rng.uniform(-2, 2, d)), 1.0)
        pts = rng.uniform(-3.0, 3.0, (37, d))
        feet = seg.feet(pts, 0.0, 1.0)
        assert [float(seg.feet(p[None, :], 0.0, 1.0)[0]) for p in pts] == feet.tolist()
        dist = _distances(seg.at(feet), pts)
        assert [seg.distance_to(p) for p in pts] == dist.tolist()


def test_integrated_counting_segment_quadrature_matches_oracle():
    seg = BorelMeasure((UniformSegment((-0.5, 0.0), (0.5, 0.0), 1.0),), 2)
    res = integrated_counting_result(seg, 0.25, 2.0)
    # oracle: fine composite trapezoid on the closed-form counting function
    ts = np.linspace(0.25, 2.0, 400_001)
    vals = radial_counting(seg, (0.0, 0.0), ts) / ts
    oracle = float(np.trapezoid(vals, ts))
    assert res.value == pytest.approx(oracle, abs=5e-8)


def test_integrated_counting_additivity_exact():
    rng = random.Random(21)
    a = BorelMeasure(tuple(Atom((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                                rng.uniform(0.1, 1.0)) for _ in range(5)), 2)
    b = BorelMeasure(tuple(Atom((rng.uniform(-2, 2), rng.uniform(-2, 2)),
                                rng.uniform(0.1, 1.0)) for _ in range(4)), 2)

    def N(mu, r, R):
        return integrated_counting_result(mu, r, R).value

    lhs = N(BorelMeasure(a.components + b.components, 2), 0.5, 3.0)
    rhs = N(a, 0.5, 3.0) + N(b, 0.5, 3.0)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_integrated_counting_splitting():
    mu = BorelMeasure((Atom((0.3, 0.1), 0.5),
                       UniformSegment((-0.5, -0.2), (0.8, 0.4), 1.0),
                       UniformBall((0.1, 0.3), 0.4, 0.8)), 2)
    r, s, R = 0.2, 0.9, 2.7
    full = integrated_counting_result(mu, r, R).value
    split = (integrated_counting_result(mu, r, s).value
             + integrated_counting_result(mu, s, R).value)
    assert abs(full - split) <= 1e-10 * max(1.0, abs(full))


# ---------------------------------------------------------------------------
# Dini integral


def _mp_h(c):
    """(h_single of c at an mpf radius, its kinks), from the component's
    float parameters in 30-digit arithmetic, independently of measures."""
    w = mp.mpf(c.weight)
    if isinstance(c, Atom):
        return (lambda t: w), []
    if isinstance(c, UniformSegment):
        L = mp.sqrt(mp.fsum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(c.start, c.end)))
        return (lambda t: w * min(2 * t, L) / L), [L / 2]
    rho = mp.mpf(c.radius)
    if isinstance(c, UniformBall):
        return (lambda t: w * min(t / rho, 1) ** c.dim), [rho]
    W = mp.mpf(c.angle_end) - mp.mpf(c.angle_start)
    t_star = rho * mp.sin(min(W / 2, mp.pi / 2))

    def h(t):
        return w if t >= rho else w * min(2 * mp.asin(t / rho), W) / W

    return h, [t_star, rho]


def _mp_dini(mu, upper, d):
    """integral_0^upper (sum of the h_single) / t^{d-1} dt by mpmath at 30
    digits, split at every kink; mp.inf when t times the integrand stays
    away from 0 as t -> 0 (log divergence: an atom, or a d=3 segment)."""
    with mp.workdps(30):
        parts = [_mp_h(c) for c in mu.components]

        def f(t):
            return mp.fsum(h(t) for h, _ in parts) / t ** (d - 1)

        tiny = mp.mpf("1e-30")
        if tiny * f(tiny) > mp.mpf("1e-12"):
            return mp.inf
        top = mp.mpf(upper)
        kinks = sorted({k for _, ks in parts for k in ks if 0 < k < top})
        return mp.quad(f, [0] + kinks + [top])


def _arc_cases():
    """Arcs of width W < pi, = pi, > pi and = 2 pi, at U/rho = 1e-8, below
    t* = rho sin(min(W/2, pi/2)), at t*, between t* and rho (W < pi only)
    and above rho."""
    rho, w = 0.9, 1.3
    for label, W in (("narrow", 1.0), ("half", math.pi), ("wide", 4.0),
                     ("full", 2.0 * math.pi)):
        mu = BorelMeasure((UniformArc((0.1, -0.2), rho, -0.5, -0.5 + W, w),), 2)
        t_star = rho * math.sin(min(W / 2.0, math.pi / 2.0))
        uppers = {"tiny": 1e-8 * rho, "below": 0.5 * t_star, "at-tstar": t_star,
                  "above": 1.7 * rho}
        if t_star < rho:
            uppers["between"] = 0.5 * (t_star + rho)
        for where, upper in uppers.items():
            yield pytest.param(mu, 2, upper, id=f"arc-{label}-{where}")


def _ef_arc_s0116():
    from deltasubh.lab import generate_scenario

    s = generate_scenario(42, 116, "ef_arc")
    return pytest.param(s.mu, 2, s.R + s.r, id="ef_arc-s0116")


DINI_CASES = [
    pytest.param(BorelMeasure((Atom((0.7, 0.2), 1.0),), 2), 2, 1.0, id="atom-d2"),
    pytest.param(BorelMeasure((Atom((0.1, 0.2, -0.3), 0.4),), 3), 3, 1.0, id="atom-d3"),
    pytest.param(BorelMeasure((UniformSegment((0.0, 0.0), (0.8, 0.0), 1.5),), 2), 2, 0.3,
                 id="segment-d2-below"),
    pytest.param(BorelMeasure((UniformSegment((0.0, 0.0), (0.8, 0.0), 1.5),), 2), 2, 2.0,
                 id="segment-d2"),
    pytest.param(BorelMeasure((UniformSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),), 3),
                 3, 1.0, id="segment-d3"),
    pytest.param(BorelMeasure((UniformBall((0.2, 0.1), 0.7, 0.6),), 2), 2, 0.5,
                 id="ball-d2-below"),
    pytest.param(BorelMeasure((UniformBall((0.2, 0.1), 0.7, 0.6),), 2), 2, 3.1,
                 id="ball-d2"),
    pytest.param(BorelMeasure((UniformBall((0.0, 0.0, 0.0), 1.0, 1.0),), 3), 3, 2.0,
                 id="ball-d3"),
    pytest.param(BorelMeasure((UniformBall((0.0, 0.3, 0.0), 0.8, 1.7),), 3), 3, 0.25,
                 id="ball-d3-below"),
    *_arc_cases(),
    pytest.param(BorelMeasure((UniformBall((0.3, 0.2), 0.4, 0.5),
                               UniformBall((-0.5, 0.1), 0.25, 1.1),
                               UniformBall((0.0, -0.6), 0.6, 0.3)), 2), 2, 0.5,
                 id="disk_union"),
    pytest.param(BorelMeasure((UniformBall((0.3, 0.2, 0.0), 0.4, 0.5),
                               UniformBall((-0.5, 0.1, 0.2), 1.25, 1.1)), 3), 3, 0.9,
                 id="ball-union-d3"),
    pytest.param(BorelMeasure((UniformSegment((-0.4, 0.0), (0.4, 0.3), 0.7),
                               UniformArc((0.0, 0.0), 1.0, 0.5, 4.2, 0.9),
                               UniformBall((0.2, -0.3), 0.3, 0.4)), 2), 2, 1.4,
                 id="mixed-d2"),
    pytest.param(BorelMeasure((UniformBall((0.0, 0.0), 0.5, 1.0),
                               Atom((0.1, 0.1), 0.2)), 2), 2, 2.0, id="ball-and-atom"),
    _ef_arc_s0116(),
]


@pytest.mark.parametrize("mu, d, upper", DINI_CASES)
def test_dini_within_its_estimate_of_a_30_digit_reference(mu, d, upper):
    res = dini_integral_result(mu, upper)
    assert res.nodes_used == 0
    ref = _mp_dini(mu, upper, d)
    if ref == mp.inf:
        assert res.value == math.inf
    else:
        assert abs(mp.mpf(res.value) - ref) <= res.error_estimate


def test_dini_atom_diverges():
    mu = BorelMeasure((Atom((0.7, 0.2), 1.0),), 2)
    assert dini_integral_result(mu, 1.0).value == math.inf


def test_dini_segment3_diverges():
    mu = BorelMeasure((UniformSegment((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),), 3)
    assert dini_integral_result(mu, 1.0).value == math.inf


def test_dini_zero_measure():
    assert dini_integral_result(BorelMeasure((), 2), 1.0).value == 0.0


def test_dini_limits_check_cases():
    grid = [2.0 ** (-k) for k in range(30, 0, -1)]
    seg = BorelMeasure((UniformSegment((0.0, 0.0), (1.0, 0.0), 1.0),), 2)
    rep = dini_limits_check(modulus_profile(seg, grid))
    assert rep.h_to_zero and rep.hk_to_zero

    atom = BorelMeasure((Atom((0.0, 0.0), 1.0),), 2)
    rep_atom = dini_limits_check(modulus_profile(atom, grid))
    assert not rep_atom.h_to_zero  # h is identically the weight near 0

    zero = BorelMeasure((), 2)
    rep_zero = dini_limits_check(modulus_profile(zero, grid))
    assert rep_zero.h_at_min == 0.0 and rep_zero.hk_at_min == 0.0
    assert rep_zero.h_to_zero and rep_zero.hk_to_zero

    # the kernel is the profile's own: h k = t^3 (-1 / t) for a d=3 unit ball
    ball = BorelMeasure((UniformBall((0.0, 0.0, 0.0), 1.0, 1.0),), 3)
    rep_ball = dini_limits_check(modulus_profile(ball, grid))
    assert rep_ball.hk_at_min == pytest.approx(-grid[0] ** 2, rel=1e-12)


@pytest.mark.parametrize("d", [4, 5])
def test_segments_are_2_or_3_dimensional(d):
    # the potential has antiderivatives for d = 2 and 3 only: at (0.5, 0.3,
    # 0, 0) the d = 3 one gives -2.5676, the d = 4 kernel's integral -6.8692
    start, end = (0.0,) * d, (1.0,) + (0.0,) * (d - 1)
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        UniformSegment(start, end, 1.0)
    assert BorelMeasure((Atom(end, 1.0),), d).mass == 1.0


def test_measure_validation():
    with pytest.raises(ValueError):
        Atom((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        UniformSegment((0.0, 0.0), (0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        UniformArc((0.0, 0.0, 0.0), 1.0, 0.0, 1.0, 1.0)  # d=3 arc
    with pytest.raises(ValueError):
        BorelMeasure((Atom((0.0, 0.0), 1.0), Atom((0.0, 0.0, 0.0), 1.0)), 2)
