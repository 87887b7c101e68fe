import math
import random

import numpy as np
import pytest

from deltasubh import potentials
from deltasubh.geometry import _distances, kernel
from deltasubh.measures import Atom, BorelMeasure, UniformArc, UniformBall, UniformSegment
from deltasubh.potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    MeromorphicFn,
    SubharmonicFn,
    UnsupportedModelError,
    canonical_representation,
    jordan_decomposition,
    potential_values,
)
from deltasubh.quadrature import integrate_interval


def _mero(zeros=(), poles=(), unit=1.0, exponent=()):
    return MeromorphicFn(tuple(zeros), tuple(poles), unit, tuple(exponent))


def test_evaluate_anchors():
    f = _mero(zeros=[(0j, 1)])          # f(z) = z
    vals, polar = f.to_delta_subharmonic().values_with_polar(np.array([[2.0, 0.0]]))
    assert vals[0] == pytest.approx(math.log(2.0)) and not polar[0]
    g = _mero(poles=[(0j, 1)])          # f(z) = 1/z
    vals, polar = g.to_delta_subharmonic().values_with_polar(np.array([[0.0, 0.0]]))
    assert vals[0] == math.inf and not polar[0]


def test_evaluate_polar_marker_and_cancellation():
    # (z-1)/(z-1): charge cancels in the Jordan decomposition; at z=1 the
    # raw pair is (-inf) - (-inf), the polar marker
    f = _mero(zeros=[(1 + 0j, 1)])
    g = _mero(poles=[(1 + 0j, 1)])
    u = f.to_delta_subharmonic().u
    v = g.to_delta_subharmonic().v
    U = DeltaSubharmonicFn(SubharmonicFn(None, u.riesz),
                           SubharmonicFn(None, v.riesz))
    vals, polar = U.values_with_polar(np.array([[1.0, 0.0], [0.3, -0.8]]))
    assert polar.tolist() == [True, False]
    assert math.isnan(vals[0])  # U.values marks a polar point NaN
    assert vals[1] == pytest.approx(0.0, abs=1e-14)
    plus, minus = jordan_decomposition(U)
    assert plus.mass == 0.0 and minus.mass == 0.0


def test_positive_part_anchors():
    f = _mero(zeros=[(0j, 1)])
    U = f.to_delta_subharmonic()
    plus = U.positive_values(np.array([[0.5, 0.0], [math.e, 0.0], [0.0, 0.0]]))
    assert plus[0] == 0.0
    assert plus[1] == pytest.approx(1.0)
    assert plus[2] == 0.0  # (-inf)^+ = 0
    # the polar marker maps to 0 as well
    u = SubharmonicFn(None, BorelMeasure((Atom((1.0, 0.0), 1.0),), 2))
    assert DeltaSubharmonicFn(u, u).positive_values(np.array([[1.0, 0.0]]))[0] == 0.0


def test_jordan_decomposition_examples():
    f = _mero(zeros=[(0j, 1)], poles=[(1 + 0j, 1)])  # z/(z-1)
    plus, minus = jordan_decomposition(f.to_delta_subharmonic())
    assert [(a.point, a.weight) for a in plus.atoms] == [((0.0, 0.0), 1.0)]
    assert [(a.point, a.weight) for a in minus.atoms] == [((1.0, 0.0), 1.0)]

    # atom cancellation: 2 delta_0 minus delta_0
    u = SubharmonicFn(None, BorelMeasure((Atom((0.0, 0.0), 2.0),), 2))
    v = SubharmonicFn(None, BorelMeasure((Atom((0.0, 0.0), 1.0),), 2))
    plus, minus = jordan_decomposition(DeltaSubharmonicFn(u, v))
    assert [(a.point, a.weight) for a in plus.atoms] == [((0.0, 0.0), 1.0)]
    assert minus.mass == 0.0

    g = _mero(poles=[(0j, 2)])  # 1/z^2
    plus, minus = jordan_decomposition(g.to_delta_subharmonic())
    assert plus.mass == 0.0
    assert [(a.point, a.weight) for a in minus.atoms] == [((0.0, 0.0), 2.0)]


def test_jordan_supports_disjoint():
    rng = random.Random(31)
    for _ in range(10):
        zeros = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randint(1, 2))
                 for _ in range(3)]
        poles = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.randint(1, 2))
                 for _ in range(3)]
        f = _mero(zeros=zeros, poles=poles)
        plus, minus = jordan_decomposition(f.to_delta_subharmonic())
        pp = {a.point for a in plus.atoms}
        mm = {a.point for a in minus.atoms}
        assert not pp & mm


def test_jordan_identical_continuous_cancel_and_partial_overlap_raises():
    seg = UniformSegment((0.0, 0.0), (1.0, 0.0), 1.0)
    seg_heavier = UniformSegment((0.0, 0.0), (1.0, 0.0), 1.5)
    u = SubharmonicFn(None, BorelMeasure((seg_heavier,), 2))
    v = SubharmonicFn(None, BorelMeasure((seg,), 2))
    plus, minus = jordan_decomposition(DeltaSubharmonicFn(u, v))
    assert plus.mass == pytest.approx(0.5)
    assert minus.mass == 0.0

    overlapping = UniformSegment((0.5, 0.0), (1.5, 0.0), 1.0)
    v2 = SubharmonicFn(None, BorelMeasure((overlapping,), 2))
    with pytest.raises(UnsupportedModelError):
        jordan_decomposition(DeltaSubharmonicFn(u, v2))
    # disjoint continuous components on both sides are fine
    far = UniformSegment((0.0, 2.0), (1.0, 2.0), 1.0)
    v3 = SubharmonicFn(None, BorelMeasure((far,), 2))
    plus, minus = jordan_decomposition(DeltaSubharmonicFn(u, v3))
    assert plus.mass == pytest.approx(1.5) and minus.mass == pytest.approx(1.0)


def test_canonical_representation_examples():
    f = _mero(zeros=[(0j, 1)], poles=[(1 + 0j, 1)])
    U = f.to_delta_subharmonic()
    u_star, v_star = canonical_representation(U)
    assert [(a.point, a.weight) for a in u_star.riesz.atoms] == [((0.0, 0.0), 1.0)]
    assert [(a.point, a.weight) for a in v_star.riesz.atoms] == [((1.0, 0.0), 1.0)]
    assert v_star.harmonic is None

    # U = (log|z| + Re z) - log|z-1|: harmonic remainder goes to u*
    u = SubharmonicFn(HarmonicPolynomial((0j, 1 + 0j)),
                      BorelMeasure((Atom((0.0, 0.0), 1.0),), 2))
    v = SubharmonicFn(None, BorelMeasure((Atom((1.0, 0.0), 1.0),), 2))
    U2 = DeltaSubharmonicFn(u, v)
    u_star, v_star = canonical_representation(U2)
    rng = random.Random(32)
    X = np.array([(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)])
    orig, polar = U2.values_with_polar(X)
    canon = u_star.values(X) - v_star.values(X)
    keep = ~polar & np.isfinite(orig)
    assert canon[keep] == pytest.approx(orig[keep], abs=1e-12)


def test_canonical_identity_when_already_canonical():
    f = _mero(zeros=[(0.5 + 0j, 1)], poles=[(-0.5 + 0j, 1)])
    U = f.to_delta_subharmonic()
    u_star, v_star = canonical_representation(U)
    assert u_star.riesz == U.u.riesz
    assert v_star.riesz == U.v.riesz


@pytest.mark.parametrize("make", [
    lambda x: _mero(zeros=[(complex(x, 0.1), 1)]),
    lambda x: _mero(poles=[(complex(0.1, x), 1)]),
    lambda x: _mero(unit=complex(x, 0.0)),
    lambda x: _mero(exponent=(0j, complex(0.0, x))),
    lambda x: HarmonicPolynomial((0j, complex(x, 0.0))),
    lambda x: AffineHarmonic(x, (1.0, 0.0, 0.0)),
    lambda x: AffineHarmonic(0.0, (1.0, x, 0.0)),
], ids=["zero", "pole", "unit-factor", "exponent", "poly", "affine-constant",
        "affine-gradient"])
def test_function_models_reject_non_finite_numbers(make):
    # a nan zero makes U nan everywhere, where each check would print pass
    make(1.0)  # finite, accepted
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make(x)


def test_meromorphic_validation():
    with pytest.raises(ValueError):
        _mero(unit=0.0)
    with pytest.raises(ValueError):
        _mero(zeros=[(1 + 0j, 1)], poles=[(1 + 0j, 1)])
    with pytest.raises(ValueError):
        _mero(exponent=(1, 1, 1, 1, 1, 1))  # degree 5 > 4
    with pytest.raises(ValueError):
        _mero(zeros=[(0j, 0)])


def test_segment_potential_matches_quadrature():
    rng = random.Random(34)
    for d in (2, 3):
        for _ in range(6):
            a = tuple(rng.uniform(-1, 1) for _ in range(d))
            b = tuple(rng.uniform(-1, 1) for _ in range(d))
            if math.dist(a, b) < 0.3:
                continue
            comp = UniformSegment(a, b, rng.uniform(0.5, 2.0))
            mu = BorelMeasure((comp,), d)
            x = np.array([tuple(rng.uniform(-2, 2) for _ in range(d))])
            if d == 2:
                def integrand(s):
                    pts = np.asarray(a)[None, :] + s[:, None] * (
                        np.asarray(b) - np.asarray(a))[None, :]
                    return np.log(np.linalg.norm(pts - x[0], axis=1))
            else:
                def integrand(s):
                    pts = np.asarray(a)[None, :] + s[:, None] * (
                        np.asarray(b) - np.asarray(a))[None, :]
                    return -1.0 / np.linalg.norm(pts - x[0], axis=1)
            oracle = comp.weight * integrate_interval(integrand, 0.0, 1.0, (), 1e-11).value
            got = float(potential_values(mu, x)[0])
            assert got == pytest.approx(oracle, abs=1e-9)


def test_full_circle_potential_mean_value():
    comp = UniformArc((0.3, -0.2), 0.7, 0.0, 2 * math.pi, 1.3)
    mu = BorelMeasure((comp,), 2)
    inside = np.array([[0.4, -0.1]])
    outside = np.array([[2.0, 1.0]])
    assert potential_values(mu, inside)[0] == pytest.approx(
        1.3 * math.log(0.7), abs=1e-12)
    q = np.linalg.norm(outside[0] - np.array([0.3, -0.2]))
    assert potential_values(mu, outside)[0] == pytest.approx(
        1.3 * math.log(q), abs=1e-12)


def test_partial_arc_potential_matches_quadrature():
    comp = UniformArc((0.0, 0.0), 1.0, 0.3, 2.1, 2.0)
    mu = BorelMeasure((comp,), 2)
    x = np.array([[0.4, -0.7]])

    def integrand(theta):
        z = x[0, 0] + 1j * x[0, 1] - np.exp(1j * theta)
        return np.log(np.abs(z))

    oracle = 2.0 / comp.width * integrate_interval(
        integrand, 0.3, 2.1, (), 1e-11).value
    assert potential_values(mu, x)[0] == pytest.approx(oracle, abs=1e-9)


def test_ball_potential_closed_forms():
    # d=2 disk: W ln q outside, W (ln rho - 1/2 + q^2/(2 rho^2)) inside
    disk = BorelMeasure((UniformBall((0.0, 0.0), 1.0, 1.0),), 2)
    pts = np.array([[2.0, 0.0], [0.5, 0.0], [0.0, 0.0], [1.0, 0.0]])
    vals = potential_values(disk, pts)
    assert vals[0] == pytest.approx(math.log(2.0))
    assert vals[1] == pytest.approx(-0.5 + 0.125)
    assert vals[2] == pytest.approx(-0.5)
    assert vals[3] == pytest.approx(0.0, abs=1e-14)
    # d=3 ball: -W/q outside, -W (3 rho^2 - q^2)/(2 rho^3) inside
    ball = BorelMeasure((UniformBall((0.0, 0.0, 0.0), 1.0, 1.0),), 3)
    pts3 = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    vals3 = potential_values(ball, pts3)
    assert vals3[0] == pytest.approx(-0.5)
    assert vals3[1] == pytest.approx(-1.5)
    assert vals3[2] == pytest.approx(-(3.0 - 0.25) / 2.0)


def test_disk_potential_laplacian_is_density():
    # numerical Laplacian of the d=2 disk potential inside equals
    # 2 pi * density (Riesz normalization 1/(2 pi) Laplacian = density)
    disk = BorelMeasure((UniformBall((0.0, 0.0), 1.0, 1.0),), 2)
    h = 1e-4
    x0 = np.array([0.2, -0.1])
    stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0], x0 + [0, h], x0 - [0, h]])
    v = potential_values(disk, stencil)
    lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / (h * h)
    density = 1.0 / math.pi  # weight / (pi rho^2)
    assert lap == pytest.approx(2.0 * math.pi * density, rel=1e-4)


def test_segment_potential_on_segment_d2_finite_d3_minus_inf():
    seg2 = BorelMeasure((UniformSegment((-1.0, 0.0), (1.0, 0.0), 1.0),), 2)
    on = np.array([[0.2, 0.0]])
    assert math.isfinite(potential_values(seg2, on)[0])
    seg3 = BorelMeasure((UniformSegment((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.0),), 3)
    on3 = np.array([[0.2, 0.0, 0.0]])
    assert potential_values(seg3, on3)[0] == -math.inf


def test_segment_potential_d3_is_minus_inf_on_a_slanted_segment():
    # the origin lies on this segment, but its distance h from the line
    # rounds to ~1e-17, not 0: -inf up to rounding, finite just off it
    seg = UniformSegment((-0.5, 0.1, 0.0), (0.5, -0.1, 0.0), 1.0)
    on = np.array([[0.0, 0.0, 0.0], [0.5, -0.1, 0.0], [-0.25, 0.05, 0.0]])
    assert (seg.potential(on) == -np.inf).all()
    off = np.array([[0.0, 0.0, 1e-9], [0.6, -0.12, 0.0]])
    assert np.isfinite(seg.potential(off)).all()


def test_representation_equivalence_shared_harmonic():
    # (u + h) - (v + h) evaluates identically to u - v off polar sets
    rng = random.Random(35)
    base_u = SubharmonicFn(None, BorelMeasure((Atom((0.2, 0.1), 1.0),), 2))
    base_v = SubharmonicFn(None, BorelMeasure((Atom((-0.4, 0.3), 0.5),), 2))
    h = HarmonicPolynomial((0.3 + 0j, 0.2 - 0.1j, 0.05j))
    u_shift = SubharmonicFn(h, base_u.riesz)
    v_shift = SubharmonicFn(h, base_v.riesz)
    U = DeltaSubharmonicFn(base_u, base_v)
    U_shift = DeltaSubharmonicFn(u_shift, v_shift)
    X = np.array([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(20)])
    a, polar = U.values_with_polar(X)
    b = U_shift.values(X)
    keep = ~polar & np.isfinite(a)
    assert b[keep] == pytest.approx(a[keep], abs=1e-12)


def test_affine_harmonic_d3():
    aff = AffineHarmonic(1.0, (0.5, -0.25, 2.0))
    pts = np.array([[1.0, 2.0, 0.5]])
    assert aff.values(pts)[0] == pytest.approx(1.0 + 0.5 - 0.5 + 1.0)


def test_one_harmonic_kind_per_dimension():
    # a d=2 harmonic part is a polynomial, so a - b never mixes kinds
    with pytest.raises(ValueError, match="HarmonicPolynomial"):
        AffineHarmonic(1.0, (0.5, -0.25))
    a, b = AffineHarmonic(1.0, (0.5, -0.25, 2.0)), AffineHarmonic(0.25, (0.5, 1.0, -3.0))
    assert a + b == AffineHarmonic(1.25, (1.0, 0.75, -1.0))
    assert potentials._combine_harmonics(a, b) == AffineHarmonic(0.75, (0.0, -1.25, 5.0))
    assert potentials._combine_harmonics(None, b) == -b
    assert potentials._combine_harmonics(a, None) is a
    assert potentials._combine_harmonics(None, None) is None


def test_subharmonic_dimension_is_its_riesz_measures():
    # the zero measure states its dimension too: a model of another one is rejected
    assert SubharmonicFn(None, BorelMeasure((), 3)).dim == 3
    with pytest.raises(ValueError, match="dimension"):
        SubharmonicFn(AffineHarmonic(0.0, (1.0, 0.0, 0.0)), BorelMeasure((), 2))
    with pytest.raises(ValueError, match="dimension"):
        SubharmonicFn(HarmonicPolynomial((1.0,)), BorelMeasure((), 3))
    u3 = SubharmonicFn(None, BorelMeasure((Atom((0.1, 0.2, 0.3), 1.0),), 3))
    with pytest.raises(ValueError, match="dimension"):
        DeltaSubharmonicFn(u3, SubharmonicFn(None, BorelMeasure((), 2)))


@pytest.mark.parametrize("d", [2, 3])
def test_row_norms_equal_linalg_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    p = rng.uniform(-1.0, 1.0, d)
    pts = rng.uniform(-3.0, 3.0, (4096, d)) * 10.0 ** rng.integers(-4, 4, (4096, 1))
    pts[17] = p  # a point sitting on the atom
    dist = _distances(pts, p)
    assert np.array_equal(dist, np.linalg.norm(pts - p, axis=1))
    assert dist[17] == 0.0
    # the atom potential skips kernel's domain check but keeps its floats
    atom = Atom(tuple(p), 0.7)
    got = potential_values(BorelMeasure((atom,), d), pts)
    want = 0.7 * kernel(d, np.linalg.norm(pts - p, axis=1))
    assert np.array_equal(got, want)
    assert got[17] == -np.inf


def test_partial_arc_potential_of_a_point_is_independent_of_its_batch():
    arc = BorelMeasure((UniformArc((0.0, 0.0), 1.0, 0.2, 2.0, 1.0),), 2)
    far = np.array([[3.0, 0.5]])
    near = (1.0 + 1e-6) * np.array([[math.cos(1.0), math.sin(1.0)]])
    alone = potential_values(arc, far)
    together = potential_values(arc, np.vstack([far, near]))
    assert alone[0] == together[0]


@pytest.mark.parametrize("angles", [(0.2, 2.0), (-1.0, 3.5)])
def test_partial_arc_potential_matches_mpmath(angles):
    mp = pytest.importorskip("mpmath").mp
    a1, a2 = angles
    c, rho, w = np.array([0.3, -0.2]), 1.4, 1.3
    comp = UniformArc(tuple(c), rho, a1, a2, w)
    mid = 0.5 * (a1 + a2)

    def at(radius, ang):
        return c + radius * np.array([math.cos(ang), math.sin(ang)])

    # far, near the arc, on the arc, an endpoint, the centre
    pts = np.array([[3.0, 0.5], at(1.01 * rho, mid), at(rho, mid), at(rho, a1), c])
    got = potential_values(BorelMeasure((comp,), 2), pts)
    with mp.workdps(30):
        for p, value in zip(pts, got):
            z = mp.mpc(*(p - c))
            # split at the point's angle, where the integrand dips
            ang = a1 + (float(mp.arg(z)) - a1) % (2.0 * math.pi) if z != 0 else a1
            nodes = [a1, ang, a2] if a1 < ang < a2 else [a1, a2]
            ref = w * mp.quad(lambda a: mp.log(abs(z - rho * mp.expj(a))), nodes) / (a2 - a1)
            assert abs(value - float(ref)) <= 1e-14, p


def _batch_evaluators(d):
    """(label, points -> values) for every component potential and harmonic
    part in dimension d."""
    rng = np.random.default_rng(10 + d)
    a, b, c = (tuple(rng.uniform(-1.0, 1.0, d)) for _ in range(3))
    comps = [("atom", Atom(a, 0.7)), ("segment", UniformSegment(a, b, 0.9)),
             ("ball", UniformBall(c, 0.6, 1.1))]
    if d == 2:
        comps += [("full arc", UniformArc(c, 0.8, 0.0, 2.0 * math.pi, 0.5)),
                  ("partial arc", UniformArc(c, 0.8, -0.4, 2.3, 0.5))]
    out = [(name, comp.potential) for name, comp in comps]
    if d == 3:
        out.append(("affine", AffineHarmonic(0.3, tuple(rng.uniform(-2.0, 2.0, d))).values))
    else:
        out.append(("polynomial", HarmonicPolynomial((0.2, 1 - 0.5j, 0.3 + 0.1j)).values))
        f = _mero(zeros=[(0.4 + 0.1j, 2)], poles=[(-0.3 + 0.6j, 1)], unit=1.5,
                  exponent=(0.1, 0.2 - 0.3j))
        out.append(("log_abs", lambda pts: f.log_abs(pts[:, 0] + 1j * pts[:, 1])))
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_every_evaluator_is_node_by_node(d):
    # the batched engines and proof checks rely on a point's value being the
    # same floats whatever else shares its call
    rng = np.random.default_rng(d)
    pts = rng.uniform(-2.0, 2.0, (4096, d))
    differ = []
    for label, values in _batch_evaluators(d):
        together = values(pts)
        alone = np.concatenate([values(pts[i:i + 1]) for i in range(len(pts))])
        if not np.array_equal(together, alone, equal_nan=True):
            differ.append(label)
    assert differ == []


def _layout_model(d):
    """A U whose parts carry every component kind of dimension d and a
    harmonic part on both sides (d = 2), and more than _BLOCK points with polar ones (an
    atom of both parts) and infinite ones (an atom of v alone)."""
    rng = np.random.default_rng(20 + d)
    a, b, c, p = (tuple(rng.uniform(-1.0, 1.0, d)) for _ in range(4))
    u_comps = [Atom(p, 0.7), UniformSegment(a, b, 0.9), UniformBall(c, 0.6, 1.1)]
    v_comps = [Atom(p, 0.4), Atom(a, 0.5), UniformBall(b, 0.3, 0.8)]
    if d == 2:
        u_comps.append(UniformArc(c, 0.8, -0.4, 2.3, 0.5))
        v_comps.append(UniformArc(a, 0.5, 0.0, 2.0 * math.pi, 0.3))
        hu = HarmonicPolynomial((0.2, 1 - 0.5j, 0.3 + 0.1j))
        hv = HarmonicPolynomial((0.1, 0.4 + 0.7j))
    else:
        hu, hv = AffineHarmonic(0.3, tuple(rng.uniform(-2.0, 2.0, d))), None
    U = DeltaSubharmonicFn(SubharmonicFn(hu, BorelMeasure(tuple(u_comps), d)),
                           SubharmonicFn(hv, BorelMeasure(tuple(v_comps), d)))
    pts = rng.uniform(-2.0, 2.0, (potentials._BLOCK + 500, d))
    pts[::997] = p
    pts[5::997] = a
    return U, pts


@pytest.mark.parametrize("d", [2, 3])
def test_values_with_polar_is_the_same_for_every_layout_and_block(d):
    # column-major grids, blocked evaluation and in-place kernels are sound
    # only if a point's value and polar flag do not depend on either
    U, pts = _layout_model(d)
    given = {"C": np.ascontiguousarray(pts), "F": np.asfortranarray(pts)}
    vals, polar = U.values_with_polar(given["C"])
    # polar at p; at a, u's segment is finite in d = 2 and -inf in d = 3
    assert polar.sum() == (9 if d == 2 else 18)
    assert np.isposinf(vals).sum() == (9 if d == 2 else 0)
    f_vals, f_polar = U.values_with_polar(given["F"])
    rows = [U.values_with_polar(x) for x in pts]
    r_vals = np.concatenate([v for v, _ in rows])
    r_polar = np.concatenate([m for _, m in rows])
    for other_vals, other_polar in ((f_vals, f_polar), (r_vals, r_polar)):
        assert np.array_equal(other_vals, vals, equal_nan=True)
        assert np.array_equal(other_polar, polar)
    for layout, arr in given.items():
        assert np.array_equal(arr, pts), layout
