"""The verifier core: both sides of the main integral inequality

    integral over B(r) of U^+ d mu
        <= A_d(r, R) * T_U(r0, R) * ( M + integral_0^{R+r} h_mu(t) / t^{d-1} dt )

with A_d(r, R) = 2 ((R+r)/(R-r))^{d-1} max(1, (R-r)^{d-2}), its d=2 and
meromorphic specializations, the Poisson-Jensen identity, the pointwise
bound behind the proof, and the counting-measure lemma.  A seeded corpus
driver generates deterministic scenario batches.

Each check tag is one entry of one table (_CHECKS): the scenarios it applies
to and how its row is built.  The four UR-family tags (UR, UR2, UR2f, UR2fr)
share one left side, one Dini factor and one A_d and differ only in the
growth factor: T_U(r0, R), T(R, f) - N(r0, f) or T(R, f).  One function
assembles them from one per-scenario ingredient set whose members (the Dini
integral, the mu-integral of U^+ and C_{U^+}(R)) are each computed on first
use; every growth factor adds a counting term to the one C_{U^+}(R).

Verdict semantics, one rule (_verdict) for every row, Ux included, are
honest about quadrature error: "pass" requires the slack to clear the
combined error budget, a negative slack beyond the budget is "fail" (a
genuine counterexample, i.e. an implementation bug), anything inside the
budget or NaN is "inconclusive", an infinite right-hand side is "vacuous",
and a divergent Dini integral is "precondition-failed".

Scenario and Tolerances state the theorem's hypotheses once, each as a
ScenarioError (geometry's coded ValueError) that the JSON reader passes on.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import potentials
from .characteristics import (
    _path_integral,
    _sphere_means,
    _split,
    nevanlinna_N,
    spherical_mean,
)
from .geometry import ScenarioError, _check_dimension, _d_hat, _distances, _dots, ext_mul, kernel
from .measures import (
    Atom,
    BorelMeasure,
    UniformArc,
    UniformBall,
    UniformSegment,
    dini_integral_result,
    integrated_counting_result,
    radial_counting,
)
from .potentials import (
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    MeromorphicFn,
    SubharmonicFn,
    jordan_decomposition,
    potential_values,
)
from .quadrature import _ROUNDING, QuadratureResult, _gl_nodes

__all__ = [
    "CorpusConfig",
    "PointReport",
    "Scenario",
    "ScenarioError",
    "Tolerances",
    "VerificationReport",
    "constant_A",
    "generate_scenario",
    "positive_part_integral",
    "run_checks",
    "run_corpus",
    "verify_counting_lemma",
    "verify_main_theorem",
    "verify_pointwise_bound",
    "verify_poisson_jensen",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
VACUOUS = "vacuous"
PRECONDITION_FAILED = "precondition-failed"
VERDICTS = (PASS, FAIL, INCONCLUSIVE, VACUOUS, PRECONDITION_FAILED)

DEFAULT_FAMILIES = ("ef_arc", "segment", "disk", "disk_union")
FAMILIES = DEFAULT_FAMILIES + ("charges", "atomic_mu")
_UX_MAX_RELATIVE = 1e-6  # the largest relative Poisson-Jensen residual that passes


def _check_known(names: Sequence[str], known: tuple, what: str):
    """ValueError naming the first of names that known does not hold."""
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {what} {name!r}")


@dataclass(frozen=True)
class Tolerances:
    mean: float = 1e-8   # absolute, circle/sphere means

    def __post_init__(self):
        if not 0.0 < self.mean < math.inf:  # False for NaN too
            raise ScenarioError("TOLERANCES",
                                f"tolerances.mean must be finite and > 0, got {self.mean!r}")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    U: DeltaSubharmonicFn
    mu: BorelMeasure
    r: float
    R: float
    f: Optional[MeromorphicFn] = None
    r0: Optional[float] = None
    tolerances: Tolerances = Tolerances()
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.r < self.R < math.inf:
            raise ScenarioError("RADII_ORDER", f"need 0 < r < R < inf, got r={self.r}, R={self.R}")
        if self.r0 is not None and not 0.0 <= self.r0 <= self.r:
            raise ScenarioError("RADII_ORDER", f"r0 must lie in [0, r], got {self.r0}")
        if self.mu.support_radius > self.r * (1.0 + 1e-12):
            raise ScenarioError("SUPPORT_OUTSIDE_BALL", f"measure support radius "
                                f"{self.mu.support_radius} exceeds r={self.r}")
        if self.seed is not None and type(self.seed) is not int:  # a bool is no seed
            raise ScenarioError("SEED", f"seed must be an integer or null, got {self.seed!r}")
        if self.mu.dim != self.U.dim:
            raise ScenarioError("DIMENSION", f"mu must have U's dimension {self.U.dim}, "
                                f"got {self.mu.dim}")
        if self.f is not None and self.U is not self.f.to_delta_subharmonic():
            raise ValueError("U must be log|f|, the model f.to_delta_subharmonic() returns")


@dataclass
class VerificationReport:
    scenario_id: str
    inequality: str
    lhs: float
    rhs: float
    slack: float
    error_budget: float
    verdict: str
    components: dict = field(default_factory=dict)
    wall_time_ms: int = 0
    note: str = ""


def constant_A(d: int, r: float, R: float) -> float:
    """A_d(r, R) = 2 ((R+r)/(R-r))^{d-1} max(1, (R-r)^{d-2});
    reduces to 2 (R+r)/(R-r) for d=2."""
    _check_dimension(d)
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R, got ({r}, {R})")
    return 2.0 * ((R + r) / (R - r)) ** (d - 1) * max(1.0, (R - r) ** (d - 2))


def _verdict(slack: float, budget: float) -> str:
    if math.isnan(slack):
        return INCONCLUSIVE
    if slack > budget or (slack >= 0.0 and budget == 0.0):
        return PASS
    if slack < -budget:
        return FAIL
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# left-hand side: integral of U^+ against mu


def _ball_integral(U, comp: UniformBall, tol: float) -> QuadratureResult:
    """Tensor-product rule over the solid ball: composite Gauss-Legendre in
    the radius (panels split at charge-atom distances) x equispaced angles,
    doubled together until the value is stable.  The U^+ kink curves limit
    angular convergence to O(n^-2), which the doubling estimate reflects.

    Each level walks its grid in row blocks.  A row is one circle of angles:
    a radial node in 2-d, a (radius, cos theta) pair of the polar rule in
    3-d.  A block holds as many rows as fit in potentials._BLOCK new points
    (at least one), and each row is summed as soon as its samples are in.
    Once the radial rule stops changing (it is capped at 48 nodes), a
    doubling evaluates only the new odd angles: 2 pi (2j) / 2n is exactly
    2 pi j / n, so the even ones are the previous level's samples, the only
    ones a level keeps, and only if a level can follow it."""
    c = np.asarray(comp.center)
    rho = comp.radius
    dim = comp.dim
    breaks = sorted({q for q in _distances(_split(U).points, c).tolist() if 0.0 < q < rho})
    edges = [0.0] + breaks + [rho]
    u, uw = _gl_nodes(-1.0, 1.0, 48)  # polar rule in 3-d, the same at every level
    sin_u = np.sqrt(np.maximum(0.0, 1.0 - u ** 2))

    prev = None
    nodes = 0
    kept: dict = {}  # radial panel -> its rows at the previous level
    for level in range(7):
        n_q, n_a = min(8 << level, 48), 128 << level
        reuse = level >= 4  # n_q reached 48 a level ago
        angles = 2.0 * math.pi * np.arange(n_a) / n_a
        new = angles[1::2] if reuse else angles
        cos, sin = np.cos(new), np.sin(new)
        step = max(1, potentials._BLOCK // new.size)
        total = 0.0
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            if hi - lo <= 1e-15 * rho:
                continue
            qs, qw = _gl_nodes(lo, hi, n_q)
            # per row: the radius in the plane of the angles and, in 3-d, the height
            rows = [qs] if dim == 2 else [(qs[:, None] * sin_u).ravel(), (qs[:, None] * u).ravel()]
            means = np.empty(rows[0].size)
            store = np.empty((means.size, n_a)) if 3 <= level < 6 else None  # level + 1 reuses it
            for b in (slice(i, i + step) for i in range(0, means.size, step)):
                r_xy = rows[0][b, None]
                coords = np.empty((dim, r_xy.size, new.size))  # column-major points
                np.multiply(r_xy, cos, out=coords[0])
                np.multiply(r_xy, sin, out=coords[1])
                if dim == 3:
                    coords[2] = rows[1][b, None]
                for j in range(dim):
                    coords[j] += c[j]
                vals = U.positive_values(coords.reshape(dim, -1).T).reshape(r_xy.size, -1)
                np.copyto(vals, 0.0, where=~np.isfinite(vals))  # measure-zero nodes
                nodes += vals.size
                if reuse:
                    block = np.empty((r_xy.size, n_a)) if store is None else store[b]
                    block[:, 0::2] = kept[k][b]
                    block[:, 1::2] = vals
                    vals = block
                elif store is not None:
                    store[b] = vals
                np.add.reduce(vals, axis=1, out=means[b])  # the sum np.mean takes
            means /= n_a
            kept[k] = store
            if dim == 2:
                total += float(_dots(qw, 2.0 * qs / (rho * rho) * means))
            else:
                shell = 0.5 * _dots(means.reshape(n_q, -1), uw)
                total += float(_dots(qw, 3.0 * qs ** 2 / rho ** 3 * shell))
        diff = math.inf if prev is None else abs(total - prev)
        prev = total
        if diff <= tol / max(comp.weight, 1e-300):
            break
    # converged, or the last change when the levels run out
    return QuadratureResult(comp.weight * prev, comp.weight * max(diff, _ROUNDING * abs(prev)),
                            nodes)


def positive_part_integral(U: DeltaSubharmonicFn, mu: BorelMeasure,
                           tol: float = 1e-8) -> QuadratureResult:
    """integral of U^+ d mu: exact weighted point values on atoms, U^+ at
    all of them from one call, U over its positive pieces along segments and
    arcs against each one's uniform measure (_path_integral, the rule of
    C_{U^+}), nested product quadrature over balls, walked in row blocks of
    at most potentials._BLOCK points (_ball_integral); the terms are added in
    component order."""
    total = QuadratureResult(0.0, 0.0, 0)
    atoms = mu.atoms
    at_atoms = iter(U.positive_values(np.array([a.point for a in atoms])).tolist()
                    if atoms else ())
    for comp in mu.components:
        if isinstance(comp, Atom):
            total.value += comp.weight * next(at_atoms)
            total.nodes_used += 1
        elif isinstance(comp, UniformBall):
            total = total + _ball_integral(U, comp, tol)
        else:
            total = total + _path_integral(U.values, _split(U), comp, tol)
    return total


# ---------------------------------------------------------------------------
# the main theorem and its specializations


class _Ingredients:
    """The UR-family ingredients of one scenario, each computed on first use
    and then shared by every tag that needs it (growth factors are (value,
    error) pairs), and the seeded stream of the proof rows' sample points."""

    def __init__(self, s: Scenario):
        self.s = s
        self.r_growth = s.r0 if s.r0 is not None else s.r
        self._rng = random.Random(f"points:{s.seed}:{s.scenario_id}")

    def sample_points(self) -> list:  # the stream's next 20 random points of B(0, r)
        return [_point_in_ball(self._rng, self.s.r, self.s.U.dim) for _ in range(20)]

    @cached_property
    def dini(self) -> QuadratureResult:
        s = self.s
        return dini_integral_result(s.mu, s.R + s.r)

    @cached_property
    def lhs(self) -> QuadratureResult:
        return positive_part_integral(self.s.U, self.s.mu, self.s.tolerances.mean)

    @cached_property
    def C_plus(self):
        """C_{U^+}(R), which is m(R, f) when U = log|f|."""
        s = self.s
        return spherical_mean(s.U, s.R, "positive", s.tolerances.mean)

    @cached_property
    def T_U(self) -> tuple:
        """T_U(r0 or r, R) = C_{U^+}(R) + N_{charge^-}(r0 or r, R)."""
        s = self.s
        _plus, minus = jordan_decomposition(s.U)
        N = integrated_counting_result(minus, self.r_growth, s.R)
        return (self.C_plus.value + N.value,
                self.C_plus.error_estimate + N.error_estimate)

    @cached_property
    def T_f(self) -> tuple:
        """T(R, f) = C_{U^+}(R) + N(R, f)."""
        N = nevanlinna_N(self.s.f, self.s.R)
        return (self.C_plus.value + N.value,
                self.C_plus.error_estimate + N.error_estimate)

    @property
    def T_f_minus_N(self) -> tuple:
        """T(R, f) - N(r0 or r, f); +inf when N(0, f) = -inf (a pole at 0)."""
        N = nevanlinna_N(self.s.f, self.r_growth)
        T, T_err = self.T_f
        return T - N.value, T_err + N.error_estimate


def _ur_report(tag: str, ing: _Ingredients) -> VerificationReport:
    """lhs = integral of U^+ d mu, rhs = A * growth * (M + dini) with the
    extended-real conventions, for the growth factor and preconditions of
    the tag's _CHECKS entry; run_checks skips a tag that does not apply."""
    s = ing.s
    check = _CHECKS[tag]
    if check.hypothesis is not None and (note := check.hypothesis(s)):
        return VerificationReport(s.scenario_id, tag, math.nan, math.nan,
                                  math.nan, 0.0, PRECONDITION_FAILED, note=note)
    dini = ing.dini
    if math.isinf(dini.value):
        got = ing.lhs.value if not s.mu.continuous.components and not check.needs_f else math.nan
        return VerificationReport(s.scenario_id, tag, got, math.inf, math.inf, 0.0,
                                  PRECONDITION_FAILED, {"dini": math.inf},
                                  note="Dini integral diverges")
    lhs = ing.lhs
    growth, growth_err = getattr(ing, check.growth)
    A = constant_A(s.U.dim, s.r, s.R)
    M = s.mu.mass
    components = {"A": A, "T": growth, "M": M, "dini": dini.value}
    factor = M + dini.value
    if factor == 0.0:
        rhs = 0.0  # mu = 0: 0 * (anything, even +inf) = 0 by convention
        budget = lhs.error_estimate
    elif math.isinf(growth):
        return VerificationReport(s.scenario_id, tag, lhs.value, math.inf,
                                  math.inf, lhs.error_estimate, VACUOUS,
                                  components, note="infinite growth factor")
    else:
        rhs = A * growth * factor
        budget = (lhs.error_estimate
                  + A * (growth_err * factor + abs(growth) * dini.error_estimate))
    slack = rhs - lhs.value
    return VerificationReport(s.scenario_id, tag, lhs.value, rhs, slack,
                              budget, _verdict(slack, budget), components)


def verify_main_theorem(s: Scenario) -> VerificationReport:
    """The UR row, DEFAULT_CHECKS[0]: integral of U^+ d mu <= A_d T_U(r0, R) (M + Dini)."""
    return _ur_report(DEFAULT_CHECKS[0], _Ingredients(s))


# ---------------------------------------------------------------------------
# proof-ingredient checks, and the table of every check tag


@dataclass
class PointReport:
    """Per-sample-point outcome of an identity or pointwise-bound check."""

    points: list
    residuals: list          # lhs - rhs (identity) or rhs - lhs (bound slack)
    skipped: list
    max_relative: float
    verdict: str
    slack: float             # the one the verdict judged, NaN if any residual is
    budget: float = 0.0      # the bound check's allowance for the worst slack


def _finite_values(U: DeltaSubharmonicFn, sample_points: Sequence):
    """U at all sample points in one call: the kept points (n, d) and their
    values (n,), and the skipped ones (polar or non-finite) as tuples."""
    X = np.array(sample_points, dtype=float).reshape(len(sample_points), U.dim)
    vals, polar = U.values_with_polar(X)
    keep = ~polar & np.isfinite(vals)
    return X[keep], vals[keep], [tuple(x) for x in X[~keep].tolist()]


def _reflected_potentials(nu: BorelMeasure, X: np.ndarray, R: float) -> np.ndarray:
    """integral of k(|R y/|y| - |y| x / R|) d nu(y) at each row x of X, via
    the symmetry |R y/|y| - |y| x / R| = (|x|/R) |x* - y| with
    x* = R^2 x / |x|^2; the potentials at all x* in one call."""
    q = _distances(X, 0.0)
    far = q != 0.0
    out = np.full(len(X), nu.mass * float(kernel(nu.dim, R)))  # q == 0
    q = q[far]
    pot = potential_values(nu, (R * R / (q * q))[:, None] * X[far])
    if nu.dim == 2:  # libm's log, as numpy's own depends on the CPU's SIMD loops
        out[far] = nu.mass * np.array([math.log(v) for v in (q / R).tolist()]) + pot
    else:
        out[far] = (R / q) * pot
    return out


def verify_poisson_jensen(U: DeltaSubharmonicFn, R: float,
                          sample_points: Sequence, tol: float = 1e-8) -> PointReport:
    """Residual of the Poisson-Jensen representation at each sample point:

        U(x) = Poisson boundary integral
               - integral of (k(reflected) - k(|y-x|)) d charge(y),

    i.e. the harmonic majorant minus the positive-Green-function potential of
    the Riesz charge (subharmonic parts sit below their Poisson integral).

    U at the sample points and each charge part's potentials are one call
    each, and the Poisson integrals of all points are the rows of one
    boundary mean: U is evaluated once per node set."""
    d = U.dim
    plus, minus = jordan_decomposition(U)
    X, lhs, skipped = _finite_values(U, sample_points)
    green = np.zeros(len(X))
    for nu, sign in ((plus, 1.0), (minus, -1.0)):
        if nu.mass != 0.0:
            green -= sign * (_reflected_potentials(nu, X, R) - potential_values(nu, X))
    # the kernel's numerator at each point, as a column
    q2 = _dots(X, X)[:, None]
    num = R * R - q2 if d == 2 else R * (R * R - q2)

    def poisson(y):
        v = y - X[:, None, :]
        dist2 = _dots(v, v)
        vals, polar = U.values_with_polar(y)
        kern = num / dist2 if d == 2 else num / np.sqrt(dist2) ** 3
        return np.where(polar, np.nan, kern * vals)

    boundary = np.array([b.value for b in _sphere_means(poisson, R, d, tol)])
    residuals = lhs - (boundary + green)
    relative = np.abs(residuals) / np.maximum(1.0, np.abs(lhs))
    max_rel = float(relative.max(initial=0.0))
    slack = _UX_MAX_RELATIVE - max_rel
    return PointReport([tuple(x) for x in X.tolist()], residuals.tolist(), skipped,
                       max_rel, _verdict(slack, 0.0), slack)


def verify_pointwise_bound(U: DeltaSubharmonicFn, r: float, R: float,
                           sample_points: Sequence, tol: float = 1e-8) -> PointReport:
    """U^+(x) <= R^{d-2}(R+r)/(R-r)^{d-1} C_{U^+}(R)
    + integral (k(R+r) - k(|y-x|)) d charge^-(y), at each x in B(r).  The
    verdict is _verdict of the worst slack against the budget, the
    coefficient times C_{U^+}(R)'s error estimate."""
    if not 0.0 < r < R:
        raise ValueError(f"need 0 < r < R, got ({r}, {R})")
    d = U.dim
    _plus, minus = jordan_decomposition(U)
    c_plus = spherical_mean(U, R, "positive", tol)
    coeff = R ** (d - 2) * (R + r) / (R - r) ** (d - 1)
    k_Rr = float(kernel(d, R + r))
    X, lhs, skipped = _finite_values(U, sample_points)
    rhs = coeff * c_plus.value + (k_Rr * minus.mass - potential_values(minus, X))
    slacks = rhs - np.maximum(lhs, 0.0)
    relative = slacks / np.maximum(1.0, np.abs(rhs))
    budget = coeff * c_plus.error_estimate
    worst = float(slacks.min()) if len(X) else 0.0
    return PointReport([tuple(x) for x in X.tolist()], slacks.tolist(), skipped,
                       float(np.abs(relative).max(initial=0.0)), _verdict(worst, budget),
                       worst, budget)


def verify_counting_lemma(delta: BorelMeasure, R_star: float, R: float) -> VerificationReport:
    """delta^rad(R*) <= R^{d-1} / (d_hat (R - R*)) * N_delta(R*, R), d = delta.dim;
    the report leaves the scenario and the tag to the dBr row of run_checks."""
    if not 0.0 < R_star < R:
        raise ValueError(f"need 0 < R_star < R, got ({R_star}, {R})")
    d = delta.dim
    lhs = float(radial_counting(delta, (0.0,) * d, R_star))
    n = integrated_counting_result(delta, R_star, R)
    coeff = R ** (d - 1) / (_d_hat(d) * (R - R_star))
    rhs = ext_mul(coeff, n.value)
    slack = rhs - lhs
    budget = coeff * n.error_estimate
    if lhs != 0.0 or rhs != 0.0:
        budget += 4e-16 * (abs(lhs) + abs(rhs))  # rounding allowance on ties
    return VerificationReport("", "", lhs, rhs, slack, budget,
                              _verdict(slack, budget),
                              {"N": n.value, "coeff": coeff})


def _poisson_jensen_row(tag: str, ing: _Ingredients) -> VerificationReport:
    s = ing.s
    pr = verify_poisson_jensen(s.U, s.R, ing.sample_points(), s.tolerances.mean)
    return VerificationReport(s.scenario_id, tag, pr.max_relative, _UX_MAX_RELATIVE,
                              pr.slack, 0.0, pr.verdict, {"skipped": len(pr.skipped)})


def _pointwise_bound_row(tag: str, ing: _Ingredients) -> VerificationReport:
    s = ing.s
    pr = verify_pointwise_bound(s.U, s.r, s.R, ing.sample_points(), s.tolerances.mean)
    return VerificationReport(s.scenario_id, tag, -pr.slack, 0.0, pr.slack,
                              pr.budget, pr.verdict, {"skipped": len(pr.skipped)})


def _counting_lemma_row(tag: str, ing: _Ingredients) -> VerificationReport:
    s = ing.s
    _plus, minus = jordan_decomposition(s.U)
    rep = verify_counting_lemma(minus, s.r, s.R)  # delta = charge^-, R* = r
    rep.scenario_id, rep.inequality = s.scenario_id, tag
    return rep


# Each check tag once: d = 2 only; needs a meromorphic f; row(tag, ingredients)
# builds its row; a UR-family row (_ur_report) reads the _Ingredients growth
# factor and the tag's own hypothesis, s -> the note of its failure or ''.
_Check = namedtuple("_Check", "planar needs_f row growth hypothesis")
_CHECKS = {
    "UR": _Check(False, False, _ur_report, "T_U", None),
    "UR2": _Check(True, False, _ur_report, "T_U", None),  # A_d is already its d = 2 form
    "UR2f": _Check(True, True, _ur_report, "T_f_minus_N", None),
    "UR2fr": _Check(True, True, _ur_report, "T_f", lambda s: "needs r >= 1 or f(0) finite"
                    if s.r < 1.0 and s.f.pole_count(0.0) > 0 else ""),
    "Ux": _Check(False, False, _poisson_jensen_row, "", None),
    "U+B": _Check(False, False, _pointwise_bound_row, "", None),
    "dBr": _Check(False, False, _counting_lemma_row, "", None),
}
ALL_CHECKS = tuple(_CHECKS)
DEFAULT_CHECKS = tuple(tag for tag, check in _CHECKS.items() if check.growth)  # the UR family


# ---------------------------------------------------------------------------
# scenario generation and the corpus driver


def _clear_point(rng: random.Random, R: float, mu: BorelMeasure,
                 margin: float) -> complex:
    """A point of B(0.8 R) at least 0.05 from the origin and margin from the
    support of mu, by rejection: where the generators put zeros, poles and
    charge atoms."""
    while True:
        z = complex(*_point_in_ball(rng, 0.8 * R, 2))
        p = np.array([z.real, z.imag])
        if abs(z) >= 0.05 and min((c.distance_to(p) for c in mu.components),
                                  default=math.inf) >= margin:
            return z


def _random_measure(rng: random.Random, family: str, r: float) -> BorelMeasure:
    if family == "ef_arc":
        rho = r * rng.uniform(0.55, 1.0)
        width = rng.uniform(0.3, 2.0 * math.pi)
        start = rng.uniform(0.0, 2.0 * math.pi)
        return BorelMeasure((UniformArc((0.0, 0.0), rho, start, start + width, width),), 2)
    if family == "segment":
        while True:
            ang1, ang2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            q1, q2 = rng.uniform(0, 0.9 * r), rng.uniform(0, 0.9 * r)
            a = (q1 * math.cos(ang1), q1 * math.sin(ang1))
            b = (q2 * math.cos(ang2), q2 * math.sin(ang2))
            if _distances(a, b) >= 0.2 * r:
                return BorelMeasure((UniformSegment(a, b, rng.uniform(0.5, 2.0)),), 2)
    if family == "disk":
        qc = rng.uniform(0.0, 0.6 * r)
        ang = rng.uniform(0, 2 * math.pi)
        center = (qc * math.cos(ang), qc * math.sin(ang))
        rho = rng.uniform(0.2, 0.9) * (r - qc)
        return BorelMeasure((UniformBall(center, rho, rng.uniform(0.5, 2.0)),), 2)
    # disk_union
    disks: list = []
    attempts = 0
    want = rng.randint(2, 3)
    while len(disks) < want and attempts < 200:
        attempts += 1
        qc = rng.uniform(0.0, 0.7 * r)
        ang = rng.uniform(0, 2 * math.pi)
        center = (qc * math.cos(ang), qc * math.sin(ang))
        rho = rng.uniform(0.1, 0.5) * (r - qc)
        if all(_distances(center, d.center) > rho + d.radius + 0.05 * r for d in disks):
            disks.append(UniformBall(center, rho, rng.uniform(0.3, 1.0)))
    return BorelMeasure(tuple(disks), 2)


def _random_rational(rng: random.Random, R: float, mu: BorelMeasure,
                     margin: float) -> MeromorphicFn:
    """Zeros/poles uniform in B(0.8 R), degrees <= 6, kept clear of the
    origin and of the support of mu by rejection."""
    n_zero = rng.randint(0, 3)
    n_pole = rng.randint(0, 3)
    if n_zero + n_pole == 0:
        n_zero = 1

    zeros = tuple((_clear_point(rng, R, mu, margin), rng.choice([1, 1, 2]))
                  for _ in range(n_zero))
    poles = []
    taken = {a for a, _ in zeros}
    for _ in range(n_pole):
        while True:
            b = _clear_point(rng, R, mu, margin)
            if b not in taken:
                break
        taken.add(b)
        poles.append((b, rng.choice([1, 1, 2])))
    unit = rng.uniform(0.4, 2.5) * complex(math.cos(rng.uniform(0, 2 * math.pi)),
                                           math.sin(rng.uniform(0, 2 * math.pi)))
    exponent: tuple = ()
    if rng.random() < 0.4:
        deg = rng.randint(1, 2)
        exponent = tuple(complex(rng.uniform(-0.4, 0.4) / R ** k,
                                 rng.uniform(-0.4, 0.4) / R ** k)
                         for k in range(deg + 1))
    return MeromorphicFn(zeros, tuple(poles), unit, exponent)


def _random_charge_pair(rng: random.Random, R: float, mu: BorelMeasure,
                        margin: float):
    """Random atomic Riesz charges (plus a small harmonic part) clear of the
    support of mu: a non-meromorphic delta-subharmonic scenario family."""
    def draw_atoms(count):
        atoms = []
        for _ in range(count):
            z = _clear_point(rng, R, mu, margin)
            atoms.append(Atom((z.real, z.imag), rng.uniform(0.2, 1.5)))
        return tuple(atoms)

    harmonic = HarmonicPolynomial((complex(rng.uniform(-0.5, 0.5)),
                                   complex(rng.uniform(-0.3, 0.3) / R,
                                           rng.uniform(-0.3, 0.3) / R)))
    u = SubharmonicFn(harmonic, BorelMeasure(draw_atoms(rng.randint(1, 3)), 2))
    v = SubharmonicFn(None, BorelMeasure(draw_atoms(rng.randint(0, 3)), 2))
    return DeltaSubharmonicFn(u, v)


def generate_scenario(seed: int, index: int, family: str,
                      tolerances: Tolerances = Tolerances()) -> Scenario:
    """Deterministic scenario from (seed, index, family).

    Measure families: ef_arc (Edrei-Fuchs-style arc), segment,
    disk / disk_union (planar-Lebesgue-style).  All of those carry a random
    rational f.  Two extra families: "charges" (random atomic Riesz charges,
    non-meromorphic, UR/UR2 checks only) and "atomic_mu" (purely atomic
    measure, exercising the expected Dini precondition failure).
    """
    _check_known((family,), FAMILIES, "scenario family")
    rng = random.Random(f"{seed}:{index}:{family}")
    r = rng.uniform(0.8, 2.0)
    R = r * rng.uniform(1.8, 3.0)
    if family == "charges":
        sub_family = ("segment", "disk", "ef_arc")[index % 3]
        mu = _random_measure(rng, sub_family, r)
        U = _random_charge_pair(rng, R, mu, margin=0.05 * r)
        f = None
    elif family == "atomic_mu":
        mu = BorelMeasure(tuple(
            Atom((rng.uniform(-0.6, 0.6) * r, rng.uniform(-0.6, 0.6) * r),
                 rng.uniform(0.2, 1.0))
            for _ in range(rng.randint(1, 5))), 2)
        f = _random_rational(rng, R, mu, margin=0.05 * r)
        U = f.to_delta_subharmonic()
    else:
        mu = _random_measure(rng, family, r)
        f = _random_rational(rng, R, mu, margin=0.05 * r)
        U = f.to_delta_subharmonic()
    r0 = rng.choice([None, 0.0, 0.5])
    if r0 == 0.5:
        r0 = 0.5 * r
    return Scenario(
        scenario_id=f"s{index:04d}-{family}",
        U=U, mu=mu, r=r, R=R, f=f, r0=r0,
        tolerances=tolerances, seed=seed,
    )


def run_checks(s: Scenario, checks: Sequence[str], timing: bool = False) -> list:
    """Evaluate the requested check tags that apply to one scenario (_CHECKS).

    The UR-family tags share one ingredient set: the Dini integral, the
    mu-integral of U^+ and C_{U^+}(R) are each computed once, inside the
    first row that needs them, so that row's wall_time_ms includes it.
    """
    _check_known(checks, ALL_CHECKS, "check tag")
    reports = []
    ingredients = _Ingredients(s)
    for tag in checks:
        check = _CHECKS[tag]
        if check.planar and s.U.dim != 2 or check.needs_f and s.f is None:
            continue
        start = time.perf_counter()
        rep = check.row(tag, ingredients)
        if timing:
            rep.wall_time_ms = int(round(1000.0 * (time.perf_counter() - start)))
        reports.append(rep)
    return reports


def _point_in_ball(rng: random.Random, r: float, d: int):
    while True:
        p = tuple(rng.uniform(-r, r) for _ in range(d))
        if sum(c * c for c in p) <= r * r:
            return p


@dataclass(frozen=True)
class CorpusConfig:
    count: int = 200
    families: tuple = DEFAULT_FAMILIES
    checks: tuple = DEFAULT_CHECKS
    tolerances: Tolerances = Tolerances()
    timing: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"corpus --count must be >= 1, got {self.count}")
        if not self.families:
            raise ValueError("a corpus needs at least one scenario family")
        _check_known(self.families, FAMILIES, "scenario family")
        _check_known(self.checks, ALL_CHECKS, "check tag")


def run_corpus(config: CorpusConfig, seed: int) -> list:
    """Deterministic scenario batch; reports in scenario-index order."""
    families = config.families
    scenarios = (generate_scenario(seed, index, families[index % len(families)],
                                   config.tolerances) for index in range(config.count))
    return [rep for s in scenarios for rep in run_checks(s, config.checks, timing=config.timing)]
