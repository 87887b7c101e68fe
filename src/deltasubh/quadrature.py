"""Numerical integration engines shared by the characteristic functionals.

Four entry points:

* integrate_interval -- adaptive Gauss-Legendre on [a, b] cut at given piece
  ends, for integrands smooth on each piece (no engine takes singular points);
* circle_mean -- (1/2pi) integral over a full period, spectral periodic
  trapezoid with Richardson-style doubling;
* sphere_mean_3d -- product Gauss-Legendre (polar) x trapezoid (azimuth)
  mean over the unit 2-sphere with doubling;
* sphere_sup -- one dense scan of the sphere and one golden-section
  refinement around the top 8 scan nodes, the dimension choosing only the
  grid, the candidate rule and the passes; returns a lower bound of the sup
  whose refinement gap is below the requested tolerance.

All integrands are VECTORIZED callables: f(ndarray) -> ndarray (for
sphere_mean_3d, f(theta_array, phi_array) -> array).  circle_mean and
sphere_mean_3d are the one-row case of the row-batched rules _circle_means
and _sphere_means_3d, whose integrand gives an (m, n) array at n nodes and
which return one result per row: each row doubles until it is stable, and
keeps its value, estimate and nodes from the level where it stopped.

integrate_interval (through _integrate_pieces, whose pieces carry their own
tolerances) refines all its pieces together, breadth-first over flat
per-panel lists that name each panel's piece: one call of f per level
evaluates the halves of every open panel.  Nothing is evaluated ahead of a
stop rule, and sums are formed in the order of one panel per call and one
piece after another, so the results equal that order's bit for bit when f
acts node by node.  Every weighted sum of a rule (a GL panel, the polar
rule of a sphere row) is geometry._dots, its terms added left to right, so
it does not depend on the other panels or rows of its call, nor on BLAS.

Values of +-inf at a node mean the node landed exactly on a polar point;
every engine nudges such nodes through _nudge, by an ulp-scale offset, and
logs the event, per the polar set policy (any finite node set may be safely
adjusted); the 3-d sphere rule moves cos(theta) and keeps phi.

Every accepted result carries error_estimate, a doubling-based heuristic
bound: the change under one more refinement, and at least 16 eps |value|.
A run that does not converge (a panel still above its tolerance at the
resolution floor, the node budget spent, a non-finite integrand after the
nudge) raises QuadratureBudgetError, whose message is all it carries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .geometry import _dots

logger = logging.getLogger(__name__)

__all__ = [
    "QuadratureBudgetError",
    "QuadratureResult",
    "circle_mean",
    "integrate_interval",
    "sphere_mean_3d",
    "sphere_sup",
]

TWO_PI = 2.0 * math.pi

# hard caps; accepted runs in this artifact stay far below them
_MAX_NODES = 2_000_000
_MAX_TRAP = 2 ** 18
_ROUNDING = 16.0 * float(np.finfo(float).eps)  # error estimates are >= _ROUNDING * |value|
_RESOLUTION = 1e-14  # relative panel width below which _integrate_pieces refines no further


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    nodes_used: int

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            self.value + other.value,
            self.error_estimate + other.error_estimate,
            self.nodes_used + other.nodes_used,
        )

    def scaled(self, c: float) -> "QuadratureResult":
        return QuadratureResult(c * self.value, abs(c) * self.error_estimate, self.nodes_used)


class QuadratureBudgetError(RuntimeError):
    """The integral did not converge: node budget, resolution floor or a
    non-finite integrand; the message says which."""


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights of order n mapped to [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _nudge(f, x: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """y = f(x) with its non-finite entries re-evaluated at nodes moved by an
    ulp-scale offset; the offset is taken from x alone (one panel's nodes).
    y may hold rows of values at the nodes x: a node is moved where any row
    is non-finite, and only the non-finite entries are replaced."""
    bad = ~np.isfinite(y)
    n_bad = int(bad.sum())
    for step in (1e-13, -1e-13, 1e-11, -1e-11):
        moved = bad.reshape(-1, x.size).any(axis=0)
        xs = np.where(moved, x + step * max(scale, abs(float(np.max(np.abs(x)))), 1.0), x)
        y = np.where(bad, np.asarray(f(xs), dtype=float), y)
        bad = ~np.isfinite(y)
        if not bad.any():
            logger.debug("perturbed %d quadrature nodes off a singular point", n_bad)
            return y
    raise QuadratureBudgetError(
        "integrand is non-finite at nudged nodes; a non-integrable singularity?")


def _gl_panels(f, lo: np.ndarray, hi: np.ndarray, scale: float) -> list:
    """GL15 sums over the panels [lo[i], hi[i]], all nodes in one call of f.

    Each sum is half * _dots(y, w) over the panel's values y, and a panel
    with a non-finite node is nudged on its own nodes, so for an f that acts
    node by node every sum equals the one a call per panel gives."""
    x, w = _leggauss(15)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * x
    y = np.array(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    for i in np.flatnonzero(~np.isfinite(y).all(axis=1)):
        y[i] = _nudge(f, nodes[i], y[i], scale)
    return (half * _dots(y, w)).tolist()


def _integrate_pieces(f, pieces, scale: float) -> QuadratureResult:
    """Sum of the integrals of f over the pieces (a, b, tol), each smooth for
    f and integrated to its own tol by adaptive GL15 bisection; a piece no
    wider than _RESOLUTION scale is dropped, as the resolution floor would drop it.

    Breadth-first over flat per-panel lists: the first level evaluates every
    piece's coarse rule and both halves, each later level the halves of
    every open panel, in one _gl_panels call (15 nodes a panel off the
    budget).  A panel's coarse rule is its parent's half-panel sum, and
    values and errors are summed bottom-up in reverse split order, then over
    the pieces in order, so the result is the depth-first recursion's run
    piece after piece, bit for bit, with a third fewer nodes.  A panel still
    above its tolerance at width _RESOLUTION scale or depth 48 raises
    QuadratureBudgetError: f is not integrable there, or not smooth enough
    to integrate.  The pieces after a failing one stop, the ones before it
    run to the end, and the first failing piece's error is raised."""
    pieces = [p for p in pieces if p[1] - p[0] > _RESOLUTION * scale]
    if not pieces:
        return QuadratureResult(0.0, 0.0, 0)
    nodes = 0
    # panel k spans [lo[k], hi[k]] of piece owner[k]; halves are numbered after their parent
    lo, hi, tol = (list(col) for col in zip(*pieces))
    owner = list(range(len(pieces)))
    coarse, value, error, split = [], {}, {}, {}
    failed = None
    level, depth = list(owner), 0
    while level:
        a_ = np.array([lo[k] for k in level])
        b_ = np.array([hi[k] for k in level])
        m_ = 0.5 * (a_ + b_)
        starts, stops = [a_, m_], [m_, b_]
        if not depth:  # the pieces' coarse rules too
            starts, stops = [a_] + starts, [b_] + stops
        nodes += 15 * len(level) * len(starts)
        if nodes > _MAX_NODES:
            raise QuadratureBudgetError(f"node budget {_MAX_NODES} exhausted")
        sums = _gl_panels(f, np.concatenate(starts), np.concatenate(stops), scale)
        if not depth:
            coarse, sums = sums[:len(level)], sums[len(level):]
        nxt = []
        for i, k in enumerate(level):
            left, right = sums[i], sums[i + len(level)]
            fine = left + right
            err = abs(fine - coarse[k])
            if err <= tol[k]:
                value[k], error[k] = fine, err
                continue
            if (hi[k] - lo[k]) <= _RESOLUTION * scale or depth >= 48:
                failed = QuadratureBudgetError(
                    f"panel [{lo[k]!r}, {hi[k]!r}] at the resolution floor still "
                    f"changes by {err:.3g} > {tol[k]:.3g}")
                nxt = [j for j in nxt if owner[j] < owner[k]]
                break
            mid = 0.5 * (lo[k] + hi[k])
            split[k] = (len(lo), len(lo) + 1)
            lo += [lo[k], mid]
            hi += [mid, hi[k]]
            tol += [0.5 * tol[k]] * 2
            owner += [owner[k]] * 2
            coarse += [left, right]
            nxt += split[k]
        level = nxt
        depth += 1
    if failed is not None:
        raise failed
    for k in sorted(split, reverse=True):
        l, r = split[k]
        value[k], error[k] = value[l] + value[r], error[l] + error[r]
    total = err = 0.0
    for k in range(len(pieces)):
        total += value[k]
        err += error[k]
    return QuadratureResult(total, max(err, _ROUNDING * abs(total)), nodes)


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    ends: Sequence[float] = (),
    tol: float = 1e-8,
) -> QuadratureResult:
    """Integral of f over [a, b], cut at the piece ends inside it.

    f must be vectorized and smooth on each piece (a kink or jump belongs at
    a piece end), which gets an equal share of tol.  Non-convergence, as at
    a singular point, raises QuadratureBudgetError.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    pts = sorted({a, b} | {float(s) for s in ends if a < s < b})
    seg_tol = tol / (len(pts) - 1)
    return _integrate_pieces(f, [(lo, hi, seg_tol) for lo, hi in zip(pts[:-1], pts[1:])],
                             max(abs(a), abs(b), b - a))


def _settle(y: np.ndarray, active) -> np.ndarray:
    """y (m, n) with the non-finite entries of the rows not in active (a list
    of row indices or a slice) set to 0: those rows have stopped, so they
    need no nudge."""
    keep = np.zeros((len(y), 1), dtype=bool)
    keep[active] = True
    return np.where(np.isfinite(y) | keep, y, 0.0)


def _rows(G, x: np.ndarray, active, scale: float) -> np.ndarray:
    """G(x) (m, n), the non-finite entries of its active rows nudged."""
    y = np.asarray(G(x), dtype=float)
    return y if np.isfinite(y).all() else _nudge(G, x, _settle(y, active), scale)


def _results(mean: list, diff: list, nodes: list) -> list:
    return [QuadratureResult(v, max(e, _ROUNDING * abs(v)), k)
            for v, e, k in zip(mean, diff, nodes)]


def _circle_means(G: Callable[[np.ndarray], np.ndarray], tol: float = 1e-8) -> list:
    """(1/2pi) * integral over one period of each row of G(theta), an (m, n)
    array for n angles: one QuadratureResult per row.

    The periodic trapezoid rule (= mean of equispaced samples), doubled
    until stable; it converges spectrally for analytic rows.  Each row stops
    on its own, and keeps its mean, change and nodes from that level."""
    n = 64
    theta = TWO_PI * np.arange(n) / n
    mean = _rows(G, theta, slice(None), TWO_PI).mean(axis=1).tolist()
    m = len(mean)
    diff, hits, nodes = [0.0] * m, [0] * m, [n] * m
    active = list(range(m))
    total = n
    while active:
        if n >= _MAX_TRAP:
            raise QuadratureBudgetError("periodic trapezoid did not converge")
        new = TWO_PI * (np.arange(n) + 0.5) / n
        half = _rows(G, new, active, TWO_PI).mean(axis=1).tolist()
        total += n
        n *= 2
        still = []
        for i in active:
            mean_new = 0.5 * (mean[i] + half[i])
            diff[i] = abs(mean_new - mean[i])
            mean[i], nodes[i] = mean_new, total
            if diff[i] <= tol:
                hits[i] += 1
                if hits[i] >= 2 or diff[i] <= tol / 16.0:
                    continue
            else:
                hits[i] = 0
            still.append(i)
        active = still
    return _results(mean, diff, nodes)


def circle_mean(
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-8,
) -> QuadratureResult:
    """(1/2pi) * integral of g over one period: _circle_means of one row."""
    return _circle_means(lambda theta: np.asarray(g(theta), dtype=float).reshape(1, -1), tol)[0]


def _sphere_means_3d(G: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     tol: float = 1e-8) -> list:
    """Mean over the unit 2-sphere of each row of G(theta, phi), an (m, n)
    array for n nodes (theta polar, phi azimuth): one QuadratureResult per row.

    Product rule: Gauss-Legendre in cos(theta) x trapezoid in phi, doubled
    until a row's mean is stable to tol; a row still changing when the
    levels run out reports its last change.  A non-finite node is nudged in
    cos(theta), its phi held fixed.
    """
    active = slice(None)
    total = 0
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        u, w = _leggauss(n)
        phi = TWO_PI * np.arange(2 * n) / (2 * n)
        cos, phis = (grid.ravel() for grid in np.meshgrid(u, phi, indexing="ij"))
        vals = _rows(lambda c: G(np.arccos(c), phis), cos, active, 1.0)
        if total == 0:
            m = len(vals)
            active, prev, diff, nodes = list(range(m)), [math.inf] * m, [math.inf] * m, [0] * m
        total += vals.shape[1]
        means = (0.5 * _dots(vals.reshape(-1, n, 2 * n).mean(axis=2), w)).tolist()
        still = []
        for i in active:
            diff[i] = abs(means[i] - prev[i])  # inf at the first level
            prev[i], nodes[i] = means[i], total
            if not diff[i] <= tol:
                still.append(i)
        active = still
        if not active:
            break
    # converged, or the last change when the levels run out
    return _results(prev, diff, nodes)


def sphere_mean_3d(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tol: float = 1e-8,
) -> QuadratureResult:
    """Mean of g(theta, phi) over the unit 2-sphere: _sphere_means_3d of one row."""
    return _sphere_means_3d(
        lambda theta, phi: np.asarray(g(theta, phi), dtype=float).reshape(1, -1), tol)[0]


def _golden_max(h, lo: float, hi: float, value_tol: float) -> tuple:
    """Golden-section maximum of scalar h on [lo, hi]: (value, argument)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = h(c), h(d)
    best = max((fc, c), (fd, d))
    for _ in range(120):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(d)
        new_best = max((fc, c), (fd, d))
        done = abs(new_best[0] - best[0]) < value_tol and (b - a) < 1e-10
        best = max(best, new_best)
        if done:
            break
    return best


def sphere_sup(g, refinement_tol: float = 1e-7, *, dim: int) -> float:
    """Lower bound of sup over the unit sphere, refined near the top candidates.

    One scan and one refinement: g is vectorized, g(theta) for dim=2 and
    g(theta, phi) for dim=3.  The dimension picks the scan grid (4096 angles;
    80 x 128 product nodes), the candidates (the top 8 nodes, in dim=2 more
    than 2 angles apart) and the golden-section passes from each candidate
    (along theta; along theta, phi, theta), each over +-2 grid steps.
    """
    if dim == 2:
        n, sep = 4096, 2
        grid = (TWO_PI * np.arange(n) / n,)
        steps, passes = (2.0 * TWO_PI / n,), (0,)
    elif dim == 3:
        n_th, n_ph = 80, 128
        th = math.pi * (np.arange(n_th) + 0.5) / n_th
        ph = TWO_PI * np.arange(n_ph) / n_ph
        grid = tuple(c.ravel() for c in np.meshgrid(th, ph, indexing="ij"))
        n, sep = n_th * n_ph, 0  # any two distinct nodes
        steps, passes = (2.0 * math.pi / n_th, 2.0 * TWO_PI / n_ph), (0, 1, 0)
    else:
        raise ValueError(f"sphere_sup supports dim 2 or 3, got {dim}")
    vals = np.asarray(g(*grid), dtype=float)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    order = np.argsort(vals)[::-1]
    best = float(vals[order[0]])
    picked: list[int] = []
    for idx in order:
        if len(picked) >= 8:
            break
        if all(min(abs(idx - j), n - abs(idx - j)) > sep for j in picked):
            picked.append(int(idx))

    def at(x):
        v = float(np.asarray(g(*(np.array([c]) for c in x)), dtype=float)[0])
        return v if math.isfinite(v) else -math.inf

    for idx in picked:
        x = [c[idx] for c in grid]
        for k in passes:
            v, x[k] = _golden_max(lambda s: at(x[:k] + [s] + x[k + 1:]),
                                  x[k] - steps[k], x[k] + steps[k], refinement_tol / 8.0)
            best = max(best, v)
    return best
