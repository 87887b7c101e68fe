"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Quantitative anchors are closed forms; everything else is
property-based over seeded random scenarios.
"""

import hashlib
import math
import random
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from deltasubh.characteristics import (
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_N,
    nevanlinna_T,
    spherical_mean,
)
from deltasubh.geometry import kernel
from deltasubh.measures import (
    Atom,
    BorelMeasure,
    integrated_counting_result,
    modulus_of_continuity,
    modulus_profile,
)
from deltasubh.lab import (
    CorpusConfig,
    constant_A,
    generate_scenario,
    run_corpus,
    verify_counting_lemma,
    verify_poisson_jensen,
)
from deltasubh.potentials import MeromorphicFn, jordan_decomposition
from test_cli import pin

_TIGHT = 1e-10


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.t0 = None

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.1f}s / "
              f"budget {self.budget_s}s) - {self.description}")
        if exc_type is None and elapsed > self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget_s}s")
        return False


def _random_rational(rng, R_scale=2.0, min_growth=0.0, r=None, R=None):
    while True:
        n_z = rng.randint(0, 3)
        n_p = rng.randint(0, 3)
        if n_z + n_p == 0:
            continue
        pts = []
        for _ in range(n_z + n_p):
            while True:
                z = complex(rng.uniform(-R_scale, R_scale),
                            rng.uniform(-R_scale, R_scale))
                if 0.05 < abs(z) <= 0.8 * R_scale:
                    break
            pts.append(z)
        if len(set(pts)) < len(pts):
            continue
        f = MeromorphicFn(tuple((p, rng.choice([1, 1, 2])) for p in pts[:n_z]),
                          tuple((p, rng.choice([1, 1, 2])) for p in pts[n_z:]),
                          rng.uniform(0.3, 3.0))
        if min_growth and r is not None and R is not None:
            growth = (nevanlinna_T(f, R).value - nevanlinna_N(f, r).value)
            if growth < min_growth:
                continue
        return f


def test_criterion_1_closed_form_anchors():
    with _Criterion(1, "T(r,z)=ln+ r, N(r,1/z)=ln r, C_{ln|z-a|}(r)=ln max(r,|a|)", 5):
        rng = random.Random(101)
        f_z = MeromorphicFn(((0j, 1),))
        f_inv = MeromorphicFn((), ((0j, 1),))
        for _ in range(50):
            r = rng.uniform(0.1, 10.0)
            assert abs(nevanlinna_T(f_z, r, tol=_TIGHT).value
                       - max(0.0, math.log(r))) < 1e-8
            r_big = rng.uniform(1.0, 10.0)
            assert abs(nevanlinna_N(f_inv, r_big).value - math.log(r_big)) < 1e-8
            while True:
                r_c = rng.uniform(0.2, 5.0)
                rho = rng.uniform(0.0, 2.0) * r_c
                if abs(rho - r_c) >= 0.02 * max(rho, r_c):
                    break
            ang = rng.uniform(0.0, 2 * math.pi)
            a = complex(rho * math.cos(ang), rho * math.sin(ang))
            U = MeromorphicFn(((a, 1),)).to_delta_subharmonic()
            assert abs(spherical_mean(U, r_c, tol=_TIGHT).value
                       - math.log(max(r_c, rho))) < 1e-8


def test_criterion_2_cross_form_oracle():
    with _Criterion(2, "definition vs canonical difference characteristic", 30):
        rng = random.Random(102)
        for _ in range(100):
            r = rng.uniform(0.3, 1.2)
            R = r * rng.uniform(1.6, 3.2)
            f = _random_rational(rng, R_scale=R, min_growth=0.05, r=r, R=R)
            U = f.to_delta_subharmonic()
            a = difference_characteristic(U, r, R, tol=_TIGHT).value
            b = difference_characteristic_canonical(U, r, R, tol=_TIGHT).value
            assert abs(a - b) / max(1.0, abs(a)) < 1e-7


def test_criterion_3_bridge_identity():
    with _Criterion(3, "T(R,f) - N(r,f) = T_{log|f|}(r,R)", 30):
        rng = random.Random(103)
        for _ in range(100):
            r = rng.uniform(0.3, 1.5)
            R = r * rng.uniform(1.5, 3.0)
            f = _random_rational(rng, R_scale=R)
            U = f.to_delta_subharmonic()
            classical = (nevanlinna_T(f, R, tol=_TIGHT).value
                         - nevanlinna_N(f, r).value)
            ours = difference_characteristic(U, r, R, tol=_TIGHT).value
            assert abs(classical - ours) < 1e-7


def test_criterion_4_proT_grid_checks():
    with _Criterion(4, "T_U monotone/convex in k(R), decreasing/concave in k(r)", 60):
        rng = random.Random(104)
        for _ in range(50):
            f = _random_rational(rng, R_scale=2.0)
            U = f.to_delta_subharmonic()
            _plus, minus = jordan_decomposition(U)
            r_low = 0.4
            Rs = np.linspace(1.1, 3.3, 20)
            vals = [difference_characteristic(U, r_low, float(R), tol=_TIGHT).value
                    for R in Rs]
            ks = [float(kernel(2, float(R))) for R in Rs]
            assert all(b >= a - 1e-7 for a, b in zip(vals, vals[1:]))
            slopes = [(v2 - v1) / (k2 - k1) for v1, v2, k1, k2
                      in zip(vals, vals[1:], ks, ks[1:])]
            assert all(s2 >= s1 - 1e-6 for s1, s2 in zip(slopes, slopes[1:]))
            # r-grid: C_{U^+}(R) fixed, N exact per r
            R_hi = 3.5
            c_plus = spherical_mean(U, R_hi, "positive", tol=_TIGHT).value
            rs = np.linspace(0.15, 1.0, 20)
            vals_r = [c_plus + integrated_counting_result(minus, float(rr), R_hi).value
                      for rr in rs]
            ks_r = [float(kernel(2, float(rr))) for rr in rs]
            assert all(b <= a + 1e-7 for a, b in zip(vals_r, vals_r[1:]))
            slopes_r = [(v2 - v1) / (k2 - k1) for v1, v2, k1, k2
                        in zip(vals_r, vals_r[1:], ks_r, ks_r[1:])]
            assert all(s2 <= s1 + 1e-6 for s1, s2 in zip(slopes_r, slopes_r[1:]))


def _brute_force_h(pts, wts, t, step=1e-3):
    lo = pts.min(axis=0) - t - step
    hi = pts.max(axis=0) + t + step
    xs = np.arange(lo[0], hi[0] + step, step)
    ys = np.arange(lo[1], hi[1] + step, step)
    acc = np.zeros((xs.size, ys.size))
    t2 = t * t
    for p, w in zip(pts, wts):
        i0 = max(0, int((p[0] - t - lo[0]) / step))
        i1 = min(xs.size - 1, int(math.ceil((p[0] + t - lo[0]) / step)))
        j0 = max(0, int((p[1] - t - lo[1]) / step))
        j1 = min(ys.size - 1, int(math.ceil((p[1] + t - lo[1]) / step)))
        sub_x = xs[i0:i1 + 1][:, None]
        sub_y = ys[j0:j1 + 1][None, :]
        mask = (sub_x - p[0]) ** 2 + (sub_y - p[1]) ** 2 <= t2
        acc[i0:i1 + 1, j0:j1 + 1][mask] += w
    best = float(acc.max())
    # local refinement around the top cells
    order = np.argsort(acc.ravel())[::-1][:3]
    fine = np.linspace(-1.5 * step, 1.5 * step, 31)
    for idx in order:
        i, j = divmod(int(idx), acc.shape[1])
        FX, FY = np.meshgrid(xs[i] + fine, ys[j] + fine, indexing="ij")
        local = np.zeros_like(FX)
        for p, w in zip(pts, wts):
            local += np.where((FX - p[0]) ** 2 + (FY - p[1]) ** 2 <= t2, w, 0.0)
        best = max(best, float(local.max()))
    return best


def test_criterion_5_modulus_oracle():
    # Agreement "to within the grid's resolution": the grid can never beat
    # the exact sup; conversely any coverage attained at radius t - 2*step
    # stays attained on a 2*step ball of centers, so the step-grid must find
    # it.  When the optimum is radius-stable (same value at t - 2*step) the
    # two agree exactly; a strict inequality between the probes brackets the
    # sliver optima a 1e-3 grid cannot resolve.
    step = 1e-3
    with _Criterion(5, "candidate-center h equals brute-force grid search", 60):
        rng = random.Random(105)
        resolved = 0
        for _ in range(50):
            n = rng.randint(1, 12)
            pts = np.array([[rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)]
                            for _ in range(n)])
            wts = np.array([rng.uniform(0.2, 1.0) for _ in range(n)])
            mu = BorelMeasure(tuple(Atom(tuple(p), float(w))
                                    for p, w in zip(pts, wts)), 2)
            for _ in range(20):
                t = rng.uniform(0.02, 0.2)
                exact = modulus_of_continuity(mu, t)
                shrunk = modulus_of_continuity(mu, t - 2 * step)
                brute = _brute_force_h(pts, wts, t, step=step)
                assert brute <= exact + 1e-9, (t, exact, brute)
                assert shrunk <= brute + 1e-9, (t, shrunk, brute)
                if abs(exact - shrunk) < 1e-12:
                    resolved += 1
                    assert abs(exact - brute) < 1e-9, (t, exact, brute)
        assert resolved >= 600  # the generic case dominates the corpus


def test_criterion_6_proh_properties():
    with _Criterion(6, "h monotone, bounded by M, saturating at M", 60):
        grid_rel = np.concatenate([np.geomspace(1e-4, 1.0, 25), [1.0 + 1e-9, 1.5, 2.0]])
        for index in range(40):
            family = ("ef_arc", "segment", "disk", "disk_union")[index % 4]
            s = generate_scenario(606, index, family)
            mu = s.mu
            M = mu.mass
            radii = [float(t) for t in grid_rel * s.r]
            prof = modulus_profile(mu, radii, method="upper")
            assert all(b >= a - 1e-12 for a, b in zip(prof.values, prof.values[1:]))
            assert all(v <= M * (1 + 1e-12) for v in prof.values)
            for t, v in zip(prof.radii, prof.values):
                if t >= s.r:
                    assert v == pytest.approx(M, rel=1e-12)


def test_criterion_7_poisson_jensen_residual():
    with _Criterion(7, "Poisson-Jensen residual < 1e-6 at interior points", 60):
        rng = random.Random(107)
        for _ in range(50):
            R = rng.uniform(1.5, 3.0)
            f = _random_rational(rng, R_scale=R)
            U = f.to_delta_subharmonic()
            r = 0.6 * R
            pts = []
            while len(pts) < 100:
                p = (rng.uniform(-r, r), rng.uniform(-r, r))
                if p[0] ** 2 + p[1] ** 2 <= r * r:
                    pts.append(p)
            rep = verify_poisson_jensen(U, R, pts, tol=1e-9)
            assert rep.max_relative < 1e-6


def test_criterion_8_counting_lemma():
    with _Criterion(8, "charge(B(R*)) <= R^{d-1}/(d_hat (R-R*)) N(R*,R)", 5):
        anchor = verify_counting_lemma(
            BorelMeasure((Atom((0.0, 0.0), 1.0),), 2), 1.0, 2.0)
        assert anchor.lhs == 1.0
        assert anchor.rhs == pytest.approx(2.0 * math.log(2.0), abs=1e-14)
        assert anchor.verdict == "pass"
        rng = random.Random(108)
        for _ in range(200):
            d = rng.choice([2, 3])
            R = rng.uniform(0.8, 4.0)
            R_star = R * rng.uniform(0.15, 0.92)
            atoms = tuple(
                Atom(tuple(rng.uniform(-R, R) for _ in range(d)),
                     rng.uniform(0.05, 2.0))
                for _ in range(rng.randint(1, 8)))
            rep = verify_counting_lemma(BorelMeasure(atoms, d), R_star, R)
            assert rep.verdict == "pass" or rep.slack >= -rep.error_budget


def test_criterion_9_main_theorem_corpus():
    with _Criterion(9, "main inequality corpus: 200 scenarios, zero fails", 600):
        assert constant_A(2, 1.0, 3.0) == 4.0  # exact anchor
        reports = run_corpus(CorpusConfig(count=200), seed=42)
        counts = Counter(rep.verdict for rep in reports)
        assert counts.get("fail", 0) == 0, counts
        judged = len(reports)
        assert counts.get("inconclusive", 0) <= 0.02 * judged, counts
        # the UR-family rows cover UR plus the d=2 specializations
        tags = Counter(rep.inequality for rep in reports)
        assert tags["UR"] == 200 and tags["UR2"] == 200
        assert tags["UR2f"] == 200 and tags["UR2fr"] == 200


def test_criterion_10_corpus_determinism(tmp_path):
    with _Criterion(10, "corpus --seed 42 --count 200 is byte-identical", 600):
        outs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "deltasubh.cli", "corpus",
                 "--seed", "42", "--count", "200", "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        # the corpus bytes are frozen: a refactor must reproduce them exactly,
        # on each numpy dispatch target (test_cli.pin)
        assert hashlib.md5(outs[0]).hexdigest() == pin("3366cf15296c59ba1467e1b4971fa522",
                                                       "65073bf48a6352ca59f794eafe54be5d")
        # so are the proof-ingredient checks (Ux, U+B, dBr) next to the UR
        # family, the same bytes on either target
        for family, digest in (("atomic_mu", "e5802eab2989f233de5b076a268922ff"),
                               ("charges", "5ccf2448b3a875ddf36fabd61872c3ce")):
            proc = subprocess.run(
                [sys.executable, "-m", "deltasubh.cli", "corpus", "--families", family,
                 "--checks", "UR,UR2,UR2f,UR2fr,Ux,U+B,dBr", "--seed", "7", "--count", "12"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert hashlib.md5(proc.stdout.encode()).hexdigest() == digest, family
