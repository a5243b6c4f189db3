"""Acceptance gate: one test per shipping criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
line of every criterion, including the measured values behind it.
Thresholds marked "frozen" were derived by direct computation with
independent oracles before the tests were written; the derivations are
reproduced in the comments where they live.
"""

import math
import time

import numpy as np

from spiralbounds.analysis import SplineInput, analyze
from spiralbounds.compliance import check_containment
from spiralbounds.experiments import circle_dataset, rounding_experiment
from spiralbounds.geometry import (
    Arc,
    arc_eval,
    biarc_from_a,
    biarc_from_b,
    biarc_from_p,
    curve_eval,
)
from spiralbounds.regions import (
    build_region,
    narrowed_region,
    simple_region,
    vertex_region,
)

from conftest import tangency_residual
from logspiral import LogSpiral, random_arc, spiral_dataset

import pytest


def report(number, ok, detail):
    print("criterion %d: %s — %s" % (number, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_spirals():
    """100 random spiral datasets with their generating arcs (criteria 4-6)."""
    rng = np.random.default_rng(777)
    out = []
    for _ in range(100):
        pts, t0, t1, arc = spiral_dataset(rng)
        out.append((analyze(SplineInput(pts, t0, t1)), arc))
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_circle_reproduction():
    t0 = time.perf_counter()
    data = circle_dataset()
    an = analyze(data)
    reg = simple_region(an)
    elapsed = time.perf_counter() - t0
    q_int = an.nodes.q[1:-1]
    dev = float(np.max(np.abs(q_int - 0.1)))
    ok = dev <= 1e-9 and reg.width <= 1e-10 and elapsed < 0.1
    report(1, ok, "interior max|q-0.1| = %.2e, width = %.2e, %.0f ms"
           % (dev, reg.width, 1e3 * elapsed))


def test_criterion_02_rounding_experiment():
    t0 = time.perf_counter()
    exp = rounding_experiment(decimals=2)
    elapsed = time.perf_counter() - t0
    q = exp.rounded_q
    nonconstant = not np.allclose(q, q[0], atol=1e-6)
    changes = exp.trend_sign_changes
    # centimetre rounding perturbs each coordinate by up to 5e-3, which
    # moves the three-point curvature of this dataset by at most 0.036
    # from the exact 0.1 (frozen; confirmed against an independent
    # circumcircle solve).  The full swing between the weakest and the
    # strongest node exceeds 0.05, and the trend flips 11 times.
    swing = float(np.max(q) - np.min(q))
    ok = (nonconstant and changes >= 5 and exp.max_deviation > 0.03
          and swing > 0.05 and elapsed < 0.1)
    report(2, ok, "max|q-0.1| = %.4f, swing = %.4f, %d trend sign changes, "
           "%.0f ms" % (exp.max_deviation, swing, changes, 1e3 * elapsed))


def test_criterion_03_spiral_arc_inequalities():
    # 1000 random log-spiral arcs; decreasing-curvature arcs are checked
    # through their mirror image, for which the canonical inequalities
    # (the a < b ordering) apply verbatim
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    tol = 1e-9
    worst_lens = math.inf
    worst_bound = math.inf
    sign_failures = 0
    for i in range(1000):
        increasing = bool(i % 2)
        arc = random_arc(rng, increasing=increasing)
        c = arc.frame.half_length
        xs = np.linspace(-c, c, 1000)
        y = arc.height(xs)
        al, be, a, b = arc.alpha, arc.beta, arc.kappa0, arc.kappa1
        if not increasing:
            al, be, a, b, y = -al, -be, -a, -b, -y
        if not ((b - a) > 0) == ((al + be) > 0):
            sign_failures += 1
        worst_bound = min(worst_bound,
                          (-math.sin(al) - a * c) / c,
                          (b * c - math.sin(be)) / c)
        lo = arc_eval(Arc(c, -be), xs)
        hi = arc_eval(Arc(c, al), xs)
        worst_lens = min(worst_lens,
                         float(np.min(y - lo)) / c,
                         float(np.min(hi - y)) / c)
    elapsed = time.perf_counter() - t0
    ok = (sign_failures == 0 and worst_bound > -tol and worst_lens > -tol
          and elapsed < 5.0)
    report(3, ok, "1000 arcs, sign failures %d, curvature-bound margin "
           "%.1e c, lens margin %.1e c, %.2f s"
           % (sign_failures, worst_bound, worst_lens, elapsed))


def test_criterion_04_spiral_classification(random_spirals):
    failures = [an.classification.kind for an, _ in random_spirals
                if an.classification.kind != "spiral"]
    report(4, not failures,
           "100/100 random spiral datasets classify as spiral"
           if not failures else "%d misclassifications" % len(failures))


def test_criterion_05_simple_region_soundness(random_spirals):
    worst = math.inf
    for an, arc in random_spirals:
        reg = simple_region(an)
        rep = check_containment(reg, arc.sample_global(10000))
        worst = min(worst, rep.worst_margin / rep.tol)
        if not rep.passed:
            break
    ok = worst > -1.0  # every margin within tol = 1e-9 max c
    report(5, ok, "10^4 generating-spiral samples per dataset, worst "
           "margin %.2e tol" % worst)


def test_criterion_06_narrowed_soundness_and_nesting(random_spirals):
    worst_margin = math.inf
    worst_nest = math.inf
    for an, arc in random_spirals:
        narrow = narrowed_region(an)
        rep = check_containment(narrow, arc.sample_global(10000))
        worst_margin = min(worst_margin, rep.worst_margin / rep.tol)
        if not rep.passed:
            break
        simple = simple_region(an)
        for s, n in zip(simple.chords, narrow.chords):
            c = s.frame.half_length
            xs = np.linspace(-c, c, 1000)
            lo_gap = np.min(curve_eval(n.lower, xs) - curve_eval(s.lower, xs))
            up_gap = np.min(curve_eval(s.upper, xs) - curve_eval(n.upper, xs))
            worst_nest = min(worst_nest, float(min(lo_gap, up_gap)) / c)
    ok = worst_margin > -1.0 and worst_nest >= -1e-10
    report(6, ok, "containment margin %.2e tol, nesting slack %.2e c"
           % (worst_margin, worst_nest))


def test_criterion_07_cubic_width_convergence():
    spiral = LogSpiral(scale=1.0, growth=-0.2, center=(0.0, 0.0))
    span = (0.0, 1.2)

    def width(n_chords):
        th = np.linspace(span[0], span[1], n_chords + 1)
        data = SplineInput(spiral.point(th),
                           tau_start=float(spiral.tangent_angle(th[0])),
                           tau_end=float(spiral.tangent_angle(th[-1])))
        return simple_region(analyze(data)).width

    ratios = [width(n) / width(2 * n) for n in (8, 16, 32)]
    ok = all(6.0 <= r <= 10.0 for r in ratios)
    report(7, ok, "width ratios N/2N for N=8,16,32: %.3f, %.3f, %.3f"
           % tuple(ratios))


def cocircular_dataset():
    """Six-node increasing spiral whose nodes 2-5 share one circle.

    Nodes 2..5 sit on the circle of curvature 0.5; the end tangents and
    outer nodes are tuned so the whole q sequence stays increasing.
    """
    def onc(phi):
        return np.array([2.0 * math.sin(phi), 2.0 - 2.0 * math.cos(phi)])

    inner = [onc(t) for t in (0.0, 0.3, 0.6, 0.9)]
    p1 = inner[0] + np.array([-1.0, -0.02])
    t_exit = 0.9 + 0.25
    p6 = inner[3] + 0.5 * np.array([math.cos(t_exit), math.sin(t_exit)])
    pts = np.array([p1] + inner + [p6])
    d1 = pts[1] - pts[0]
    c1 = 0.5 * math.hypot(*d1)
    mu1 = math.atan2(d1[1], d1[0])
    d5 = pts[5] - pts[4]
    c5 = 0.5 * math.hypot(*d5)
    mu5 = math.atan2(d5[1], d5[0])
    tau1 = mu1 - math.asin(0.10 * c1)
    tau6 = mu5 + math.asin(min(0.99, 0.85 * c5))
    return SplineInput(pts, tau_start=tau1, tau_end=tau6)


def test_criterion_08_cocircular_degeneracy():
    an = analyze(cocircular_dataset())
    assert an.classification.kind == "spiral"
    q = an.nodes.q
    # nodes 3 and 4 both read the shared circle
    assert abs(q[2] - 0.5) < 1e-12 and abs(q[3] - 0.5) < 1e-12
    simple = simple_region(an)
    narrow = narrowed_region(an)
    inner = simple.chords[2].width          # chord P3P4
    spanned = [narrow.chords[k].width for k in (1, 2, 3)]
    ok = inner <= 1e-10 and all(w <= 1e-10 for w in spanned)
    report(8, ok, "inner simple width %.1e; narrowed widths on spanned "
           "chords %.1e, %.1e, %.1e" % (inner, *spanned))


def test_criterion_09_vertex_region_soundness():
    t = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    oval = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    an = analyze(SplineInput(oval, closed=True))
    cl = an.classification
    assert cl.kind == "piecewise"
    assert len(cl.vertices) == 4
    assert sorted(k for _, k in cl.vertices) == ["max", "max", "min", "min"]
    reg = vertex_region(an)
    dense = np.linspace(0.0, 2.0 * math.pi, 20001)
    samples = np.column_stack([2.0 * np.cos(dense), np.sin(dense)])
    rep = check_containment(reg, samples)
    ok = rep.passed and rep.unassigned_count == 0
    report(9, ok, "16-node oval, vertices %s, worst margin %.2e"
           % (sorted(v for v, _ in cl.vertices), rep.worst_margin))


def test_criterion_10_biarc_algebra():
    rng = np.random.default_rng(42)
    p_grid = (1e-3, 0.1, 1.0, 10.0, 1e3)
    worst_res = 0.0
    worst_rt = 0.0
    for _ in range(100):
        c = math.exp(rng.uniform(-1.5, 1.5))
        while True:
            al = rng.uniform(-1.3, 1.5)
            be = rng.uniform(-1.3, 1.5)
            if al + be > 0.1:
                break
        for p in p_grid:
            bi = biarc_from_p(c, al, be, p)
            worst_res = max(worst_res,
                            abs(tangency_residual(c, al, be, bi.a, bi.b)))
            back_a = biarc_from_a(c, al, be, bi.a)
            back_b = biarc_from_b(c, al, be, bi.b)
            worst_rt = max(worst_rt,
                           abs(back_a.p - p) / max(1.0, p),
                           abs(back_b.p - p) / max(1.0, p),
                           abs(back_a.b - bi.b) / max(1.0, abs(bi.b)),
                           abs(back_b.a - bi.a) / max(1.0, abs(bi.a)))
    # degenerate members agree with their arc equivalents pointwise
    worst_deg = 0.0
    for c, al, be in [(1.0, 0.5, 0.1), (2.0, 1.2, -0.3), (0.4, -0.2, 0.9)]:
        xs = np.linspace(-c, c, 1000)
        for p, phi in [(0.0, -be), (math.inf, al)]:
            got = curve_eval(biarc_from_p(c, al, be, p), xs)
            worst_deg = max(worst_deg,
                            float(np.max(np.abs(got - arc_eval(Arc(c, phi),
                                                               xs)))))
        flat = curve_eval(biarc_from_p(c, al, -al, 7.0), xs)
        worst_deg = max(worst_deg,
                        float(np.max(np.abs(flat - arc_eval(Arc(c, al),
                                                            xs)))))
    ok = worst_res < 1e-10 and worst_rt < 1e-10 and worst_deg <= 1e-12
    report(10, ok, "residual %.1e, round-trip %.1e, degenerate deviation "
           "%.1e" % (worst_res, worst_rt, worst_deg))
