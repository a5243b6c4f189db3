"""Sample assignment and containment checking.

The sagitta of the generating circle pins the local-coordinate math;
random spirals against their own regions pin soundness; a sparse
ill-set dataset provides the honest failure case.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spiralbounds import compliance
from spiralbounds.analysis import SplineInput, analyze
from spiralbounds.compliance import check_containment
from spiralbounds.errors import DataError, EmptySamplesError, InputError
from spiralbounds.geometry import curve_eval
from spiralbounds.profile_io import load_profile, load_samples
from spiralbounds.regions import build_region, simple_region
from spiralbounds.splinefit import cubic_spline_fixture

from logspiral import LogSpiral, spiral_dataset
from conftest import reference_containment, sparse_dataset, to_global

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_nodes_assign_to_chord_ends(circle_analysis, circle_data):
    reg = simple_region(circle_analysis)
    rep = check_containment(reg, circle_data.points)
    c = reg.chords[0].frame.half_length
    assert np.all(rep.chord_index > 0)
    npt.assert_allclose(np.abs(np.abs(rep.x_local) - c), 0.0, atol=1e-12)
    npt.assert_allclose(rep.y_local, 0.0, atol=1e-12)


def test_circle_midpoint_sagitta(circle_analysis):
    # the arc midpoint sits a sagitta away from the chord,
    # approximately c^2 / (2R) for a shallow chord
    reg = simple_region(circle_analysis)
    theta_mid = math.radians(1.5)
    mid = np.array([[10.0 * math.sin(theta_mid),
                     10.0 * (1.0 - math.cos(theta_mid))]])
    rep = check_containment(reg, mid)
    x, y = rep.x_local, rep.y_local
    c = reg.chords[0].frame.half_length
    assert rep.chord_index[0] == 1
    npt.assert_allclose(x[0], 0.0, atol=1e-12)
    sagitta = 10.0 - math.sqrt(100.0 - c * c)
    npt.assert_allclose(abs(y[0]), sagitta, rtol=1e-10)
    npt.assert_allclose(abs(y[0]), c * c / 20.0, rtol=2e-4)


def test_far_sample_unassigned(circle_analysis):
    reg = simple_region(circle_analysis)
    rep = check_containment(reg, np.array([[50.0, 50.0], [0.0, 0.01]]))
    assert rep.chord_index[0] == -1
    assert rep.chord_index[1] == 1
    assert math.isnan(rep.margin_lower[0]) and math.isnan(rep.x_local[0])


def test_empty_samples_rejected(circle_analysis):
    reg = simple_region(circle_analysis)
    with pytest.raises(EmptySamplesError):
        check_containment(reg, np.zeros((0, 2)))
    with pytest.raises(EmptySamplesError):
        check_containment(reg, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_rejected_and_named(circle_analysis, bad):
    reg = simple_region(circle_analysis)
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, bad], [2.0, 0.2]])
    with pytest.raises(InputError, match=r"\bsample 2\b"):
        check_containment(reg, pts)


def test_malformed_samples_rejected(circle_analysis):
    reg = simple_region(circle_analysis)
    with pytest.raises(EmptySamplesError):
        check_containment(reg, np.zeros((5, 3)))


def test_generating_spiral_passes_own_region():
    rng = np.random.default_rng(101)
    for _ in range(5):
        pts, t0, t1, arc = spiral_dataset(rng)
        an = analyze(SplineInput(pts, t0, t1))
        reg = build_region(an)
        rep = check_containment(reg, arc.sample_global(3000))
        assert rep.passed, rep.worst_margin
        assert rep.worst_margin > -rep.tol


def test_circle_margins_are_tiny(circle_analysis):
    # zero-width region: everything on the circle sits on the boundary
    reg = simple_region(circle_analysis)
    t = np.linspace(0.0, math.radians(60.0), 2000)
    pts = np.column_stack([10.0 * np.sin(t), 10.0 * (1.0 - np.cos(t))])
    rep = check_containment(reg, pts)
    assert rep.passed
    assert abs(rep.worst_margin) < 1e-12


def test_perturbed_sample_fails(circle_analysis):
    reg = simple_region(circle_analysis)
    t = math.radians(10.0)
    off = np.array([[10.0 * math.sin(t), 10.0 * (1.0 - math.cos(t)) + 1e-3]])
    rep = check_containment(reg, off)
    assert not rep.passed
    assert rep.violations.size == 1
    assert rep.worst_margin < -1e-4


def test_monotone_in_tolerance(sparse_data):
    an = analyze(sparse_data)
    reg = build_region(an)
    fix = cubic_spline_fixture(sparse_data)
    rep_tight = check_containment(reg, fix, tol=1e-12)
    rep_loose = check_containment(reg, fix, tol=1.0)
    assert not rep_tight.passed
    assert rep_loose.passed
    # same margins, different verdicts
    npt.assert_allclose(rep_loose.worst_margin, rep_tight.worst_margin,
                        rtol=1e-15)


def test_sparse_spline_leaves_region(sparse_data):
    # the compliance test must catch the ill-set cubic interpolant
    an = analyze(sparse_data)
    reg = build_region(an, grade="narrowed")
    rep = check_containment(reg, cubic_spline_fixture(sparse_data))
    assert not rep.passed
    assert rep.worst_margin < -1e-3
    assert rep.violations.size >= 1


def test_margins_match_boundary_evaluation():
    rng = np.random.default_rng(102)
    pts, t0, t1, arc = spiral_dataset(rng, n_nodes=7)
    an = analyze(SplineInput(pts, t0, t1))
    reg = build_region(an)
    samples = arc.sample_global(500)
    rep = check_containment(reg, samples)
    for i in range(0, 500, 37):
        k = int(rep.chord_index[i])
        if k < 1:
            continue
        ch = reg.chords[k - 1]
        lo = curve_eval(ch.lower, rep.x_local[i])
        up = curve_eval(ch.upper, rep.x_local[i])
        npt.assert_allclose(rep.margin_lower[i], rep.y_local[i] - lo,
                            atol=1e-10)
        npt.assert_allclose(rep.margin_upper[i], up - rep.y_local[i],
                            atol=1e-10)


def test_unassigned_samples_do_not_fail(circle_analysis):
    reg = simple_region(circle_analysis)
    pts = np.array([[50.0, 50.0], [-30.0, 2.0]])
    rep = check_containment(reg, pts)
    assert rep.passed
    assert rep.unassigned_count == 2
    assert math.isinf(rep.worst_margin)


# ---------------------------------------------------------------------------
# Node wedges: only samples beyond the open ends stay unassigned
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("push", [0.001, 0.01, 0.1, 1.0])
@pytest.mark.parametrize("grade", ["simple", "auto"])
def test_node_wedge_sample_fails(circle_analysis, circle_data, push, grade):
    # node 11 of the circle data pushed outward projects past the ends of
    # both chords meeting there; it is measured at the node, margin -|y|
    node = circle_data.points[10]
    centre = np.array([0.0, 10.0])
    pt = node + push * (node - centre) / 10.0
    reg = build_region(circle_analysis, grade)
    rep = check_containment(reg, pt[None, :])
    assert rep.unassigned_count == 0
    assert rep.chord_index[0] in (10, 11)
    c = reg.chords[rep.chord_index[0] - 1].frame.half_length
    assert abs(rep.x_local[0]) == c
    assert not rep.passed
    npt.assert_allclose(rep.worst_margin, -abs(rep.y_local[0]), atol=1e-12)
    assert rep.worst_margin < -0.99 * push


def test_far_sample_nearest_an_interior_node_fails(circle_analysis):
    # (5, -3) is 3.9 outside the circle, nearest to node 8, in no span
    rep = check_containment(simple_region(circle_analysis),
                            np.array([[5.0, -3.0]]))
    assert rep.unassigned_count == 0
    assert not rep.passed
    assert rep.worst_margin < -3.0


def test_closed_data_leaves_no_sample_unassigned():
    t = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    reg = build_region(analyze(SplineInput(pts, closed=True)))
    phi = np.linspace(0.0, 2 * math.pi, 37)
    far = 20.0 * np.column_stack([np.cos(phi), np.sin(phi)])
    rep = check_containment(reg, np.vstack([far, 1.05 * pts]))
    assert rep.unassigned_count == 0
    assert rep.violations.size == len(far) + len(pts)


# ---------------------------------------------------------------------------
# Tolerance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tol", [
    math.nan, math.inf, -math.inf, -1e-9,
    pytest.param(10 ** 400, id="beyond-float"), True])
def test_bad_tolerance_rejected_and_named(circle_analysis, tol):
    reg = simple_region(circle_analysis)
    with pytest.raises(InputError, match=r"got %s$" % repr(tol)):
        check_containment(reg, np.zeros((1, 2)), tol=tol)


def test_zero_tolerance_accepted(circle_analysis):
    rep = check_containment(simple_region(circle_analysis),
                            np.zeros((1, 2)), tol=0.0)
    assert rep.tol == 0.0


# ---------------------------------------------------------------------------
# The grid index gives the brute-force result
# ---------------------------------------------------------------------------


def _assert_matches_reference(region, samples):
    rep = check_containment(region, samples)
    ref = reference_containment(region, samples)
    npt.assert_array_equal(rep.chord_index, ref[0])
    atol = 1e-12 * max(ch.frame.half_length for ch in region.chords)
    for got, want in zip((rep.x_local, rep.y_local, rep.margin_lower,
                          rep.margin_upper), ref[1:]):
        npt.assert_allclose(got, want, rtol=0.0, atol=atol)
    return rep


def _outside_probes(region, rng, count):
    """Points just above the upper or below the lower boundary."""
    probes = []
    for k in rng.integers(0, len(region.chords), count):
        ch = region.chords[k]
        c = ch.frame.half_length
        x = rng.uniform(-c, c)
        if rng.random() < 0.5:
            y = curve_eval(ch.upper, x) + 1e-3 * c
        else:
            y = curve_eval(ch.lower, x) - 1e-3 * c
        probes.append(to_global(ch.frame, [x, y]))
    return np.array(probes)


@settings(max_examples=60, deadline=None)
@given(closed=st.booleans(), n=st.integers(5, 30),
       stretch=st.sampled_from([1.0, 20.0]), long_at=st.floats(0.0, 1.0),
       growth=st.floats(0.08, 0.4), increasing=st.booleans(),
       mirrored=st.booleans(), step=st.floats(0.02, 0.05),
       chunk=st.sampled_from([9, 40, 300, 1 << 16]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_index_matches_brute_force(closed, n, stretch, long_at, growth,
                                   increasing, mirrored, step, chunk, seed):
    # one chord `stretch` times longer than the rest sets the cell side;
    # small chunks send every path through many blocks
    rng = np.random.default_rng(seed)
    gaps = np.ones(n if closed else n - 1)
    gaps[int(long_at * (len(gaps) - 1))] = stretch
    if closed:
        t = 2 * math.pi * np.concatenate([[0.0], np.cumsum(gaps)[:-1]]) \
            / gaps.sum()
        curve_t = rng.uniform(0.0, 2 * math.pi, 40)
        pts = np.column_stack([1.5 * np.cos(t), np.sin(t)])
        curve = np.column_stack([1.5 * np.cos(curve_t), np.sin(curve_t)])
        data = SplineInput(pts, closed=True)
        size = 1.5
    else:
        spiral = LogSpiral(scale=2.0, growth=-growth if increasing
                           else growth, center=(1.0, -2.0))
        theta = np.concatenate([[0.0], np.cumsum(step * gaps)])
        pts = spiral.point(theta)
        curve = spiral.point(rng.uniform(0.0, theta[-1], 40))
        tau = spiral.tangent_angle(theta[[0, -1]])
        if mirrored:
            pts, curve, tau = pts * [1, -1], curve * [1, -1], -tau
        data = SplineInput(pts, float(tau[0]), float(tau[1]))
        size = np.ptp(pts, axis=0).max()
    try:
        region = build_region(analyze(data))
    except DataError:
        assume(False)
    phi = rng.uniform(0.0, 2 * math.pi, 8)
    far = pts.mean(axis=0) + 10.0 * size * np.column_stack(
        [np.cos(phi), np.sin(phi)])
    c = np.array([ch.frame.half_length for ch in region.chords])
    nudged = pts + rng.normal(size=pts.shape) * 0.2 * c.min()
    samples = np.vstack([curve, pts, nudged, far,
                         _outside_probes(region, rng, 20)])
    with mock.patch.object(compliance, "CHUNK", chunk):
        _assert_matches_reference(region, samples)


def test_index_matches_brute_force_on_2000_chords():
    # a seeded open spiral of 2000 chords: its spline samples take the
    # grid path, the node-wedge and far probes the broadcast path
    rng = np.random.default_rng(7)
    spiral = LogSpiral(scale=50.0, growth=-0.05)
    theta = np.cumsum(np.concatenate(
        [[0.0], 0.003 * rng.uniform(0.8, 1.2, 2000)]))
    pts = spiral.point(theta)
    tau = spiral.tangent_angle(theta[[0, -1]])
    data = SplineInput(pts, float(tau[0]), float(tau[1]))
    region = build_region(analyze(data))
    spline = cubic_spline_fixture(data, 16)
    # nodes pushed outward by 0.05 (a third of a chord) land in the
    # wedges; pushes of up to 12 chords in or out span far chords
    radial = (pts - spiral.center) / spiral.radius(theta)[:, None]
    out = pts[1:-1:7] + 0.05 * radial[1:-1:7]
    push = rng.uniform(-12.0, 12.0, 400) * 0.15
    k = rng.integers(0, len(pts), 400)
    shifted = pts[k] + push[:, None] * radial[k]
    phi = rng.uniform(0.0, 2 * math.pi, 50)
    far = 1000.0 * np.column_stack([np.cos(phi), np.sin(phi)])
    samples = np.vstack([spline, out, shifted, far])
    assert len(samples) * len(region.chords) > compliance.CHUNK
    rep = _assert_matches_reference(region, samples)
    wedge = rep.chord_index[len(spline):len(spline) + len(out)]
    assert np.all(wedge > 0)


def test_index_finds_the_better_chord_of_another_turn():
    # between the turns of a three-turn spiral a sample spans a chord of
    # each turn; the nearer one can lie outside its 3x3 cells while the
    # farther one lies inside, so the nearby score alone is not final
    spiral = LogSpiral(scale=10.0, growth=-0.026)
    theta = np.arange(0.0, 6 * math.pi, 0.05)
    tau = spiral.tangent_angle(theta[[0, -1]])
    region = build_region(analyze(SplineInput(spiral.point(theta),
                                              float(tau[0]), float(tau[1]))))
    rng = np.random.default_rng(3)
    th = rng.uniform(2 * math.pi, 4 * math.pi, 3000)
    share = rng.uniform(0.0, 1.0, 3000)
    r = (1 - share) * spiral.radius(th) + share * spiral.radius(th + 2 * math.pi)
    samples = np.column_stack([r * np.cos(th), r * np.sin(th)])
    assert len(samples) * len(region.chords) > compliance.CHUNK
    _assert_matches_reference(region, samples)


def _oval(t, stretch=1.0):
    """The convex oval (cos t + 0.22 cos 2t, stretch sin t), counter-
    clockwise; its curvature has extrema, so it takes the vertex grade."""
    return np.column_stack([np.cos(t) + 0.22 * np.cos(2.0 * t),
                            stretch * np.sin(t)])


def _across_probes(region, rng, count, size):
    """Points 1 to 3 times `size` off random chords along their normals,
    half of them within the chord's span and half on the span's edge,
    |x| = c (1 + SPAN_SLACK) one ulp in or out.  Only that distant chord,
    or others across the curve from the point, can span it."""
    probes = []
    for n, k in enumerate(rng.integers(0, len(region.chords), count)):
        frame = region.chords[k].frame
        o = np.array(frame.origin)
        t = np.array([math.cos(frame.direction), math.sin(frame.direction)])
        c = frame.half_length
        if n % 2:
            edge = c * (1.0 + compliance.SPAN_SLACK)
            x = np.nextafter(edge, rng.choice([0.0, math.inf]))
            x *= rng.choice([-1.0, 1.0])
        else:
            x = rng.uniform(-c, c)
        y = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0) * size
        p = o + x * t + y * np.array([-t[1], t[0]])
        for _ in range(3):   # bring the projection as computed onto x
            p = p + (x - (p[0] - o[0]) * t[0] - (p[1] - o[1]) * t[1]) * t
        probes.append(p)
    return np.array(probes)


def _wedge_probes(pts, closed, rng, count):
    """Nodes pushed outward along the bisector by a quarter of the shorter
    chord meeting there; pts run counter-clockwise."""
    seg = (np.roll(pts, -1, axis=0) - pts)[:len(pts) - (not closed)]
    half = 0.5 * np.hypot(seg[:, 0], seg[:, 1])
    unit = seg / (2.0 * half[:, None])
    inner = np.arange(len(seg)) if closed else np.arange(1, len(seg))
    k = np.sort(rng.choice(inner, min(count, len(inner)), replace=False))
    bis = unit[k - 1] + unit[k]
    out = np.column_stack([bis[:, 1], -bis[:, 0]])
    out /= np.hypot(out[:, 0], out[:, 1])[:, None]
    h = np.minimum(half[k - 1], half[k])
    return pts[k] + 0.25 * h[:, None] * out


@pytest.mark.parametrize("closed, m", [
    (False, 2), (False, 3), (False, 5), (False, 8), (False, 40),
    (False, 160), (True, 3), (True, 12), (True, 40), (True, 160)])
@settings(max_examples=8, deadline=None)
@given(spread=st.floats(0.05, 0.6), shift=st.floats(-0.3, 0.3),
       stretch=st.sampled_from([0.5, 1.0, 3.0]),
       chunk=st.sampled_from([9, 40, 1 << 16]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_bound_drops_no_spanning_chord(closed, m, spread, shift, stretch,
                                           chunk, seed):
    # runs of floor(sqrt(m)) chords: one chord each at m = 2 and 3, two at
    # 5 and 8, up to 12 at 160.  Open data is an arc of the oval through
    # the curvature extremum at t = 0, turning up to 330 degrees, so a
    # run of few chords turns through a large angle; closed data goes
    # all round.  Far samples off chords along their normals are spanned
    # by those chords alone or by chords across the curve, some exactly
    # on a span's edge; small chunks send every path through many blocks
    rng = np.random.default_rng(seed)
    if closed:
        t = shift + 2.0 * math.pi * np.arange(m) / m
        pts = _oval(t, stretch)
        data = SplineInput(pts, closed=True)
        curve_t = rng.uniform(0.0, 2.0 * math.pi, 40)
    else:
        half = min(2.9, 0.5 * m * spread)
        t = shift + np.linspace(-half, half, m + 1)
        pts = _oval(t, stretch)
        ends = t[[0, -1]]
        tau = np.arctan2(stretch * np.cos(ends),
                         -np.sin(ends) - 0.44 * np.sin(2.0 * ends))
        data = SplineInput(pts, float(tau[0]), float(tau[1]))
        curve_t = rng.uniform(t[0], t[-1], 40)
    try:
        region = build_region(analyze(data))
    except DataError:
        assume(False)
    assert len(region.chords) == m
    size = np.ptp(pts, axis=0).max()
    phi = rng.uniform(0.0, 2.0 * math.pi, 8)
    far = pts.mean(axis=0) + 10.0 * size * np.column_stack(
        [np.cos(phi), np.sin(phi)])
    samples = np.vstack([_oval(curve_t, stretch), far,
                         _wedge_probes(pts, closed, rng, 20),
                         _across_probes(region, rng, 60, size),
                         _outside_probes(region, rng, 20)])
    with mock.patch.object(compliance, "CHUNK", chunk):
        _assert_matches_reference(region, samples)


def test_off_region_samples_test_few_chords():
    # 100 node-wedge probes on a seeded 4000-chord oval: the grid leaves
    # every one open, and the runs hand _spans under a tenth of the
    # 400 000 (probe, chord) pairs that testing every chord would
    rng = np.random.default_rng(18)
    m = 4000
    pts = _oval(rng.uniform(0.0, 2.0 * math.pi)
                + 2.0 * math.pi * np.arange(m) / m)
    region = build_region(analyze(SplineInput(pts, closed=True)))
    probes = _wedge_probes(pts, True, rng, 100)
    pairs = []
    spans = compliance._spans

    def counted(g, reach, pts, i, j):
        pairs.append(np.broadcast(i, j).size)
        return spans(g, reach, pts, i, j)

    with mock.patch.object(compliance, "_spans", counted):
        rep = check_containment(region, probes)
    assert rep.violations.size == len(probes)
    assert sum(pairs) <= 0.1 * len(probes) * m


@pytest.mark.parametrize("big", [2.0 ** 510, 1e200, 1e300, -1e308])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("chunk", [1 << 16, 40], ids=["broadcast", "grid"])
def test_huge_samples_are_measured_without_overflow(big, closed, chunk):
    # squared distances from such samples, and their grid cells, overflow
    # when computed as they stand; with warnings as errors numpy's
    # overflow warning would raise.  They are measured as the brute force
    # measures them, and samples near the data as without them
    if closed:
        pts = _oval(np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
        data = SplineInput(pts, closed=True)
    else:
        ends = np.array([-2.0, 2.0])
        pts = _oval(np.linspace(*ends, 24))
        tau = np.arctan2(np.cos(ends), -np.sin(ends) - 0.44 * np.sin(2 * ends))
        data = SplineInput(pts, float(tau[0]), float(tau[1]))
    region = build_region(analyze(data))
    near = pts + 0.01
    ways = np.array([[1.0, 0.0], [0.1, 1.0], [-1.0, -0.5], [0.6, -0.8],
                     [-0.3, 0.7]])
    samples = np.vstack([near, big * ways])
    with mock.patch.object(compliance, "CHUNK", chunk):
        assert (len(samples) * len(region.chords) > chunk) == (chunk == 40)
        rep = _assert_matches_reference(region, samples)
        alone = check_containment(region, near)
    k = len(near)
    for got, want in zip((rep.chord_index, rep.x_local, rep.y_local,
                          rep.margin_lower, rep.margin_upper),
                         (alone.chord_index, alone.x_local, alone.y_local,
                          alone.margin_lower, alone.margin_upper)):
        npt.assert_array_equal(got[:k], want)
    if closed:
        assert np.all(rep.chord_index[k:] > 0)
        npt.assert_allclose(rep.worst_margin, -abs(big), rtol=0.5)


@pytest.mark.parametrize("name", ["oval-grid", "spiral-grid"])
@pytest.mark.parametrize("chunk", [1 << 16, 1 << 20], ids=["grid", "broadcast"])
def test_scaling_by_a_power_of_two_scales_the_report(name, chunk):
    # the region does not depend on the unit of length: data and samples
    # scaled by 2**k give the same chords, and x, y and both margins
    # scaled exactly.  Both goldens have samples in no chord's span, taken
    # to their nearest node: squared distances would pick a wrong node at
    # 2**-560 and 2**-600 (they underflow and tie).  Scales stop below
    # 2**511, where the width estimate squares the half-chords
    data, _ = load_profile(str(GOLDEN / (name + ".json")))
    samples = load_samples(str(GOLDEN / (name + ".txt")))
    with mock.patch.object(compliance, "CHUNK", chunk):
        region = build_region(analyze(data))
        assert (len(samples) * len(region.chords) > chunk) == (chunk < 1 << 20)
        want = check_containment(region, samples)
        g = region.chords
        spanned = compliance._spans(
            g, g.c * (1.0 + compliance.SPAN_SLACK), samples,
            np.arange(len(samples))[:, None], np.arange(len(g.c)))
        assert not spanned.any(axis=1).all()
        for k in (-600, -560, 500):
            s = 2.0 ** k
            scaled = build_region(analyze(SplineInput(
                data.points * s, data.tau_start, data.tau_end,
                closed=data.closed)))
            got = check_containment(scaled, samples * s)
            npt.assert_array_equal(got.chord_index, want.chord_index)
            for a, b in ((got.x_local, want.x_local),
                         (got.y_local, want.y_local),
                         (got.margin_lower, want.margin_lower),
                         (got.margin_upper, want.margin_upper)):
                npt.assert_array_equal(a, b * s)


@pytest.mark.parametrize("profile", ["spiral-inc", "oval"])
@pytest.mark.parametrize("chunk", [40, compliance.CHUNK])
def test_samples_too_large_to_project_are_rejected(profile, chunk):
    # a projection is bounded by |x| + |y| of the sample plus the chords'
    # largest |ox| + |oy|; where that reaches the float maximum the sample
    # is named, counted from 0, and the test itself does not overflow
    # (numpy's warning would raise here)
    data, overrides = load_profile(str(GOLDEN / (profile + ".json")))
    region = build_region(analyze(data), "auto", overrides)
    near = data.points + 0.01
    fits = 0.49 * np.finfo(float).max
    with mock.patch.object(compliance, "CHUNK", chunk):
        for big in (1.5e308, 1.7e308, 0.5 * np.finfo(float).max):
            for way in ([1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]):
                samples = np.vstack([near, [fits, -fits], np.multiply(
                    big, way), [0.0, 0.0]])
                assert ((len(samples) * len(region.chords) > chunk)
                        == (chunk == 40))
                with pytest.raises(InputError, match=r"^sample %d is too "
                                   "large to measure" % (len(near) + 1)):
                    check_containment(region, samples)
        # below the bound a sample is measured
        rep = check_containment(region, np.vstack([near, [fits, -fits]]))
    npt.assert_array_equal(rep.chord_index[:-1],
                           check_containment(region, near).chord_index)


# ---------------------------------------------------------------------------
# Each sample's best chord: one reduction per run of its pairs
# ---------------------------------------------------------------------------


def test_best_of_runs_gives_a_tie_to_the_lower_chord():
    # samples 0, 2 and 5: equal best scores in the first run and in the
    # final one, where the lower chord comes last; one pair for sample 2
    i = np.array([0, 0, 0, 2, 5, 5, 5])
    j = np.array([4, 1, 3, 7, 2, 6, 0])
    score = np.array([1.0, 1.0, 0.5, -3.0, 2.0, -1.0, 2.0])
    npt.assert_array_equal(compliance._best_of_runs(i, j, score), [1, 3, 6])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.5]), min_size=1,
                         max_size=5), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_best_of_runs_matches_a_sort(runs, rnd):
    # scores from three values tie often; chords in no order in a run
    i = np.repeat(np.arange(len(runs)) * 3, [len(r) for r in runs])
    j = np.concatenate([rnd.sample(range(10), len(r)) for r in runs])
    score = np.concatenate(runs)
    order = np.lexsort((j, -score, i))
    first = order[np.concatenate(([True], i[order][1:] != i[order][:-1]))]
    npt.assert_array_equal(compliance._best_of_runs(i, j, score), first)
