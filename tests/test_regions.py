"""Bounding regions: simple lenses, vertex substitution, narrowed biarcs.

The gold standards here are containment of the generating curve, the
nesting of the narrowed region inside the simple one, and the closed
forms for lens width.  Override handling gets its own section: clamps,
contradictions, and the conservative fallback for infeasible corners.
"""

import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spiralbounds import cli, geometry, profile_io, regions
from spiralbounds.analysis import Classification, SplineInput, analyze
from spiralbounds.compliance import SPAN_SLACK, check_containment
from spiralbounds.errors import ClassificationError, DataError, OverrideError
from spiralbounds.geometry import (Arc, Biarc, arcs, curve_eval, curves,
                                   gap_maxima, height, member_fields, take)
from spiralbounds.profile_io import (load_profile, load_samples,
                                     region_report, report_json,
                                     save_columns)
from spiralbounds.regions import (
    Region,
    _boundaries,
    build_region,
    checked_overrides,
    curvature_ranges,
    narrowed_angle_ranges,
    narrowed_region,
    simple_region,
    vertex_region,
)
from spiralbounds.splinefit import cubic_spline_fixture
from spiralbounds.svg import render_svg

from arcspline import arc_spline_dataset, random_arc_spline
from logspiral import LogSpiral, spiral_dataset
from conftest import (assert_like_constructed, hand_made, reference_narrowed,
                      sparse_dataset)


GOLDEN = Path(__file__).resolve().parent / "golden"


def spiral_analysis(seed, **kw):
    rng = np.random.default_rng(seed)
    pts, t0, t1, arc = spiral_dataset(rng, **kw)
    return analyze(SplineInput(pts, t0, t1)), arc


def oval_analysis(n=16):
    t = np.linspace(0.0, 2 * math.pi, n + 1)[:-1]
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    return analyze(SplineInput(pts, closed=True))


# ---------------------------------------------------------------------------
# Simple region
# ---------------------------------------------------------------------------


def test_width_closed_form():
    # lens width is c |tan(xi/2) + tan(eta/2)| on every chord
    an, _ = spiral_analysis(21)
    reg = simple_region(an)
    for ch, xi, eta in zip(reg.chords, an.angles.xi, an.angles.eta):
        c = ch.frame.half_length
        want = c * abs(math.tan(xi / 2) + math.tan(eta / 2))
        npt.assert_allclose(ch.width, want, rtol=1e-12, atol=1e-15)


def test_width_formula_fixed_numbers():
    c, xi, eta = 1.0, 0.2, 0.1
    width = c * abs(math.tan(xi / 2) + math.tan(eta / 2))
    npt.assert_allclose(width, 0.15037638046098933, rtol=1e-12)


def test_width_equals_boundary_gap_at_midpoint():
    an, _ = spiral_analysis(22)
    reg = simple_region(an)
    for ch in reg.chords:
        gap = curve_eval(ch.upper, 0.0) - curve_eval(ch.lower, 0.0)
        npt.assert_allclose(ch.width, abs(gap), rtol=1e-10, atol=1e-14)


def test_width_estimate_tracks_width():
    # half c^2 |q_j - q_{j+1}| is the leading-order width
    an, _ = spiral_analysis(23, n_nodes=12)
    reg = simple_region(an)
    for ch in reg.chords:
        if ch.width > 1e-12:
            assert 0.2 < ch.width_estimate / ch.width < 5.0


def test_simple_region_contains_generating_spiral():
    for seed in range(31, 35):
        an, arc = spiral_analysis(seed)
        reg = simple_region(an)
        thetas = _node_thetas(an, arc)
        for ch in reg.chords:
            piece = arc.spiral.arc(thetas[ch.index - 1], thetas[ch.index])
            c = ch.frame.half_length
            xs = np.linspace(-c, c, 400)
            y = piece.height(xs)
            assert np.min(y - curve_eval(ch.lower, xs)) > -1e-11 * c
            assert np.min(curve_eval(ch.upper, xs) - y) > -1e-11 * c


def _node_thetas(an, arc):
    """Recover the exact spiral parameter of every data node.

    The polar angle around the spiral center determines theta up to whole
    turns; node spacing below a full turn makes the lift unique.
    """
    sp = arc.spiral
    out = [arc.theta0]
    for p in an.data.points[1:]:
        raw = math.atan2(p[1] - sp.center[1], p[0] - sp.center[0])
        k = math.ceil((out[-1] - raw) / (2 * math.pi) - 1e-12)
        out.append(raw + 2 * math.pi * k)
    return out


def test_circle_region_has_zero_width(circle_analysis):
    reg = simple_region(circle_analysis)
    assert reg.width < 1e-10
    for ch in reg.chords:
        assert isinstance(ch.lower, Arc) and isinstance(ch.upper, Arc)
        npt.assert_allclose(ch.lower.phi, ch.upper.phi, atol=1e-12)


def test_region_width_is_largest_chord_width(circle_analysis):
    for reg in (simple_region(circle_analysis), vertex_region(oval_analysis())):
        assert reg.width == max(ch.width for ch in reg.chords)


def test_simple_region_rejects_inadmissible_data():
    p0, p1 = np.array([0.0, 0.0]), np.array([0.4, 0.0])
    p2 = p1 + 2.0 * np.array([math.cos(2.0), math.sin(2.0)])
    an = analyze(SplineInput(np.array([p0, p1, p2]), 0.0, 2.0))
    with pytest.raises(ClassificationError):
        simple_region(an)


# ---------------------------------------------------------------------------
# Vertex region
# ---------------------------------------------------------------------------


def test_vertex_region_substitutes_one_arc_per_vertex_side():
    an = oval_analysis()
    assert an.classification.kind == "piecewise"
    vertices = {v for v, _ in an.classification.vertices}
    reg = vertex_region(an)
    assert len(reg.chords) == len(an.chords)
    for ch, xi, eta in zip(reg.chords, an.angles.xi, an.angles.eta):
        start, end = ch.index, ch.index % len(reg.chords) + 1
        lo, up = ch.lower, ch.upper
        assert isinstance(lo, Arc) and isinstance(up, Arc)
        if start not in vertices and end not in vertices:
            npt.assert_allclose(sorted([lo.phi, up.phi]),
                                sorted([-eta, xi]), atol=1e-12)


def test_vertex_region_contains_generating_oval():
    an = oval_analysis()
    reg = vertex_region(an)
    t = np.linspace(0.0, 2 * math.pi, 20001)
    oval = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    from spiralbounds.compliance import check_containment
    rep = check_containment(reg, oval)
    assert rep.passed
    assert rep.unassigned_count == 0


def test_vertex_region_harmonic_oval():
    # a second-harmonic perturbation of the circle still classifies as
    # piecewise and gets a positive-width region on every chord
    t = np.linspace(0, 2 * math.pi, 15)[:-1]
    pts = np.column_stack([np.cos(t) + 0.22 * np.cos(2 * t),
                           np.sin(t)])
    an = analyze(SplineInput(pts, closed=True))
    assert an.classification.kind == "piecewise"
    reg = vertex_region(an)
    assert reg.width > 0
    assert len(reg.chords) == len(pts)


def test_vertex_region_mirror_symmetry():
    # reflecting the data across the x-axis mirrors every boundary curve
    an = oval_analysis()
    reg = vertex_region(an)
    pts = an.data.points.copy()
    pts[:, 1] *= -1.0
    an2 = analyze(SplineInput(pts[::-1].copy(), closed=True))
    reg2 = vertex_region(an2)
    assert reg2.width == pytest.approx(reg.width, rel=1e-9)


def test_vertex_region_rejects_vertices_at_both_ends_of_a_chord():
    # classify never puts vertices next to each other, but a library
    # caller can hand vertex_region such a classification
    data, _ = load_profile(str(GOLDEN / "oval.json"))
    an = dataclasses.replace(analyze(data), classification=Classification(
        "piecewise", None, ((2, "max"), (3, "min")), ()))
    with pytest.raises(ClassificationError,
                       match=r"vertices at both ends of chord 2$"):
        vertex_region(an)


def test_vertex_widths_bound_the_dense_gap():
    # a width is an upper bound of the gap, not a sampled lower bound:
    # no abscissa of a fine grid may find the boundaries further apart
    # than the reported width, beyond rounding
    for an in (oval_analysis(), oval_analysis(n=23)):
        for ch in vertex_region(an).chords:
            c = ch.frame.half_length
            xs = np.linspace(-c, c, 200_001)
            dense = np.max(curve_eval(ch.upper, xs) - curve_eval(ch.lower, xs))
            assert ch.width >= dense * (1.0 - 1e-13), (ch.index, ch.width,
                                                        dense)


# ---------------------------------------------------------------------------
# Narrowed region
# ---------------------------------------------------------------------------


def test_narrowed_angle_table_boundaries():
    an, _ = spiral_analysis(41, increasing=True)
    tab = narrowed_angle_ranges(an)
    xi, eta = an.angles.xi, an.angles.eta
    npt.assert_allclose(tab.alpha_lo[0], xi[0], atol=1e-14)
    npt.assert_allclose(tab.beta_lo[-1], eta[-1], atol=1e-14)
    npt.assert_allclose(tab.alpha_hi, xi, atol=1e-14)
    npt.assert_allclose(tab.beta_hi, eta, atol=1e-14)


def test_narrowed_angle_table_interior_rows():
    an, _ = spiral_analysis(42, increasing=True)
    tab = narrowed_angle_ranges(an)
    xi, eta = an.angles.xi, an.angles.eta
    rho = an.nodes.rho
    for j in range(1, len(xi)):
        want = max(-rho[j] - xi[j - 1], -eta[j])
        npt.assert_allclose(tab.alpha_lo[j], want, atol=1e-14)
    for j in range(len(xi) - 1):
        want = max(-xi[j], rho[j + 1] - eta[j + 1])
        npt.assert_allclose(tab.beta_lo[j], want, atol=1e-14)


def test_narrowed_angles_consistent_across_nodes():
    # the tangent range at a node reads the same from both chords
    for seed in (43, 44):
        an, _ = spiral_analysis(seed, increasing=True)
        tab = narrowed_angle_ranges(an)
        rho = an.nodes.rho
        for j in range(1, len(an.angles)):
            npt.assert_allclose(tab.beta_lo[j - 1], tab.alpha_lo[j] + rho[j],
                                atol=1e-12)


def test_narrowed_angle_ranges_nonempty():
    for seed in (45, 46, 47):
        an, _ = spiral_analysis(seed)
        tab = narrowed_angle_ranges(an)
        for j in range(len(an.angles)):
            assert tab.alpha_lo[j] <= tab.alpha_hi[j] + 1e-12
            assert tab.beta_lo[j] <= tab.beta_hi[j] + 1e-12


def test_curvature_ranges_bracket_node_curvatures():
    # each node's admissible tangent-circle curvatures contain the node's
    # own three-point curvature and stay inside the neighbour values;
    # the open ends of the data are one-sidedly unbounded
    for increasing, seed in [(True, 48), (False, 49)]:
        an, _ = spiral_analysis(seed, increasing=increasing)
        q = an.nodes.q
        cr = curvature_ranges(an)
        n = len(q)
        tol = 1e-9 * max(abs(v) for v in q)
        for i in range(n):
            assert cr.lower[i] <= q[i] + tol <= cr.upper[i] + 2 * tol
            nbhd = q[max(0, i - 1):i + 2]
            if math.isfinite(cr.lower[i]):
                assert cr.lower[i] >= min(nbhd) - tol
            if math.isfinite(cr.upper[i]):
                assert cr.upper[i] <= max(nbhd) + tol
        # exactly one unbounded side per open end
        infinite = [v for v in list(cr.lower) + list(cr.upper)
                    if math.isinf(v)]
        assert len(infinite) == 2


def test_narrowed_widths_bound_the_dense_gap():
    # narrowed widths are exact too: no abscissa of a fine grid finds the
    # boundary biarcs further apart than the reported width
    cases = [(spiral_analysis(seed, increasing=inc)[0], None)
             for seed, inc in ((71, True), (72, False), (73, True))]
    cases += [(analyze(sparse_dataset()), None),
              (spiral_analysis(63, increasing=True)[0], {1: {"a": 0.0}})]
    for an, overrides in cases:
        for ch in narrowed_region(an, overrides).chords:
            c = ch.frame.half_length
            xs = np.linspace(-c, c, 200_001)
            dense = np.max(curve_eval(ch.upper, xs) - curve_eval(ch.lower, xs))
            assert ch.width >= dense * (1.0 - 1e-13), (ch.index, ch.width,
                                                        dense)


def test_widths_are_never_negative():
    # single-arc data: each chord's two boundaries are the one circle, and
    # only rounding puts a gap between them, of either sign
    rng = np.random.default_rng(0)
    pts, t0, t1, _ = arc_spline_dataset(
        rng, random_arc_spline(rng, 1, False), 15)
    an = analyze(SplineInput(pts, t0, t1))
    for grade in ("simple", "vertex", "narrowed"):
        width = build_region(an, grade).chords.width
        assert not np.signbit(width).any(), (grade, width.min())
        assert width.max() < 1e-15, grade


def test_narrowed_region_nests_inside_simple():
    for seed in (51, 52, 53, 54):
        an, _ = spiral_analysis(seed)
        simple = simple_region(an)
        narrow = narrowed_region(an)
        for s, n in zip(simple.chords, narrow.chords):
            c = s.frame.half_length
            xs = np.linspace(-c, c, 500)
            lo_s = curve_eval(s.lower, xs)
            up_s = curve_eval(s.upper, xs)
            lo_n = curve_eval(n.lower, xs)
            up_n = curve_eval(n.upper, xs)
            assert np.min(lo_n - lo_s) > -1e-10 * c
            assert np.min(up_s - up_n) > -1e-10 * c
            assert np.min(up_n - lo_n) > -1e-10 * c


def test_narrowed_region_contains_generating_spiral():
    from spiralbounds.compliance import check_containment
    for seed in (55, 56, 57):
        an, arc = spiral_analysis(seed)
        reg = narrowed_region(an)
        rep = check_containment(reg, arc.sample_global(4000))
        assert rep.passed, rep.worst_margin


def test_narrowed_width_never_wider_than_simple():
    for seed in (58, 59):
        an, _ = spiral_analysis(seed)
        assert (narrowed_region(an).width
                <= simple_region(an).width + 1e-15)


def test_narrowed_region_rejects_piecewise_data():
    an = oval_analysis()
    with pytest.raises(ClassificationError):
        narrowed_region(an)


def test_narrowed_boundaries_are_arcs_or_biarcs():
    an, _ = spiral_analysis(61)
    reg = narrowed_region(an)
    for ch in reg.chords:
        assert isinstance(ch.lower, (Arc, Biarc))
        assert isinstance(ch.upper, (Arc, Biarc))


def test_decreasing_spiral_mirrors_cleanly():
    # decreasing data runs through the mirrored table; the result must
    # still be a valid region in the original frame
    an, arc = spiral_analysis(62, increasing=False)
    assert an.classification.direction == "decreasing"
    reg = narrowed_region(an)
    from spiralbounds.compliance import check_containment
    rep = check_containment(reg, arc.sample_global(4000))
    assert rep.passed, rep.worst_margin


# ---------------------------------------------------------------------------
# Overrides
# ---------------------------------------------------------------------------


def test_override_zero_floor_builds_regular_biarc():
    # raising the start-node floor to zero replaces the degenerate
    # boundary member by a proper biarc through the same angles
    an, arc = spiral_analysis(63, increasing=True)
    if an.nodes.q[0] <= 0:
        pytest.skip("seed gave non-positive start curvature")
    base = narrowed_region(an)
    reg = narrowed_region(an, overrides={1: {"a": 0.0}})
    assert isinstance(base.chords[0].lower, Arc)
    assert isinstance(reg.chords[0].lower, Biarc)
    npt.assert_allclose(reg.chords[0].lower.a, 0.0, atol=1e-15)
    # a valid tightening can only shrink the first lens
    assert reg.chords[0].width <= base.chords[0].width + 1e-15
    # and the generating spiral still fits
    from spiralbounds.compliance import check_containment
    assert check_containment(reg, arc.sample_global(4000)).passed


def test_override_only_tightens():
    # a floor below the natural bound changes nothing
    an, _ = spiral_analysis(64, increasing=True)
    base = narrowed_region(an)
    reg = narrowed_region(an, overrides={2: {"a": -1e9}, 3: {"b": 1e9}})
    for b, r in zip(base.chords, reg.chords):
        npt.assert_allclose(r.width, b.width, rtol=1e-12, atol=1e-15)


def test_override_unknown_node_rejected():
    an, _ = spiral_analysis(65)
    with pytest.raises(OverrideError):
        narrowed_region(an, overrides={99: {"a": 0.0}})


@pytest.mark.parametrize("grade", ["simple", "vertex", "narrowed"])
def test_build_region_checks_override_nodes_at_every_grade(grade):
    # only the narrowed grade uses overrides, but every grade checks them
    an, _ = spiral_analysis(65)
    nodes = r"node 99, but nodes run 1\.\.%d" % len(an.nodes)
    with pytest.raises(OverrideError, match=nodes):
        build_region(an, grade, {99: {"a": 1e9}})


def test_override_unknown_key_rejected():
    an, _ = spiral_analysis(65)
    with pytest.raises(OverrideError):
        narrowed_region(an, overrides={1: {"kappa": 0.0}})


def test_override_empty_range_rejected():
    an, _ = spiral_analysis(65)
    with pytest.raises(OverrideError):
        narrowed_region(an, overrides={2: {"a": 1.0, "b": -1.0}})


@pytest.mark.parametrize("overrides", [
    {3: (math.nan, None)},
    {3: (None, -math.inf)},
    {3: {"a": True}},
    {"3": {"a": "x"}},
    {3: {"b": [1.0]}},
    {3: {"a": 10 ** 400}},
    {3: (None, -10 ** 400)},
])
def test_override_bad_number_rejected_and_named(overrides):
    an, _ = spiral_analysis(65)
    with pytest.raises(OverrideError, match=r"\bnode 3\b"):
        build_region(an, overrides=overrides)


@pytest.mark.parametrize("overrides", [
    {"3": {"a": -1.0}, "03": {"b": 2.0}},
    {3: {"a": -1.0}, "003": {"b": 2.0}},
    {3: (None, 1.0), "3": (None, 2.0)},
    {"3": {}, 3: {"a": 1.0}},
])
def test_override_same_node_twice_rejected_and_named(overrides):
    # keeping either entry would silently drop the other
    with pytest.raises(OverrideError, match=r"\bnode 3\b"):
        checked_overrides(overrides)


@pytest.mark.parametrize("key", ["1_0", " 3", " 3 ", "+3", "\u0663", 1.5,
                                 True, "", None])
def test_override_key_not_node_number_rejected_and_named(key):
    # int() would read "1_0" as node 10, " 3 ", "+3" and "\u0663" as
    # node 3, and 1.5 and True as node 1
    with pytest.raises(OverrideError, match=re.escape(repr(key))):
        checked_overrides({key: {"a": 0.0}})


def test_override_contradiction_rejected():
    # a floor far above the node's ceiling leaves no curvature at all
    an, _ = spiral_analysis(65, increasing=True)
    with pytest.raises(OverrideError):
        narrowed_region(an, overrides={2: {"a": 1e6}})


@pytest.mark.parametrize("name, computed, overrides", [
    ("spiral-inc", "[0.364928, 0.392098]",
     [{"a": 1.392, "b": 2.392}, {"a": 0.5}, {"a": -2.392, "b": -1.392},
      {"b": 0.1}]),
    ("spiral-dec", "[-0.392098, -0.364928]",
     [{"a": -0.3}, {"a": 1.392, "b": 2.392}, {"b": -0.5},
      {"a": -2.392, "b": -1.392}]),
])
def test_override_contradiction_names_the_computed_range(name, computed,
                                                         overrides):
    # above and below node 3's range, increasing and decreasing data: the
    # message gives the range before the override, as the data runs
    data, _ = load_profile(str(GOLDEN / (name + ".json")))
    an = analyze(data)
    ranges = curvature_ranges(an)
    assert "[%g, %g]" % (ranges.lower[2], ranges.upper[2]) == computed
    for spec in overrides:
        with pytest.raises(OverrideError, match=re.escape(
                "override at node 3 contradicts the computed range "
                + computed)):
            build_region(an, "narrowed", {"3": spec})


def _corner(lower_tainted, upper_tainted):
    """One chord whose boundary curvatures lie just past the feasible
    limits, through the column rule of the narrowed region."""
    def one(v):
        return np.array([v])
    return _boundaries(
        one(1.0),
        (one(0.5), one(0.1), one(-math.sin(0.5) + 1e-6), one(lower_tainted)),
        (one(0.5), one(0.1), one(math.sin(0.1) - 1e-6), one(upper_tainted)),
        mirrored=False)


def test_infeasible_corner_fallback_is_conservative():
    # untainted infeasibility (ranges crossing by rounding) falls back to
    # the widest member rather than failing; exercised directly with a
    # start curvature just past the feasible limit
    fam, arc = _corner(False, False)
    assert arc.all()
    lo, up = curves(fam, arc)
    assert isinstance(lo, Arc)
    npt.assert_allclose(lo.phi, -0.1, atol=1e-12)
    assert isinstance(up, Arc)
    npt.assert_allclose(up.phi, 0.5, atol=1e-12)


def test_infeasible_corner_with_override_is_an_error():
    with pytest.raises(OverrideError):
        _corner(True, False)
    with pytest.raises(OverrideError):
        _corner(False, True)


def test_overrides_on_decreasing_spiral():
    # override semantics survive the mirror: a floor of -K is inert for
    # data whose curvatures stay above it
    an, arc = spiral_analysis(66, increasing=False)
    base = narrowed_region(an)
    reg = narrowed_region(an, overrides={2: {"a": -1e9}})
    for b, r in zip(base.chords, reg.chords):
        npt.assert_allclose(r.width, b.width, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Arc-spline oracle
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pieces=st.integers(1, 7),
       n_nodes=st.integers(3, 24), increasing=st.booleans())
def test_spiral_regions_contain_arc_splines(seed, pieces, n_nodes,
                                            increasing):
    # monotone arc splines jump in curvature, cross inflections and run
    # along a boundary circle wherever one arc holds three nodes: the
    # regions must hold them at the default tol, with no slack to spare
    from spiralbounds.compliance import check_containment
    rng = np.random.default_rng(seed)
    spline = random_arc_spline(rng, pieces, increasing)
    pts, t0, t1, _ = arc_spline_dataset(rng, spline, n_nodes)
    an = analyze(SplineInput(pts, t0, t1))
    assume(an.classification.kind == "spiral")
    dense = spline.point(np.linspace(0.0, spline.total, 4001))
    for region in (simple_region(an), narrowed_region(an)):
        rep = check_containment(region, dense)
        assert rep.passed, (region.grade, rep.worst_margin, rep.tol)
        assert rep.unassigned_count == 0


# ---------------------------------------------------------------------------
# build_region dispatch
# ---------------------------------------------------------------------------


def test_build_region_auto_grades():
    an, _ = spiral_analysis(71)
    assert build_region(an).grade == "narrowed"
    assert build_region(oval_analysis()).grade == "vertex"


def test_build_region_explicit_grades(circle_analysis):
    assert build_region(circle_analysis, "simple").grade == "simple"
    assert build_region(circle_analysis, "narrowed").grade == "narrowed"
    with pytest.raises(ValueError):
        build_region(circle_analysis, "bogus")


def test_rigid_motion_equivariance():
    # widths are geometric: invariant under rotation plus translation
    an, _ = spiral_analysis(72)
    pts = an.data.points
    ang, shift = 1.1, np.array([-4.0, 2.5])
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    moved = analyze(SplineInput(pts @ rot.T + shift,
                                an.data.tau_start + ang,
                                an.data.tau_end + ang))
    for grade in ("simple", "narrowed"):
        w0 = build_region(an, grade).width
        w1 = build_region(moved, grade).width
        npt.assert_allclose(w1, w0, rtol=1e-9, atol=1e-14)


def test_sparse_dataset_is_spiral_with_wide_early_lenses():
    an = analyze(sparse_dataset())
    assert an.classification.kind == "spiral"
    reg = build_region(an)
    assert reg.grade == "narrowed"
    assert reg.width > 0.01  # genuinely wide: ill-set data


# ---------------------------------------------------------------------------
# Rotating the start of closed data
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(10, 40), axes=st.tuples(st.floats(0.5, 3.0),
                                             st.floats(0.5, 3.0)),
       warp=st.floats(0.0, 0.3), phase=st.floats(0.0, 2 * math.pi),
       shift=st.integers(1, 39))
def test_rolling_closed_data_rolls_every_result(n, axes, warp, phase, shift):
    # node i of the rolled data is node i + k of the original, so every
    # per-node and per-chord quantity rolls by k and the vertex set moves
    # with it; a wrap rule off by one breaks this
    k = shift % n
    s = np.linspace(0.0, 2 * math.pi, n + 1)[:-1]
    t = s + warp * np.sin(s + phase)
    pts = np.column_stack([axes[0] * np.cos(t), axes[1] * np.sin(t)])
    try:
        base = analyze(SplineInput(pts, closed=True))
        reg = build_region(base)
    except DataError:
        assume(False)
    rolled = analyze(SplineInput(np.roll(pts, -k, axis=0), closed=True))
    rreg = build_region(rolled)

    npt.assert_allclose(rolled.nodes.q, np.roll(base.nodes.q, -k),
                        rtol=1e-12)
    for name in ("xi", "eta"):
        npt.assert_allclose(getattr(rolled.angles, name),
                            np.roll(getattr(base.angles, name), -k),
                            rtol=1e-12, atol=1e-15)
    npt.assert_allclose([ch.width for ch in rreg.chords],
                        np.roll([ch.width for ch in reg.chords], -k),
                        rtol=1e-12, atol=1e-15)
    bcls, rcls = base.classification, rolled.classification
    assert (rcls.kind, rcls.direction, rreg.grade) == (
        bcls.kind, bcls.direction, reg.grade)
    assert set(rcls.vertices) == {((v - 1 - k) % n + 1, kind)
                                  for v, kind in bcls.vertices}


# ---------------------------------------------------------------------------
# Narrowed columns against the per-chord construction; symmetries
# ---------------------------------------------------------------------------


def _fields(curve):
    return np.hstack(dataclasses.astuple(curve))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), increasing=st.booleans(),
       n_nodes=st.integers(4, 25),
       picks=st.lists(st.tuples(st.integers(0, 1000), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0),
                                st.sampled_from(["a", "b", "ab"])),
                      max_size=4))
def test_narrowed_columns_match_the_per_chord_build(seed, increasing, n_nodes,
                                                    picks):
    # random overrides inside each node's computed range: the column build
    # must give every chord the same boundary type, the same fields and
    # the same width as the chord-by-chord loop, or the same error
    pts, t0, t1, _ = spiral_dataset(np.random.default_rng(seed),
                                    n_nodes=n_nodes, increasing=increasing)
    an = analyze(SplineInput(pts, t0, t1))
    assume(an.classification.kind == "spiral")
    ranges = curvature_ranges(an)
    overrides = {}
    for node, u, v, sides in picks:
        i = node % len(an.nodes)
        lo, hi = ranges.lower[i], ranges.upper[i]
        if np.isfinite(lo) and np.isfinite(hi):
            a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
            overrides[i + 1] = {side: bound for side, bound in
                                (("a", a), ("b", b)) if side in sides}
    try:
        lowers, uppers, widths = reference_narrowed(an, overrides)
    except OverrideError as exc:
        with pytest.raises(OverrideError) as got:
            narrowed_region(an, overrides)
        assert str(got.value) == str(exc)
        return
    region = narrowed_region(an, overrides)
    assert len(region.chords) == len(lowers)
    for ch, lower, upper, width in zip(region.chords, lowers, uppers, widths):
        for got, want in ((ch.lower, lower), (ch.upper, upper)):
            assert type(got) is type(want)
            npt.assert_allclose(_fields(got), _fields(want), rtol=1e-12,
                                atol=0.0)
        assert ch.width == width


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), increasing=st.booleans(),
       n_nodes=st.integers(4, 25), s=st.floats(1e-3, 1e3))
def test_widths_keep_the_symmetries_of_the_data(seed, increasing, n_nodes, s):
    # mirroring keeps every grade's chord widths, reversal reverses their
    # order and scaling by s multiplies them by s
    pts, t0, t1, _ = spiral_dataset(np.random.default_rng(seed),
                                    n_nodes=n_nodes, increasing=increasing)

    def widths(points, tau_start, tau_end):
        an = analyze(SplineInput(points, tau_start, tau_end))
        return {grade: np.array([ch.width
                                 for ch in build_region(an, grade).chords])
                for grade in ("simple", "vertex", "narrowed")}

    try:
        base = widths(pts, t0, t1)
    except DataError:
        assume(False)
    mirrored = widths(pts * [1.0, -1.0], -t0, -t1)
    reversed_ = widths(pts[::-1], t1 + math.pi, t0 + math.pi)
    scaled = widths(s * pts, t0, t1)
    for grade, w in base.items():
        npt.assert_allclose(mirrored[grade], w, rtol=1e-9, atol=0.0)
        npt.assert_allclose(reversed_[grade], w[::-1], rtol=1e-9, atol=0.0)
        npt.assert_allclose(scaled[grade], s * w, rtol=1e-9, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pieces=st.integers(1, 6),
       n_nodes=st.integers(4, 20), increasing=st.booleans(),
       k=st.integers(-8, 8), turn=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_arc_spline_widths_keep_the_symmetries_of_the_data(
        seed, pieces, n_nodes, increasing, k, turn, shift):
    # on arc-spline data at the simple and narrowed grades: scaling by
    # 2^k scales every chord width exactly, a rigid motion keeps them to
    # 1e-9 relative, and mirroring (y -> -y, tangents negated) keeps them
    # and swaps the direction of the curvature.  The widths of coincident
    # boundaries (one arc through four nodes) are rounding, which the
    # atol admits
    rng = np.random.default_rng(seed)
    spline = random_arc_spline(rng, pieces, increasing)
    pts, t0, t1, _ = arc_spline_dataset(rng, spline, n_nodes)

    def built(points, tau_start, tau_end):
        an = analyze(SplineInput(points, tau_start, tau_end))
        return an.classification, {
            grade: build_region(an, grade).chords.width
            for grade in ("simple", "narrowed")}

    cls, base = built(pts, t0, t1)
    assume(cls.kind == "spiral")
    c = 0.5 * np.hypot(*np.diff(pts, axis=0).T)
    scaled = built(2.0 ** k * pts, t0, t1)[1]
    rot = np.array([[math.cos(turn), math.sin(turn)],
                    [-math.sin(turn), math.cos(turn)]])
    moved = built(pts @ rot + shift, t0 + turn, t1 + turn)[1]
    mirror_cls, mirrored = built(pts * [1.0, -1.0], -t0, -t1)
    swap = {"increasing": "decreasing", "decreasing": "increasing",
            "constant": "constant"}
    assert mirror_cls.kind == "spiral"
    assert mirror_cls.direction == swap[cls.direction]
    for grade, w in base.items():
        npt.assert_array_equal(scaled[grade], 2.0 ** k * w, err_msg=grade)
        for other in (moved, mirrored):
            npt.assert_allclose(other[grade], w, rtol=1e-9,
                                atol=1e-12 * np.max(c), err_msg=grade)


def _mp_gap_maxima(chords):
    """Per chord the largest gap between its upper and lower boundary,
    to 50 digits and by rules of its own: a piece's height from the
    circle relation sin(theta(x)) = sin(theta_e) + k (x - x_e), and on
    each stretch between the joins the ends and a root of the slope
    gap, found by mpmath's findroot."""
    def piece(theta, k, end):
        s_e, c_e = mpmath.sin(theta), mpmath.cos(theta)

        def sine(x):
            return s_e + k * (x - end)

        def y(x):
            if k == 0:
                return s_e / c_e * (x - end)
            return (c_e - mpmath.sqrt(1 - sine(x) ** 2)) / k

        def slope(x):
            return sine(x) / mpmath.sqrt(1 - sine(x) ** 2)
        return y, slope

    out = []
    with mpmath.workdps(50):
        for k in range(len(chords)):
            c = mpmath.mpf(float(chords.c[k]))
            sides = []
            for side in (0, 1):
                fam = take(chords.members, (side, k))
                v = [mpmath.mpf(float(f)) for f in
                     (fam.alpha, fam.beta, fam.a, fam.b, fam.join[0])]
                sides.append((v[4], piece(v[0], v[2], -c),
                              piece(v[1], v[3], c)))
            cuts = sorted({-c, c} | {min(max(xj, -c), c)
                                     for xj, _, _ in sides})
            best = -mpmath.inf
            for left, right in zip(cuts[:-1], cuts[1:]):
                mid = (left + right) / 2
                (lo, d_lo), (up, d_up) = (
                    first if mid <= xj else second
                    for xj, first, second in sides)

                def gap(x):
                    return up(x) - lo(x)

                def slope_gap(x):
                    return d_up(x) - d_lo(x)
                xs = [left, right]
                if slope_gap(left) > 0 > slope_gap(right):
                    xs.append(mpmath.findroot(slope_gap, (left, right),
                                              solver="illinois"))
                best = max([best] + [gap(x) for x in xs])
            out.append(best)
    return out


def test_widths_are_the_largest_gap_to_50_digits():
    # the narrowed widths of the golden regions (spiral-dec mirrored) and
    # of arc-spline draws, whose simple lenses are checked too, each
    # within 1e-12 c of the true largest gap, from above and below
    regions = [_golden_region(name, "narrowed")[1]
               for name in ("spiral-inc", "spiral-dec", "overrides")]
    rng = np.random.default_rng(2024)
    for pieces, increasing in ((3, True), (5, False), (2, True)):
        spline = random_arc_spline(rng, pieces, increasing)
        an = analyze(SplineInput(*arc_spline_dataset(rng, spline, 10)[:3]))
        assert an.classification.kind == "spiral"
        regions += [simple_region(an), narrowed_region(an)]
    assert any(not r.chords.arc.all() for r in regions)
    for region in regions:
        g = region.chords
        true = np.array([float(v) for v in _mp_gap_maxima(g)])
        npt.assert_array_less(np.abs(g.width - true), 1e-12 * g.c)


# ---------------------------------------------------------------------------
# Chord columns: read from the build's arrays, gathered only by hand
# ---------------------------------------------------------------------------

COLUMNS = ("indices", "width", "estimate", "c", "mu", "mid", "cos", "sin")
# profile: the grades it admits
GOLDEN_GRADES = {
    "circle": ("simple", "vertex", "narrowed"),          # open, constant
    "oval": ("vertex",),                                 # closed, vertices
    "overrides": ("simple", "vertex", "narrowed"),       # overrides
    "spiral-dec": ("simple", "vertex", "narrowed"),      # mirrored
    "spiral-inc": ("simple", "vertex", "narrowed"),
}


def _golden_region(profile, grade):
    data, overrides = load_profile(str(GOLDEN / (profile + ".json")))
    an = analyze(data)
    return an, build_region(an, grade, overrides)


def assert_columns_are_the_gather(region):
    # a region given a list reads its record from those RegionChord
    # objects and keeps them as its items
    copy = hand_made(region)
    assert copy.chords.members is not region.chords.members
    assert all(a is b for a, b in zip(copy.chords, region.chords))
    built, gathered = region.chords, copy.chords
    assert copy.closed == region.closed
    for name in COLUMNS:
        npt.assert_array_equal(getattr(built, name), getattr(gathered, name),
                               err_msg=name)
    npt.assert_array_equal(built.ends(), gathered.ends())
    # the boundaries, (2, m): every field of a biarc, an arc's c and phi
    # (its alpha) only, as the report prints them; family()'s arcs keep
    # their own p and join height, arcs() gives inf and NaN
    arc = built.arc
    npt.assert_array_equal(gathered.arc, arc)
    for k, (got, want) in enumerate(zip(member_fields(gathered.members),
                                        member_fields(built.members))):
        assert np.shape(got) == np.shape(want) == arc.shape
        rows = ~arc if k > 1 else np.ones_like(arc)
        npt.assert_array_equal(got[rows], want[rows], err_msg=str(k))


@pytest.mark.parametrize("profile,grade", [
    (profile, grade) for profile, grades in sorted(GOLDEN_GRADES.items())
    for grade in grades])
def test_columns_of_golden_regions_are_the_gather(profile, grade):
    _, region = _golden_region(profile, grade)
    assert_columns_are_the_gather(region)


def test_golden_column_cases_cover_mirror_closed_and_overrides():
    an, _ = _golden_region("spiral-dec", "narrowed")
    assert an.classification.direction == "decreasing"
    assert _golden_region("oval", "vertex")[1].closed
    data, overrides = load_profile(str(GOLDEN / "overrides.json"))
    ranges = curvature_ranges(analyze(data), overrides)
    assert ranges.lower_overridden.any() or ranges.upper_overridden.any()


@pytest.mark.parametrize("grade", ["simple", "vertex", "narrowed"])
def test_columns_of_closed_spiral_regions_are_the_gather(grade):
    # closed data is a spiral only when cocircular: a ring at irregular
    # angles, every grade on the closed-data path
    t = np.sort(np.random.default_rng(3).uniform(0.0, 2 * math.pi, 11))
    an = analyze(SplineInput(3.0 * np.column_stack([np.cos(t), np.sin(t)]),
                             closed=True))
    assert an.classification.kind == "spiral"
    assert_columns_are_the_gather(build_region(an, grade))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pieces=st.integers(1, 7),
       n_nodes=st.integers(3, 24), increasing=st.booleans())
def test_columns_of_arc_spline_regions_are_the_gather(seed, pieces, n_nodes,
                                                      increasing):
    rng = np.random.default_rng(seed)
    spline = random_arc_spline(rng, pieces, increasing)
    pts, t0, t1, _ = arc_spline_dataset(rng, spline, n_nodes)
    an = analyze(SplineInput(pts, t0, t1))
    assume(an.classification.kind == "spiral")
    for grade in ("simple", "vertex", "narrowed"):
        assert_columns_are_the_gather(build_region(an, grade))


@pytest.mark.parametrize("grade", ["simple", "vertex", "narrowed"])
def test_check_and_svg_of_a_built_region_call_no_pieces(
        grade, monkeypatch, tmp_path):
    # spiral-grid: 300 chords, enough samples for the containment grid
    an, region = _golden_region("spiral-grid", grade)
    samples = load_samples(str(GOLDEN / "spiral-grid.txt"))
    calls = []
    real = regions.members

    def counted(curves):
        calls.append(len(curves))
        return real(curves)

    monkeypatch.setattr(regions, "members", counted)
    check_containment(region, samples)
    render_svg(an, region, str(tmp_path / "region.svg"))
    assert calls == []
    # the counter sees the gather of a region assembled by hand: one
    # call with every curve, when the region is made
    hand_made(region)
    assert calls == [2 * len(region.chords)]


# profile: its golden samples for check, None for its spline fixture
CLI_SAMPLES = {"circle": None, "oval": "oval-grid.txt", "overrides": None,
               "spiral-dec": None, "spiral-inc": "spiral-inc.fail.txt",
               "spiral-grid": "spiral-grid.txt"}


def test_a_built_region_makes_no_objects_until_it_is_read(
        monkeypatch, tmp_path, capsys):
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)
        return call

    for name in ("instances", "curves", "members"):
        monkeypatch.setattr(regions, name, counted(getattr(regions, name)))
    runs = 0
    for profile, samples in CLI_SAMPLES.items():
        path = str(GOLDEN / (profile + ".json"))
        if samples is None:
            samples = str(tmp_path / (profile + ".txt"))
            save_columns(samples, cubic_spline_fixture(
                load_profile(path)[0], 8))
        else:
            samples = str(GOLDEN / samples)
        for grade in GOLDEN_GRADES.get(profile, ("narrowed",)):
            svg = str(tmp_path / "region.svg")
            assert cli.main(["analyze", path, "--grade", grade,
                             "--svg", svg]) == 0
            assert cli.main(["check", path, samples,
                             "--grade", grade]) in (0, 1)
            runs += 1
    capsys.readouterr()
    assert runs == 14 and calls == []
    _, region = _golden_region("spiral-dec", "narrowed")
    assert len(region.chords) == 8 and calls == []
    # the first read makes every object, once
    first = region.chords[0]
    assert region.chords[0] is first and list(region.chords)[0] is first
    assert calls == ["instances", "curves", "instances"]
    # a copy shares the record, objects and all
    copy = dataclasses.replace(region)
    assert copy.chords is region.chords and copy.chords[0] is first
    assert len(calls) == 3


def test_only_the_report_reads_the_boundary_fields(monkeypatch, tmp_path):
    an, region = _golden_region("spiral-grid", "narrowed")
    samples = load_samples(str(GOLDEN / "spiral-grid.txt"))
    calls = []
    real = geometry.member_fields

    def counted(members):
        calls.append(members)
        return real(members)

    # geometry.take reads the fields through member_fields too: count
    # only the report's reads
    monkeypatch.setattr(profile_io, "member_fields", counted)
    check_containment(region, samples)
    render_svg(an, region, str(tmp_path / "region.svg"))
    assert calls == []
    region_report(an, region)
    assert len(calls) == 1 and calls[0] is region.chords.members


def test_check_and_svg_follow_replaced_chords(tmp_path):
    # a region whose chords were replaced is read from those chords, as
    # the benchmark's permissive stand-in region relies on
    an, narrowed = _golden_region("spiral-inc", "narrowed")
    simple = build_region(an, "simple")
    swapped = dataclasses.replace(narrowed, chords=simple.chords)
    samples = load_samples(str(GOLDEN / "spiral-inc.fail.txt"))
    want, got = (check_containment(r, samples) for r in (simple, swapped))
    assert not np.array_equal(
        check_containment(narrowed, samples).margin_lower, want.margin_lower)
    for name in ("chord_index", "x_local", "y_local", "margin_lower",
                 "margin_upper"):
        npt.assert_array_equal(getattr(got, name), getattr(want, name))
    pictures = []
    for r in (simple, swapped, narrowed):
        path = tmp_path / "region.svg"
        render_svg(an, r, str(path))
        pictures.append(path.read_text())
    assert pictures[0] == pictures[1] != pictures[2]


def test_region_width_is_the_largest_chord_width():
    # the width is read from the chords, so a region whose chords were
    # replaced reports theirs: spiral-inc's narrowed region with its
    # simple lenses is as wide as the simple region, not the narrowed one
    assert [f.name for f in dataclasses.fields(Region)] == [
        "grade", "closed", "chords"]
    an, narrowed = _golden_region("spiral-inc", "narrowed")
    simple = build_region(an, "simple")
    assert simple.width > narrowed.width
    for region in (narrowed, simple, hand_made(narrowed, simple.chords),
                   dataclasses.replace(narrowed, chords=simple.chords)):
        assert region.width == max(ch.width for ch in region.chords)
        assert type(region.width) is float
    assert hand_made(narrowed, simple.chords).width == simple.width


def test_a_region_derives_its_pieces_once(tmp_path):
    # the rotations are made with the record; check, SVG and report
    # reuse them
    an, region = _golden_region("spiral-grid", "narrowed")
    samples = load_samples(str(GOLDEN / "spiral-grid.txt"))
    chords = region.chords
    cos, sin = chords.cos, chords.sin
    npt.assert_array_equal(cos, np.cos(chords.mu))
    npt.assert_array_equal(sin, np.sin(chords.mu))
    check_containment(region, samples)
    render_svg(an, region, str(tmp_path / "region.svg"))
    region_report(an, region)
    assert chords.cos is cos and chords.sin is sin


@pytest.mark.parametrize("grade", ["vertex", "narrowed"])
def test_a_checked_and_reported_region_keeps_few_bytes_per_chord(grade):
    # the log spiral r = 50 exp(-0.05 theta) at 10^4 chords: what a built
    # region keeps after a check and a report, beyond its analysis
    m = 10_000
    spiral = LogSpiral(50.0, -0.05)
    theta = np.linspace(0.0, 6.0, m + 1)
    an = analyze(SplineInput(spiral.point(theta),
                             float(spiral.tangent_angle(theta[0])),
                             float(spiral.tangent_angle(theta[-1]))))
    samples = spiral.point(np.linspace(0.0, 6.0, 4 * m))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        region = build_region(an, grade)
        assert check_containment(region, samples).passed
        report_json(region_report(an, region))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert region.grade == grade and len(region.chords) == m
    assert kept <= 200 * m, kept / m


# ---------------------------------------------------------------------------
# A build's objects, made column by column; lens heights
# ---------------------------------------------------------------------------


def _fallback_region(monkeypatch):
    """spiral-inc's narrowed region with lens-fallback rows: no member has
    the floor of the start node of chords 2 and 6, nor the ceiling of the
    end node of chords 3 and 6, as when the ranges cross by rounding."""
    def missing(rule, rows):
        def parameter(*args):
            p = np.array(rule(*args), dtype=float)
            p[rows] = math.nan
            return p
        return parameter

    monkeypatch.setattr(regions, "start_parameter",
                        missing(regions.start_parameter, [1, 5]))
    monkeypatch.setattr(regions, "end_parameter",
                        missing(regions.end_parameter, [2, 5]))
    region = _golden_region("spiral-inc", "narrowed")[1]
    monkeypatch.undo()
    return region


def _built_regions(monkeypatch):
    """(name, region) of every grade: the simple, vertex and narrowed
    lenses of spiral-inc, its mirror spiral-dec narrowed, the closed oval,
    the all-arc narrowed circle and a narrowed region with fallbacks."""
    out = [("%s-%s" % (profile, grade), _golden_region(profile, grade)[1])
           for profile, grade in [("spiral-inc", "simple"),
                                  ("spiral-inc", "vertex"),
                                  ("spiral-inc", "narrowed"),
                                  ("spiral-dec", "narrowed"),
                                  ("oval", "vertex"),
                                  ("overrides", "narrowed"),
                                  ("circle", "narrowed")]]
    return out + [("fallback", _fallback_region(monkeypatch))]


def test_fallback_region_has_lens_fallback_rows(monkeypatch):
    region = _fallback_region(monkeypatch)
    _, plain = _golden_region("spiral-inc", "narrowed")
    # each of those boundaries was a biarc, and is now its lens arc
    for k, side in [(1, "lower"), (5, "lower"), (2, "upper"), (5, "upper")]:
        assert isinstance(getattr(plain.chords[k], side), Biarc)
        assert isinstance(getattr(region.chords[k], side), Arc)
    assert isinstance(region.chords[2].lower, Biarc)


def test_built_objects_are_the_constructors_objects(monkeypatch):
    for name, region in _built_regions(monkeypatch):
        chords = region.chords
        assert [ch.index for ch in chords] == list(range(1, len(chords) + 1))
        assert_like_constructed(chords)
        assert_like_constructed([ch.frame for ch in chords])
        assert_like_constructed([ch.lower for ch in chords]
                                + [ch.upper for ch in chords])
        # and the columns gathered from them are the build's own
        assert_columns_are_the_gather(region)


def test_built_objects_cover_arcs_and_biarcs(monkeypatch):
    kinds = {name: {type(curve) for ch in region.chords
                    for curve in (ch.lower, ch.upper)}
             for name, region in _built_regions(monkeypatch)}
    assert kinds["spiral-inc-simple"] == kinds["oval-vertex"] == {Arc}
    assert kinds["circle-narrowed"] == {Arc}
    assert kinds["spiral-dec-narrowed"] == kinds["fallback"] == {Arc, Biarc}


def assert_lens_height_is_gap_maxima(g):
    """lens_height against gap_maxima of each boundary and the chord on
    every row: within 4 ulp on rows of two arcs, bit-equal elsewhere."""
    lower, upper = take(g.members, 0), take(g.members, 1)
    chord = arcs(g.c, np.zeros_like(g.c))
    want = np.maximum(gap_maxima(chord, upper), gap_maxima(lower, chord))
    got, arc = g.lens_height(), g.arc.all(axis=0)
    npt.assert_array_max_ulp(got[arc], want[arc], maxulp=4)
    npt.assert_array_equal(got[~arc], want[~arc])
    assert (got >= 0.0).all()


@pytest.mark.parametrize("profile,grade", [
    (profile, grade) for profile, grades in sorted(GOLDEN_GRADES.items())
    for grade in grades] + [("spiral-grid", "narrowed"),
                            ("collinear", "narrowed"),
                            ("collinear", "simple")])
def test_lens_height_closed_form_matches_gap_maxima(profile, grade):
    _, region = _golden_region(profile, grade)
    assert_lens_height_is_gap_maxima(region.chords)
    assert_lens_height_is_gap_maxima(hand_made(region).chords)


def test_lens_height_of_fallback_rows(monkeypatch):
    g = _fallback_region(monkeypatch).chords
    assert g.arc.all(axis=0).sum() == 5   # chords 1, 2, 5, 6 and 8
    assert_lens_height_is_gap_maxima(g)


def test_grid_cell_bounds_every_lens(monkeypatch):
    # the containment grid's cell side h = 2 max(c (1 + SPAN_SLACK) + H)
    # needs H at least each lens's largest |y|, here sampled densely, to
    # within the rounding of the heights, for which the grid leaves room
    for name, region in _built_regions(monkeypatch):
        g = region.chords
        x = g.c[:, None] * np.linspace(-1.0, 1.0, 4001)
        dense = np.max(np.abs(np.concatenate(
            [height(take(g.members, (side, ..., None)), x)
             for side in (0, 1)],
            axis=1)), axis=1)
        lens = g.lens_height()
        assert (dense <= lens + 1e-14 * g.c).all(), name
        reach = g.c * (1.0 + SPAN_SLACK)
        h = 2.0 * np.max(reach + lens)
        assert h >= 2.0 * np.max(reach + dense) * (1.0 - 1e-14), name
