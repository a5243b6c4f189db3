"""Chord-frame arcs and tangent-continuous biarcs.

Covers the arc height function against a circumcircle oracle, the biarc
family in all three parametrizations (p, start curvature a, end
curvature b), degenerate family members, and the mirror involution.
"""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spiralbounds.errors import DomainError, InfeasibleCurvatureError
from spiralbounds.geometry import (
    Arc,
    Biarc,
    ChordFrame,
    arc_eval,
    arcs,
    biarc_eval,
    biarc_from_a,
    biarc_from_b,
    biarc_from_p,
    curve_eval,
    curves,
    end_parameter,
    family,
    instances,
    members,
    start_parameter,
    wrap_angle,
)

from conftest import (arc_curvature, assert_like_constructed, chord_end,
                      chord_start, mirror_curve, tangency_residual, to_global)

# ---------------------------------------------------------------------------
# wrap_angle
# ---------------------------------------------------------------------------


def test_wrap_angle_known_values():
    assert wrap_angle(0.0) == 0.0
    npt.assert_allclose(wrap_angle(math.pi / 2), math.pi / 2)
    npt.assert_allclose(wrap_angle(3 * math.pi), math.pi)
    npt.assert_allclose(wrap_angle(-3 * math.pi), math.pi)
    npt.assert_allclose(wrap_angle(2 * math.pi + 0.25), 0.25, atol=1e-15)


@given(st.floats(-1e4, 1e4))
def test_wrap_angle_preserves_direction(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi + 1e-12
    npt.assert_allclose(math.sin(w), math.sin(theta), atol=1e-9)
    npt.assert_allclose(math.cos(w), math.cos(theta), atol=1e-9)


# ---------------------------------------------------------------------------
# ChordFrame
# ---------------------------------------------------------------------------


def test_chord_frame_round_trip():
    fr = ChordFrame(origin=(2.0, -1.0), direction=0.7, half_length=1.5)
    pts = np.array([[0.3, 0.4], [-1.0, 2.0], [5.0, -3.0]])
    npt.assert_allclose(to_global(fr, fr.to_local(pts)), pts, atol=1e-12)
    npt.assert_allclose(fr.to_local(chord_start(fr)), [-1.5, 0.0], atol=1e-12)
    npt.assert_allclose(fr.to_local(chord_end(fr)), [1.5, 0.0], atol=1e-12)


def test_chord_frame_endpoints():
    fr = ChordFrame(origin=(0.0, 0.0), direction=0.0, half_length=2.0)
    npt.assert_allclose(chord_start(fr), [-2.0, 0.0])
    npt.assert_allclose(chord_end(fr), [2.0, 0.0])


# ---------------------------------------------------------------------------
# Arc height function
# ---------------------------------------------------------------------------


def test_arc_midpoint_value():
    # closed form at x = 0 is c * tan(phi / 2)
    npt.assert_allclose(arc_eval(Arc(2.0, 0.6), 0.0), 2.0 * math.tan(0.3),
                        rtol=1e-14)


def test_arc_vanishes_at_chord_ends():
    arc = Arc(1.3, -0.8)
    npt.assert_allclose(arc_eval(arc, np.array([-1.3, 1.3])), 0.0, atol=1e-14)


def test_arc_even_in_x():
    arc = Arc(1.0, 0.45)
    xs = np.linspace(0.0, 1.0, 40)
    npt.assert_allclose(arc_eval(arc, xs), arc_eval(arc, -xs), rtol=1e-14)


def test_arc_zero_angle_is_chord():
    npt.assert_allclose(arc_eval(Arc(1.0, 0.0), np.linspace(-1, 1, 11)), 0.0,
                        atol=1e-15)


def test_arc_points_lie_on_circumcircle():
    # the graph must be the circle through (+-c, 0) with the stated
    # curvature; center (0, -c*cot(phi)), radius c/|sin(phi)|
    for c, phi in [(1.0, 0.5), (2.5, -0.9), (0.3, 1.2), (1.0, -0.05)]:
        xs = np.linspace(-c, c, 201)
        ys = arc_eval(Arc(c, phi), xs)
        y0 = -c / math.tan(phi)
        r = c / abs(math.sin(phi))
        npt.assert_allclose(np.hypot(xs, ys - y0), r, rtol=1e-12)


def test_arc_midpoint_monotone_in_angle():
    phis = np.linspace(-1.4, 1.4, 57)
    mids = [float(arc_eval(Arc(1.0, p), 0.0)) for p in phis]
    assert all(b > a for a, b in zip(mids, mids[1:]))


def test_arc_curvature_sign():
    npt.assert_allclose(arc_curvature(Arc(2.0, 0.6)), -math.sin(0.6) / 2.0,
                        rtol=1e-15)
    assert arc_curvature(Arc(1.0, 0.0)) == 0.0


def test_arc_rejects_bad_arguments():
    with pytest.raises(DomainError):
        Arc(0.0, 0.3)
    with pytest.raises(DomainError):
        Arc(1.0, 3.2)


@pytest.mark.parametrize("x", [2.5, -2.0001, [0.0, 1.0, 3.0]])
def test_curve_eval_rejects_abscissa_off_the_chord(x):
    with pytest.raises(DomainError, match=r"\bc=2\b"):
        curve_eval(Arc(2.0, 0.3), x)


def test_arc_mirror_negates_height():
    arc = Arc(1.7, 0.8)
    xs = np.linspace(-1.7, 1.7, 50)
    npt.assert_allclose(curve_eval(mirror_curve(arc), xs),
                        -curve_eval(arc, xs), rtol=1e-14)


# ---------------------------------------------------------------------------
# Biarc construction
# ---------------------------------------------------------------------------

CASE = dict(c=1.0, alpha=0.5, beta=0.1)  # omega = 0.3


def test_biarc_curvatures_closed_form():
    bi = biarc_from_p(p=1.0, **CASE)
    npt.assert_allclose(bi.a, -(math.sin(0.5) + math.sin(0.3)), rtol=1e-14)
    npt.assert_allclose(bi.b, math.sin(0.1) + math.sin(0.3), rtol=1e-14)


def test_biarc_tangency_residual_zero():
    for p in (1e-3, 0.1, 1.0, 10.0, 1e3):
        bi = biarc_from_p(p=p, **CASE)
        assert abs(tangency_residual(CASE["c"], CASE["alpha"], CASE["beta"],
                                     bi.a, bi.b)) < 1e-12


def test_biarc_round_trips():
    bi = biarc_from_p(p=2.5, **CASE)
    r_a = biarc_from_a(CASE["c"], CASE["alpha"], CASE["beta"], bi.a)
    r_b = biarc_from_b(CASE["c"], CASE["alpha"], CASE["beta"], bi.b)
    npt.assert_allclose(r_a.p, 2.5, rtol=1e-12)
    npt.assert_allclose(r_b.p, 2.5, rtol=1e-12)
    npt.assert_allclose(r_a.b, bi.b, rtol=1e-12)
    npt.assert_allclose(r_b.a, bi.a, rtol=1e-12)


def test_biarc_interpolates_chord_ends():
    bi = biarc_from_p(p=0.7, **CASE)
    npt.assert_allclose(biarc_eval(bi, np.array([-1.0, 1.0])), 0.0,
                        atol=1e-12)


def test_biarc_end_slopes_match_angles():
    # slope tan(alpha) entering at x=-c, slope tan(beta) leaving at x=+c
    bi = biarc_from_p(p=3.0, **CASE)
    h = 1e-7
    left = (biarc_eval(bi, -1.0 + h) - 0.0) / h
    right = (0.0 - biarc_eval(bi, 1.0 - h)) / h
    npt.assert_allclose(left, math.tan(0.5), rtol=1e-5)
    npt.assert_allclose(right, math.tan(0.1), rtol=1e-5)


def test_biarc_continuous_at_join():
    bi = biarc_from_p(p=0.4, **CASE)
    xj = bi.join[0]
    h = 1e-9
    y_left = biarc_eval(bi, xj - h)
    y_right = biarc_eval(bi, xj + h)
    npt.assert_allclose(y_left, y_right, atol=1e-7)
    npt.assert_allclose(biarc_eval(bi, xj), bi.join[1], atol=1e-12)


def test_biarc_tangent_continuous_at_join():
    bi = biarc_from_p(p=0.4, **CASE)
    xj = bi.join[0]
    h = 1e-6
    slope_left = (biarc_eval(bi, xj) - biarc_eval(bi, xj - h)) / h
    slope_right = (biarc_eval(bi, xj + h) - biarc_eval(bi, xj)) / h
    npt.assert_allclose(slope_left, slope_right, atol=1e-4)


def test_biarc_join_on_both_circles():
    # the join point is the tangency point: it must sit on the circle of
    # either piece, verified through the evaluator on both sides
    for p in (0.2, 1.0, 5.0):
        bi = biarc_from_p(p=p, **CASE)
        xj, yj = bi.join
        npt.assert_allclose(biarc_eval(bi, xj - 1e-12), yj, atol=1e-10)
        npt.assert_allclose(biarc_eval(bi, xj + 1e-12), yj, atol=1e-10)


def test_biarc_degenerate_p_zero_is_end_arc():
    bi = biarc_from_p(p=0.0, **CASE)
    assert isinstance(bi, Arc)
    npt.assert_allclose(bi.phi, -CASE["beta"], rtol=1e-15)


def test_biarc_degenerate_p_infinite_is_start_arc():
    bi = biarc_from_p(p=math.inf, **CASE)
    assert isinstance(bi, Arc)
    npt.assert_allclose(bi.phi, CASE["alpha"], rtol=1e-15)


def test_biarc_degenerate_equal_angles_single_arc():
    # omega = 0 collapses the family to one arc for every p
    for p in (0.1, 1.0, 10.0):
        bi = biarc_from_p(c=1.0, alpha=0.4, beta=-0.4, p=p)
        assert isinstance(bi, Arc)
        npt.assert_allclose(bi.phi, 0.4, rtol=1e-15)


def test_biarc_hidden_degenerates():
    # a at its limiting value collapses the first piece
    bi = biarc_from_p(p=1.0, **CASE)
    lim_a = -math.sin(CASE["alpha"]) / CASE["c"]
    got = biarc_from_a(CASE["c"], CASE["alpha"], CASE["beta"], lim_a)
    assert isinstance(got, Arc)
    npt.assert_allclose(got.phi, CASE["alpha"], rtol=1e-15)
    lim_b = math.sin(CASE["beta"]) / CASE["c"]
    got = biarc_from_b(CASE["c"], CASE["alpha"], CASE["beta"], lim_b)
    assert isinstance(got, Arc)
    npt.assert_allclose(got.phi, -CASE["beta"], rtol=1e-15)


def test_biarc_limit_continuity_small_p():
    # family members converge pointwise to the p=0 arc
    arc0 = biarc_from_p(p=0.0, **CASE)
    xs = np.linspace(-1.0, 1.0, 301)
    base = curve_eval(arc0, xs)
    dev6 = np.max(np.abs(curve_eval(biarc_from_p(p=1e-6, **CASE), xs) - base))
    dev9 = np.max(np.abs(curve_eval(biarc_from_p(p=1e-9, **CASE), xs) - base))
    assert dev6 < 1e-5
    assert dev9 < 1e-8


@pytest.mark.parametrize("args", [(1.0, math.nan, 0.1), (1.0, 0.5, math.nan),
                                  (math.nan, 0.5, 0.1)])
@pytest.mark.parametrize("factory", [biarc_from_p, biarc_from_a, biarc_from_b])
def test_biarc_rejects_nan_arguments(args, factory):
    with pytest.raises(DomainError):
        factory(*args, 1.0)


def test_biarc_rejects_negative_p():
    with pytest.raises(DomainError):
        biarc_from_p(p=-0.5, **CASE)


def test_biarc_rejects_infeasible_curvatures():
    # a beyond the hidden-degenerate limit makes p negative
    bad_a = -math.sin(CASE["alpha"]) / CASE["c"] + 0.05
    with pytest.raises(InfeasibleCurvatureError):
        biarc_from_a(CASE["c"], CASE["alpha"], CASE["beta"], bad_a)
    bad_b = math.sin(CASE["beta"]) / CASE["c"] - 0.05
    with pytest.raises(InfeasibleCurvatureError):
        biarc_from_b(CASE["c"], CASE["alpha"], CASE["beta"], bad_b)


def test_biarc_mirror_negates_height():
    bi = biarc_from_p(p=2.0, **CASE)
    xs = np.linspace(-1.0, 1.0, 101)
    npt.assert_allclose(curve_eval(mirror_curve(bi), xs),
                        -curve_eval(bi, xs), atol=1e-13)


def test_mirror_is_an_involution():
    bi = biarc_from_p(p=2.0, **CASE)
    back = mirror_curve(mirror_curve(bi))
    assert isinstance(back, Biarc)
    npt.assert_allclose(back.a, bi.a, rtol=1e-15)
    npt.assert_allclose(back.b, bi.b, rtol=1e-15)
    npt.assert_allclose(back.join, bi.join, rtol=1e-15)


def _arc_height(x, c, phi):
    """A(x; c, phi) written out, with c^2 - x^2 as an exact product."""
    s = math.sin(phi)
    return ((c - x) * (c + x) * s
            / (c * math.cos(phi) + np.sqrt(c * c - (x * s) ** 2)))


@pytest.mark.parametrize("phi", [1e-2, 1e-4, 1e-6])
def test_biarc_on_one_circle_matches_the_arc(phi):
    # both pieces lie on the circle of Arc(c, phi): a near-straight piece
    # keeps full relative accuracy however small k*c = -sin(phi) is
    c = 1.7
    k = -math.sin(phi) / c
    xj = 0.3 * c
    bi = Biarc(c=c, alpha=phi, beta=-phi, a=k, b=k, p=1.0,
               join=(xj, float(_arc_height(xj, c, phi))))
    xs = np.linspace(-c, c, 2001)
    npt.assert_allclose(biarc_eval(bi, xs), _arc_height(xs, c, phi),
                        rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    c=st.floats(0.05, 20.0),
    alpha=st.floats(-1.3, 1.5),
    beta=st.floats(-1.3, 1.5),
    p=st.floats(1e-3, 1e3),
    straight=st.sampled_from(["", "a", "b"]),
)
def test_biarc_join_property(c, alpha, beta, p, straight):
    # both pieces reach the join at its height, with equal tangent sines
    so = math.sin(0.5 * (alpha + beta))
    assume(abs(so) > 1e-3)
    if straight == "a":      # a c = -(sin(alpha) + so/p) = 0
        p = -so / math.sin(alpha) if alpha else -1.0
    elif straight == "b":    # b c = sin(beta) + p so = 0
        p = -math.sin(beta) / so
    assume(1e-6 < p < 1e6)
    bi = biarc_from_p(c, alpha, beta, p)
    if straight:
        assert abs(getattr(bi, straight)) * c < 1e-14
    xj, yj = bi.join
    for piece in (math.inf, -math.inf):   # the first, then the second piece
        y = curve_eval(replace(bi, join=(piece, yj)), xj)
        assert abs(y - yj) <= 1e-12 * c
    scale = max(1.0, abs(bi.a) * c, abs(bi.b) * c)
    assert abs(math.sin(alpha) + bi.a * (xj + c)
               - math.sin(beta) - bi.b * (xj - c)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(0.05, 20.0),
    alpha=st.floats(-1.3, 1.5),
    beta=st.floats(-1.3, 1.5),
    p=st.floats(1e-3, 1e3),
)
def test_biarc_family_tangency_property(c, alpha, beta, p):
    if alpha + beta <= 1e-3:
        return
    bi = biarc_from_p(c, alpha, beta, p)
    if isinstance(bi, Arc):
        return
    scale = max(1.0, abs(bi.a) * c, abs(bi.b) * c)
    assert abs(tangency_residual(c, alpha, beta, bi.a, bi.b)) < 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(
    c=st.floats(0.1, 5.0),
    alpha=st.floats(-1.2, 1.4),
    beta=st.floats(-1.2, 1.4),
    p=st.floats(0.01, 100.0),
)
def test_biarc_endpoint_property(c, alpha, beta, p):
    if alpha + beta <= 0.05:
        return
    bi = biarc_from_p(c, alpha, beta, p)
    ends = np.abs(curve_eval(bi, np.array([-c, c])))
    assert np.max(ends) < 1e-10 * max(1.0, c)


@settings(max_examples=500, deadline=None)
@given(
    c=st.floats(0.05, 20.0),
    alpha=st.floats(-1.5, 1.5),
    beta=st.floats(-1.5, 1.5),
    b=st.floats(-50.0, 50.0),
)
def test_end_rule_is_the_start_rule_on_the_reversed_chord(c, alpha, beta, b):
    # p = (b c - sin(beta)) / sin(omega) of the module docstring, against
    # the start rule on (beta, alpha, -b) inverted: same feasibility, and
    # p within two roundings
    so = math.sin(0.5 * (alpha + beta))
    t = b * c - math.sin(beta)
    assume(abs(0.5 * (alpha + beta)) > 1e-9 and abs(t) > 1e-9)
    direct = t / so
    p = float(end_parameter(c, alpha, beta, b))
    if direct < 0.0:
        assert math.isnan(p)
    else:
        assert abs(p - direct) <= 4.5e-16 * direct
        bi = biarc_from_p(c, alpha, beta, p)
        if isinstance(bi, Biarc):
            assert abs(bi.b - b) <= 1e-12 * max(1.0, abs(b))


def test_parameter_rules_tags_and_degenerates():
    c, alpha, beta = CASE["c"], CASE["alpha"], CASE["beta"]   # omega > 0
    assert start_parameter(c, alpha, beta, -math.inf) == 0.0
    assert math.isnan(start_parameter(c, alpha, beta, math.inf))
    assert end_parameter(c, alpha, beta, math.inf) == math.inf
    assert math.isnan(end_parameter(c, alpha, beta, -math.inf))
    # the first (last) piece filling the chord: p = inf (p = 0)
    assert start_parameter(c, alpha, beta, -math.sin(alpha) / c) == math.inf
    assert end_parameter(c, alpha, beta, math.sin(beta) / c) == 0.0
    # omega = 0: every curvature names the one arc
    assert start_parameter(c, 0.4, -0.4, 3.0) == math.inf
    assert end_parameter(c, 0.4, -0.4, 3.0) == 0.0


def test_family_columns_match_the_scalar_factory():
    # one call over columns equals member-by-member calls, degenerate
    # members (p = 0, p = inf, omega = 0) included
    rng = np.random.default_rng(7)
    n = 64
    c = rng.uniform(0.1, 5.0, n)
    alpha = rng.uniform(-1.4, 1.4, n)
    beta = rng.uniform(-1.4, 1.4, n)
    p = rng.uniform(0.01, 100.0, n)
    p[::7], p[1::7] = 0.0, math.inf
    beta[2::7] = -alpha[2::7]
    members, arc = family(c[:, None], alpha[:, None], beta[:, None],
                          p[:, None])
    assert members.a.shape == (n, 1)
    assert arc[::7].all() and arc[1::7].all() and arc[2::7].all()
    got = curves(members, arc)
    assert got == [biarc_from_p(*args) for args in zip(c, alpha, beta, p)]
    # the arc mask, mixed here, picks each row's class, rows kept in order
    assert 0 < arc.sum() < arc.size
    assert [isinstance(v, Arc) for v in got] == arc.ravel().tolist()
    assert_like_constructed(got)


def test_instances_are_the_constructors_objects():
    c, phi = [1.0, 2.5, 0.25], [0.5, -0.0, -1.5]
    got = instances(Arc, c, phi)
    assert got == [Arc(*row) for row in zip(c, phi)]
    assert_like_constructed(got)
    frames = instances(ChordFrame, [(0.0, 1.0), (-2.0, 3.5)], [0.5, -3.0],
                       [2.0, 0.125])
    assert frames == [ChordFrame((0.0, 1.0), 0.5, 2.0),
                      ChordFrame((-2.0, 3.5), -3.0, 0.125)]
    assert_like_constructed(frames)
    npt.assert_allclose(to_global(frames[1], frames[1].to_local([1.0, 2.0])),
                        [1.0, 2.0], atol=1e-14)
    assert instances(Biarc, *[[]] * 7) == []
    # one object per row, however the columns are held
    assert instances(Arc, range(1, 4), (0.1, 0.2, 0.3))[2] == Arc(3, 0.3)


def test_arcs_are_the_omega_zero_members():
    # A(x; c, phi) is the member (phi, -phi, -sin(phi)/c, -sin(phi)/c, inf)
    rng = np.random.default_rng(11)
    c = rng.uniform(0.1, 5.0, 32)
    phi = rng.uniform(-1.5, 1.5, 32)
    got = arcs(c, phi)
    want, arc = family(c, phi, -phi, math.inf)
    assert arc.all()
    for name in ("c", "alpha", "beta", "a", "b", "p"):
        npt.assert_array_equal(getattr(got, name), getattr(want, name),
                               err_msg=name)
    npt.assert_array_equal(got.join[0], want.join[0])
    # nothing reads an arc's join height, so arcs() leaves it NaN
    assert np.isnan(got.join[1]).all()
    assert curves(got, arc) == [Arc(*v) for v in zip(c, phi)]
    # c broadcasts against both sides of a chord
    assert arcs(c, np.stack([phi, -phi])).a.shape == (2, 32)


def test_lens_arc_curvature_keeps_the_sign_of_zero():
    # collinear data gives phi = -0.0: the lens arc's -sin(phi)/c is
    # +0.0, family()'s -(sin(alpha) + sin(omega)/q)/c is -0.0.  Neither
    # sign reaches a report or an SVG.
    assert not np.signbit(arcs(1.0, -0.0).a)
    assert np.signbit(family(1.0, -0.0, 0.0, math.inf)[0].a)
    assert not np.signbit(members([Arc(1.0, -0.0)])[0].a)


def test_members_invert_curves():
    rng = np.random.default_rng(12)
    n = 40
    c = rng.uniform(0.1, 5.0, n)
    alpha = rng.uniform(-1.4, 1.4, n)
    beta = rng.uniform(-1.4, 1.4, n)
    p = rng.uniform(0.01, 100.0, n)
    p[::5], beta[1::5] = math.inf, -alpha[1::5]
    objects = curves(*family(c, alpha, beta, p))
    got, arc = members(objects)
    assert got.a.shape == arc.shape == (n,)
    npt.assert_array_equal(arc, [isinstance(v, Arc) for v in objects])
    assert curves(got, arc) == objects
    # a Biarc's fields come back as they were, an Arc as its arcs() member
    lens = arcs(c, got.alpha)
    for name in ("c", "alpha", "beta", "a", "b", "p"):
        npt.assert_array_equal(
            getattr(got, name),
            np.where(arc, getattr(lens, name), [getattr(v, name, math.nan)
                                                 for v in objects]),
            err_msg=name)
    assert members([])[0].a.shape == (0,)
