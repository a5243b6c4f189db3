"""Logarithmic-spiral reference curves used as ground truth.

The closed forms (tangent direction, curvature) are validated by finite
differences, and the chord-local height function by reprojection.  The
classic spiral facts the region constructions rest on are checked on
random arcs: bounded tangent angles, the directed angle inequality, and
the two-arc lens at the endpoint curvatures.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from spiralbounds.geometry import Arc, arc_eval

from conftest import chord_end, chord_start
from logspiral import LogSpiral, random_arc, spiral_dataset


def test_point_radius_consistency():
    sp = LogSpiral(scale=2.0, growth=-0.3, center=(1.0, -2.0))
    th = np.linspace(0.0, 5.0, 17)
    pts = sp.point(th)
    npt.assert_allclose(np.hypot(pts[:, 0] - 1.0, pts[:, 1] + 2.0),
                        sp.radius(th), rtol=1e-14)


def test_tangent_angle_matches_finite_difference():
    sp = LogSpiral(scale=1.3, growth=0.25, center=(0.0, 0.0))
    h = 1e-7
    for th in (0.1, 1.0, 2.7, 5.5):
        d = (sp.point(th + h) - sp.point(th - h)) / (2 * h)
        fd = math.atan2(d[1], d[0])
        got = math.atan2(math.sin(sp.tangent_angle(th)),
                         math.cos(sp.tangent_angle(th)))
        npt.assert_allclose(got, fd, atol=1e-7)


def test_velocity_matches_finite_difference():
    sp = LogSpiral(scale=0.8, growth=-0.4, center=(2.0, 3.0))
    h = 1e-6
    for th in (0.3, 1.9, 4.0):
        fd = (sp.point(th + h) - sp.point(th - h)) / (2 * h)
        npt.assert_allclose(sp.velocity(th), fd, rtol=1e-8)


def test_curvature_matches_finite_difference():
    # kappa = d(tangent angle)/d(arc length)
    sp = LogSpiral(scale=1.0, growth=-0.2, center=(0.0, 0.0))
    h = 1e-6
    for th in (0.5, 2.0, 4.5):
        dphi = sp.tangent_angle(th + h) - sp.tangent_angle(th - h)
        ds = 2 * h * math.hypot(*sp.velocity(th))
        npt.assert_allclose(sp.curvature(th), dphi / ds, rtol=1e-7)


def test_curvature_monotone_with_growth_sign():
    th = np.linspace(0.0, 3.0, 50)
    assert np.all(np.diff(LogSpiral(growth=-0.3).curvature(th)) > 0)
    assert np.all(np.diff(LogSpiral(growth=0.3).curvature(th)) < 0)


def test_arc_frame_and_angles():
    sp = LogSpiral(scale=1.0, growth=-0.2, center=(0.0, 0.0))
    arc = sp.arc(0.3, 1.1)
    p0, p1 = sp.point(0.3), sp.point(1.1)
    npt.assert_allclose(chord_start(arc.frame), p0, atol=1e-14)
    npt.assert_allclose(chord_end(arc.frame), p1, atol=1e-14)
    npt.assert_allclose(arc.kappa0, sp.curvature(0.3), rtol=1e-14)
    npt.assert_allclose(arc.kappa1, sp.curvature(1.1), rtol=1e-14)


def test_arc_height_reprojects():
    sp = LogSpiral(scale=1.0, growth=-0.25, center=(0.5, -0.5))
    arc = sp.arc(1.0, 1.9)
    loc = arc.frame.to_local(arc.sample_global(200))
    npt.assert_allclose(arc.height(loc[:, 0]), loc[:, 1], atol=1e-10)


def test_arc_height_endpoints_zero():
    arc = LogSpiral(growth=-0.3).arc(0.0, 1.0)
    c = arc.frame.half_length
    npt.assert_allclose(arc.height(np.array([-c, c])), 0.0, atol=1e-12)


def test_arc_rejects_empty_span():
    with pytest.raises(ValueError):
        LogSpiral().arc(1.0, 1.0)


# ---------------------------------------------------------------------------
# Spiral facts on random arcs
# ---------------------------------------------------------------------------


def test_random_arcs_tangent_angles_bounded():
    rng = np.random.default_rng(7)
    for i in range(200):
        arc = random_arc(rng, increasing=bool(i % 2))
        assert abs(arc.alpha) < math.pi / 2
        assert abs(arc.beta) < math.pi / 2


def test_random_arcs_angle_inequality():
    # increasing curvature pulls the end tangent further than the start
    # tangent; a circle gives exact equality
    rng = np.random.default_rng(8)
    for i in range(200):
        inc = bool(i % 2)
        arc = random_arc(rng, increasing=inc)
        s = arc.alpha + arc.beta
        assert s >= -1e-12 if inc else s <= 1e-12


def test_random_arcs_lens_containment():
    # every spiral piece lies between the arcs at its endpoint curvatures
    rng = np.random.default_rng(9)
    for i in range(60):
        arc = random_arc(rng, increasing=bool(i % 2))
        c = arc.frame.half_length
        xs = np.linspace(-c, c, 401)
        y = arc.height(xs)
        lo = arc_eval(Arc(c, -math.asin(min(1.0, c * max(arc.kappa0,
                                                         arc.kappa1)))), xs)
        hi = arc_eval(Arc(c, -math.asin(min(1.0, c * min(arc.kappa0,
                                                         arc.kappa1)))), xs)
        assert np.min(y - lo) > -1e-12 * c
        assert np.min(hi - y) > -1e-12 * c


def test_spiral_dataset_shape_and_tangents():
    rng = np.random.default_rng(10)
    pts, tau0, tau1, arc = spiral_dataset(rng, n_nodes=9, increasing=True)
    assert pts.shape == (9, 2)
    npt.assert_allclose(pts[0], arc.spiral.point(arc.theta0), atol=1e-12)
    npt.assert_allclose(pts[-1], arc.spiral.point(arc.theta1), atol=1e-12)
    # returned tangents agree with the generating spiral, mod 2 pi
    t = arc.spiral.tangent_angle(arc.theta0)
    npt.assert_allclose(math.sin(tau0), math.sin(t), atol=1e-12)
    npt.assert_allclose(math.cos(tau0), math.cos(t), atol=1e-12)
