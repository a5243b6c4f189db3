"""Arc-spline reference curves used as ground truth.

The closed form is checked against what it must reproduce: the chord of
one arc, the tangent as the derivative of the point, the curvature of
the three-point circles inside a piece, and the arc length.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from arcspline import ArcSpline, arc_spline_dataset, random_arc_spline


def test_single_arc_matches_the_circle():
    # radius 2 about (0, 2), starting at the origin heading along +x
    sp = ArcSpline(kappa=(0.5,), length=(3.0,))
    s = np.linspace(0.0, 3.0, 7)
    npt.assert_allclose(sp.point(s), np.column_stack(
        [2.0 * np.sin(0.5 * s), 2.0 - 2.0 * np.cos(0.5 * s)]), atol=1e-15)


def test_straight_piece_is_a_segment():
    sp = ArcSpline(kappa=(0.0,), length=(2.0,), start=(1.0, 1.0),
                   angle=math.pi / 2)
    npt.assert_allclose(sp.point([0.0, 2.0]), [[1.0, 1.0], [1.0, 3.0]],
                        atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_tangent_is_the_derivative_of_the_point(seed):
    rng = np.random.default_rng(seed)
    sp = random_arc_spline(rng, 5, increasing=bool(seed % 2))
    h = 1e-6
    # away from the joins, where the curvature jumps
    s = rng.uniform(h, sp.total - h, 50)
    d = (sp.point(s + h) - sp.point(s - h)) / (2 * h)
    npt.assert_allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, atol=1e-8)
    tau = sp.tangent_angle(s)
    npt.assert_allclose(d, np.column_stack([np.cos(tau), np.sin(tau)]),
                        atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_joins_are_continuous_and_curvature_monotone(seed):
    rng = np.random.default_rng(seed)
    sp = random_arc_spline(rng, 6, increasing=bool(seed % 2))
    joins = np.cumsum(sp.length)[:-1]
    eps = 1e-9
    npt.assert_allclose(sp.point(joins - eps), sp.point(joins + eps),
                        atol=1e-8)
    npt.assert_allclose(sp.tangent_angle(joins - eps),
                        sp.tangent_angle(joins + eps), atol=1e-8)
    sign = 1.0 if seed % 2 else -1.0
    assert np.all(sign * np.diff(sp.kappa) >= 0.0)


def test_three_point_circles_in_a_piece_have_its_curvature():
    sp = ArcSpline(kappa=(-0.7, 0.2, 1.1), length=(1.0, 2.0, 0.8))
    for start, k in zip(np.cumsum((0.0,) + sp.length[:-1]), sp.kappa):
        p0, p1, p2 = sp.point(start + np.array([0.1, 0.35, 0.7]))
        a, b = p1 - p0, p2 - p1
        cross = a[0] * b[1] - a[1] * b[0]
        q = 2.0 * cross / (np.linalg.norm(a) * np.linalg.norm(b)
                           * np.linalg.norm(p2 - p0))
        assert q == pytest.approx(k, abs=1e-12)


def test_dataset_spans_the_curve_with_exact_end_tangents():
    rng = np.random.default_rng(3)
    sp = random_arc_spline(rng, 4)
    pts, t0, t1, s = arc_spline_dataset(rng, sp, 12)
    assert s[0] == 0.0 and s[-1] == sp.total and np.all(np.diff(s) > 0)
    gaps = np.diff(s)
    assert gaps.min() >= 0.2 * gaps.max() * (1 - 1e-12)
    npt.assert_allclose(pts[[0, -1]], sp.point([0.0, sp.total]))
    assert (t0, t1) == tuple(sp.tangent_angle([0.0, sp.total]).tolist())
    dense = sp.point(np.linspace(0.0, sp.total, 200_001))
    length = np.sum(np.hypot(*np.diff(dense, axis=0).T))
    assert length == pytest.approx(sp.total, rel=1e-9)
