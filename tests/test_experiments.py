"""Canonical circle dataset and the coordinate-rounding experiment."""

import math

import numpy as np
import numpy.testing as npt

from spiralbounds.analysis import analyze, build_chords, node_data
from spiralbounds.experiments import (
    circle_dataset,
    rounded_circle_dataset,
    rounding_experiment,
)


def test_circle_dataset_geometry():
    data = circle_dataset()
    assert data.points.shape == (21, 2)
    npt.assert_allclose(data.points[0], [0.0, 0.0], atol=1e-15)
    # all nodes on the circle of radius 10 about (0, 10)
    r = np.hypot(data.points[:, 0], data.points[:, 1] - 10.0)
    npt.assert_allclose(r, 10.0, rtol=1e-14)
    assert data.tau_start == 0.0
    npt.assert_allclose(data.tau_end, math.radians(60.0), rtol=1e-14)


def test_circle_dataset_parametrization():
    data = circle_dataset(n_points=7, radius=2.0, step_deg=10.0)
    assert data.points.shape == (7, 2)
    r = np.hypot(data.points[:, 0], data.points[:, 1] - 2.0)
    npt.assert_allclose(r, 2.0, rtol=1e-14)


def test_circle_dataset_constant_curvature():
    q = node_data(build_chords(circle_dataset())).q
    npt.assert_allclose(q, 0.1, atol=1e-12)
    cl = analyze(circle_dataset()).classification
    assert cl.kind == "spiral" and cl.direction == "constant"


def test_rounded_dataset_rounds_coordinates():
    data = rounded_circle_dataset(decimals=2)
    npt.assert_allclose(data.points, np.round(data.points, 2), atol=1e-15)
    # tangents are kept exact; only coordinates are truncated
    assert data.tau_start == circle_dataset().tau_start


def test_rounding_breaks_constant_curvature():
    exp = rounding_experiment(decimals=2)
    npt.assert_allclose(exp.exact_q, 0.1, atol=1e-12)
    assert np.max(np.abs(exp.rounded_q - 0.1)) > 0.01
    assert not np.allclose(exp.rounded_q, exp.rounded_q[0], atol=1e-6)


def test_rounding_experiment_frozen_values():
    # centimetre rounding on a decimetre-resolution circle: deviations
    # reach a third of the base curvature and the trend flips repeatedly
    exp = rounding_experiment(decimals=2)
    npt.assert_allclose(exp.target_q, 0.1)
    npt.assert_allclose(exp.max_deviation, 0.03589766, rtol=1e-5)
    assert exp.trend_sign_changes == 11
    # spot values pinned against an independent circumcircle computation
    npt.assert_allclose(exp.rounded_q[0], 0.07393689, rtol=1e-5)
    npt.assert_allclose(exp.rounded_q[11], 0.13102802, rtol=1e-5)
    npt.assert_allclose(exp.rounded_q[20], 0.06410234, rtol=1e-5)


def test_rounding_deviation_shrinks_with_decimals():
    d2 = rounding_experiment(decimals=2).max_deviation
    d4 = rounding_experiment(decimals=4).max_deviation
    d6 = rounding_experiment(decimals=6).max_deviation
    assert d2 > d4 > d6
    assert d6 < 1e-3
