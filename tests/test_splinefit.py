"""Chord-length cubic spline fixture (the candidate curve generator).

scipy's CubicSpline is the oracle: the package fits the same clamped
spline with numpy alone, and must not need scipy to run.
"""

import math
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralbounds.analysis import SplineInput
from spiralbounds.errors import (DuplicatePointsError, InputError,
                                 MissingTangentsError)
from spiralbounds.experiments import circle_dataset
from spiralbounds.splinefit import _tridiagonal, cubic_spline_fixture

from conftest import sparse_dataset, write_profile


def scipy_fixture(data, samples_per_chord):
    """The clamped chord-length spline as scipy fits and samples it."""
    from scipy.interpolate import CubicSpline
    pts = data.points
    seg = pts[1:] - pts[:-1]
    s = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
    t0 = (math.cos(data.tau_start), math.sin(data.tau_start))
    t1 = (math.cos(data.tau_end), math.sin(data.tau_end))
    spline = CubicSpline(s, pts, axis=0, bc_type=((1, t0), (1, t1)))
    return spline(np.linspace(0.0, s[-1], (len(pts) - 1) * samples_per_chord))


def assert_matches_scipy(data, samples_per_chord):
    got = cubic_spline_fixture(data, samples_per_chord)
    want = scipy_fixture(data, samples_per_chord)
    assert got.shape == want.shape
    scale = np.max(np.abs(data.points))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_collinear_data_gives_straight_spline():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    data = SplineInput(pts, tau_start=0.0, tau_end=0.0)
    samples = cubic_spline_fixture(data)
    assert samples.shape == (128, 2)
    npt.assert_allclose(samples[:, 1], 0.0, atol=1e-10)
    assert np.all(np.diff(samples[:, 0]) > 0)


def test_spline_interpolates_nodes():
    # the sample grid hits the data ends exactly; interior nodes fall
    # between samples but never further than one grid step away
    data = sparse_dataset()
    samples = cubic_spline_fixture(data, samples_per_chord=50)
    npt.assert_allclose(samples[0], data.points[0], atol=1e-12)
    npt.assert_allclose(samples[-1], data.points[-1], atol=1e-12)
    step = np.max(np.hypot(*np.diff(samples, axis=0).T))
    for p in data.points[1:-1]:
        d = np.min(np.hypot(samples[:, 0] - p[0], samples[:, 1] - p[1]))
        assert d < step


def test_circle_dataset_spline_stays_close():
    # dense well-set data: the spline tracks the circle to ~1e-5 R
    data = circle_dataset()
    samples = cubic_spline_fixture(data)
    r = np.hypot(samples[:, 0], samples[:, 1] - 10.0)
    assert np.max(np.abs(r - 10.0)) < 1e-4 * 10.0


def test_end_tangents_clamped():
    data = circle_dataset()
    samples = cubic_spline_fixture(data, samples_per_chord=200)
    d0 = samples[1] - samples[0]
    slope0 = np.arctan2(d0[1], d0[0])
    npt.assert_allclose(slope0, data.tau_start, atol=1e-3)
    d1 = samples[-1] - samples[-2]
    slope1 = np.arctan2(d1[1], d1[0])
    npt.assert_allclose(slope1, data.tau_end, atol=1e-3)


def test_sample_count_scales_with_chords():
    data = sparse_dataset()  # 5 nodes, 4 chords
    assert cubic_spline_fixture(data, samples_per_chord=10).shape == (40, 2)
    assert cubic_spline_fixture(data).shape == (256, 2)


def test_sparse_dataset_spline_beats():
    # strongly varying q makes the interpolant's curvature oscillate
    from spiralbounds.analysis import discrete_curvature_plot
    samples = cubic_spline_fixture(sparse_dataset())
    q = discrete_curvature_plot(samples)[:, 1]
    extrema = 0
    for i in range(1, len(q) - 1):
        if (q[i] - q[i - 1]) * (q[i + 1] - q[i]) < 0:
            extrema += 1
    assert extrema >= 3


def test_closed_data_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(InputError):
        cubic_spline_fixture(SplineInput(pts, closed=True))


def test_bad_sample_count_rejected():
    data = sparse_dataset()
    with pytest.raises(InputError):
        cubic_spline_fixture(data, samples_per_chord=1)


def test_coincident_nodes_rejected_like_analyze():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [2.0, 0.5]])
    data = SplineInput(pts, tau_start=0.0, tau_end=0.3)
    with pytest.raises(DuplicatePointsError, match="points 1 and 2"):
        cubic_spline_fixture(data)


def test_chord_lost_in_arc_length_rounding_rejected():
    # 20 000 unit chords, then one of 1.5e-12: not a duplicate point, but
    # below half an ulp of the arc length 2e4, so its knot step rounds to 0
    pts = np.zeros((20002, 2))
    pts[1::2, 0] = 1.0
    pts[-1] = pts[-2] + [0.0, 1.5e-12]
    data = SplineInput(pts, tau_start=0.0, tau_end=math.pi / 2)
    with pytest.raises(DuplicatePointsError, match="points 20001 and 20002"):
        cubic_spline_fixture(data, 2)


def test_missing_tangent_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.5]])
    with pytest.raises(MissingTangentsError):
        cubic_spline_fixture(SplineInput(pts, tau_start=0.0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_scipy_cubic_spline(draw):
    n = draw.draw(st.integers(3, 200), label="nodes")
    seed = draw.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    ratio = draw.draw(st.sampled_from([1.0, 10.0, 1e3]), label="spacing")
    rng = np.random.default_rng(seed)
    # chord lengths spread over `ratio`, directions turning at random
    h = np.exp(rng.uniform(0.0, math.log(ratio), n - 1))
    mu = np.cumsum(rng.normal(0.0, 0.5, n - 1))
    seg = h[:, None] * np.column_stack([np.cos(mu), np.sin(mu)])
    pts = np.concatenate([[[0.0, 0.0]], np.cumsum(seg, axis=0)])
    pts += rng.uniform(-1e3, 1e3, 2)
    taus = rng.uniform(-math.pi, math.pi, 2)
    data = SplineInput(pts, tau_start=taus[0], tau_end=taus[1])
    assert_matches_scipy(data, draw.draw(st.sampled_from([2, 16, 64]),
                                         label="samples per chord"))


@pytest.mark.parametrize("size", range(1, 10))
def test_tridiagonal_solver_every_small_size(size):
    # odd and even sizes reduce through both kinds of level
    rng = np.random.default_rng(size)
    a, c = rng.uniform(0.1, 1.0, (2, size))
    a[0] = c[-1] = 0.0
    b = a + c + rng.uniform(0.1, 1.0, size)
    d = rng.normal(size=(2, size))
    full = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    npt.assert_allclose(_tridiagonal(a, b, c, d),
                        np.linalg.solve(full, d.T).T, rtol=1e-13, atol=1e-13)
    # and through the spline: size interior nodes
    th = np.sort(rng.uniform(0.0, 2.0, size + 2))
    data = SplineInput(np.column_stack([np.cos(th), np.sin(th)]),
                       tau_start=th[0] + math.pi / 2,
                       tau_end=th[-1] + math.pi / 2)
    assert_matches_scipy(data, 16)


def test_cli_runs_without_scipy(tmp_path):
    profile = write_profile(tmp_path / "sparse.json", sparse_dataset())
    blocked = ("import runpy, sys; sys.modules['scipy'] = None; "
               "runpy.run_module('spiralbounds', run_name='__main__')")
    r = subprocess.run([sys.executable, "-c", blocked, "spline-fixture",
                        profile], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    got = np.array([line.split() for line in r.stdout.splitlines()],
                   dtype=float)
    npt.assert_array_equal(got, cubic_spline_fixture(sparse_dataset()))
