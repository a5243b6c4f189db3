"""Sample assignment and containment checking.

The sagitta of the generating circle pins the local-coordinate math;
random spirals against their own regions pin soundness; a sparse
ill-set dataset provides the honest failure case.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from spiralbounds.analysis import SplineInput, analyze
from spiralbounds.compliance import check_containment
from spiralbounds.errors import EmptySamplesError, InputError
from spiralbounds.geometry import curve_eval
from spiralbounds.regions import build_region, simple_region
from spiralbounds.splinefit import cubic_spline_fixture

from logspiral import spiral_dataset
from conftest import sparse_dataset


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
