"""Shared fixtures: canonical datasets reused across the suite."""

import json
import math

import numpy as np
import pytest

from spiralbounds import SplineInput, analyze
from spiralbounds.experiments import circle_dataset

from logspiral import LogSpiral


def arc_curvature(arc) -> float:
    """Signed curvature of an Arc: -sin(phi)/c."""
    return -math.sin(arc.phi) / arc.c


def tangency_residual(c, alpha, beta, a, b) -> float:
    """Residual of the biarc tangency condition; zero for a true biarc."""
    omega = 0.5 * (alpha + beta)
    return ((a * c + math.sin(alpha)) * (b * c - math.sin(beta))
            + math.sin(omega) ** 2)


def chord_start(frame):
    """Global position of a ChordFrame's chord start, (-c, 0) locally."""
    return frame.to_global(np.array([-frame.half_length, 0.0]))


def chord_end(frame):
    """Global position of a ChordFrame's chord end, (c, 0) locally."""
    return frame.to_global(np.array([frame.half_length, 0.0]))


@pytest.fixture(scope="session")
def circle_data():
    """21 points on the R=10 circle at 3-degree steps, exact tangents."""
    return circle_dataset()


@pytest.fixture(scope="session")
def circle_analysis(circle_data):
    return analyze(circle_data)


def sparse_dataset():
    """Five widely spaced nodes of a fast spiral; ill set for a cubic spline.

    The curvature ratio across the data is large, so the chord-length
    cubic interpolant oscillates visibly and leaves the narrowed region.
    """
    spiral = LogSpiral(scale=1.0, growth=-0.35, center=(0.0, 0.0))
    thetas = [0.0, 1.5, 3.0, 4.5, 6.0]
    pts = np.array([spiral.point(t) for t in thetas])
    return SplineInput(pts,
                       tau_start=float(spiral.tangent_angle(thetas[0])),
                       tau_end=float(spiral.tangent_angle(thetas[-1])))


@pytest.fixture(scope="session")
def sparse_data():
    return sparse_dataset()


def profile_dict(data: SplineInput, **extra) -> dict:
    """Profile-file dict for a SplineInput (open data keeps its tangents)."""
    prof = {"version": 1,
            "points": [[float(x), float(y)] for x, y in data.points],
            "closed": data.closed}
    if not data.closed:
        prof["tangents"] = {"start": data.tau_start, "end": data.tau_end}
    prof.update(extra)
    return prof


def write_profile(path, data: SplineInput, **extra) -> str:
    path.write_text(json.dumps(profile_dict(data, **extra)))
    return str(path)
