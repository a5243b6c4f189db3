"""Reference interpolant: chord-length parametric cubic spline.

This is the candidate-curve generator for containment experiments, not
part of the bounding constructions.  It fits x(s), y(s) as clamped cubic
splines over accumulated chord length with unit-tangent end derivatives,
the standard recipe whose output a bounding region is meant to judge.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import SplineInput
from .errors import InputError


def cubic_spline_fixture(data: SplineInput, samples_per_chord: int = 64):
    """Sample the clamped chord-length cubic spline through the data.

    Returns an (M * samples_per_chord, 2) array spanning the whole
    parameter range, endpoints included.
    """
    if data.closed:
        raise InputError("the cubic spline fixture needs open data "
                         "with boundary tangents")
    if samples_per_chord < 2:
        raise InputError("need at least 2 samples per chord")
    # scipy loads here, not with the package: it is most of the import time
    from scipy.interpolate import CubicSpline

    pts = data.points
    seg = pts[1:] - pts[:-1]
    s = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
    t0 = (math.cos(data.tau_start), math.sin(data.tau_start))
    t1 = (math.cos(data.tau_end), math.sin(data.tau_end))
    spline = CubicSpline(s, pts, axis=0, bc_type=((1, t0), (1, t1)))
    u = np.linspace(0.0, s[-1], (len(pts) - 1) * samples_per_chord)
    return spline(u)
