"""Shared fixtures: canonical datasets reused across the suite."""

import json
import math

import numpy as np
import pytest

from spiralbounds import SplineInput, analyze
from spiralbounds.analysis import padded
from spiralbounds.compliance import SPAN_SLACK
from spiralbounds.errors import InfeasibleCurvatureError, OverrideError
from spiralbounds.experiments import circle_dataset
from spiralbounds.geometry import (Arc, Biarc, biarc_from_a, biarc_from_b,
                                   biarc_from_p, curve_eval, family_pieces,
                                   gap_maxima, members)
from spiralbounds.regions import _node_bounds, narrowed_angle_ranges

from logspiral import LogSpiral


def arc_curvature(arc) -> float:
    """Signed curvature of an Arc: -sin(phi)/c."""
    return -math.sin(arc.phi) / arc.c


def piece_columns(curves):
    """family_pieces() of Arc and Biarc objects as (8, n, 1) columns,
    one row per curve, which broadcast against an (n, k) abscissa grid."""
    return np.array(family_pieces(members(curves)[0]))[..., None]


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


def mirror_curve(curve):
    """Reflect a boundary curve across the chord (y -> -y)."""
    if isinstance(curve, Arc):
        return Arc(curve.c, -curve.phi)
    return Biarc(c=curve.c, alpha=-curve.alpha, beta=-curve.beta,
                 a=-curve.a, b=-curve.b, p=curve.p,
                 join=(curve.join[0], -curve.join[1]))


def _reference_side(factory, c, alpha, beta, curvature, tainted, index,
                    side, fallback):
    try:
        return factory(c, alpha, beta, curvature)
    except InfeasibleCurvatureError as exc:
        if tainted:
            raise OverrideError(
                "chord %d: curvature override makes the %s boundary "
                "infeasible" % (index, side)) from exc
        return biarc_from_p(c, alpha, beta, fallback)


def reference_narrowed(analysis, overrides=None):
    """The narrowed boundaries built one chord at a time.

    Returns (lowers, uppers, widths).  Per chord the lower boundary is
    the member with the start node's curvature floor, the upper one the
    member with the end node's ceiling, both in the increasing
    orientation; an infeasible member is an OverrideError if an override
    tainted it and the lens arc otherwise.  Decreasing data is built
    mirrored and each curve reflected back, which swaps the sides.
    """
    table = narrowed_angle_ranges(analysis)
    ranges = _node_bounds(analysis, table, overrides)
    closed = analysis.data.closed
    m = len(analysis.chords)
    upper_end = padded(ranges.upper, closed)[2:m + 2]
    upper_end_over = padded(ranges.upper_overridden, closed,
                            (False, False))[2:m + 2]
    lowers, uppers = [], []
    for k, (c, a_lo, a_hi, b_lo, b_hi, a, a_over, b, b_over) in enumerate(zip(
            analysis.chords.c.tolist(), table.alpha_lo.tolist(),
            table.alpha_hi.tolist(), table.beta_lo.tolist(),
            table.beta_hi.tolist(), ranges.lower.tolist(),
            ranges.lower_overridden.tolist(), upper_end.tolist(),
            upper_end_over.tolist()), start=1):
        lower = _reference_side(biarc_from_a, c, a_lo, b_hi, a, a_over, k,
                                "lower", 0.0)
        upper = _reference_side(biarc_from_b, c, a_hi, b_lo, b, b_over, k,
                                "upper", math.inf)
        if table.mirrored:
            lower, upper = mirror_curve(upper), mirror_curve(lower)
        lowers.append(lower)
        uppers.append(upper)
    return (lowers, uppers,
            gap_maxima(piece_columns(lowers), piece_columns(uppers)))


def reference_containment(region, samples):
    """Brute-force containment: every sample projected into every chord.

    Returns (chord_index, x_local, y_local, margin_lower, margin_upper)
    by the package's rules, one chord at a time: the most favourable
    score min(margin_lower, margin_upper) among the chords whose span
    holds the projection wins, the lower chord on ties; a sample in no
    span is measured at its nearest node in the two chords meeting there
    (x clipped), unless that node is an open end.  The rotation into a
    chord frame is written out as the package writes it, so that ties at
    a node, which rounding in y decides, break the same way.
    """
    pts = np.asarray(samples, dtype=float)
    n = len(pts)
    chords = region.chords
    best = np.full(n, -np.inf)
    out = np.full((6, n), np.nan)   # chord, x, y, margin lower, upper, score
    out[0] = -1

    def measure(k, rows, clip_only):
        ch = chords[k]
        c = ch.frame.half_length
        co, si = math.cos(ch.frame.direction), math.sin(ch.frame.direction)
        dx = pts[rows, 0] - ch.frame.origin[0]
        dy = pts[rows, 1] - ch.frame.origin[1]
        x, y = dx * co + dy * si, dy * co - dx * si
        if not clip_only:
            inside = np.abs(x) <= c * (1.0 + SPAN_SLACK)
            rows, x, y = rows[inside], x[inside], y[inside]
        x = np.clip(x, -c, c)
        lower, upper = curve_eval(ch.lower, x), curve_eval(ch.upper, x)
        score = np.minimum(y - lower, upper - y)
        better = score > best[rows]
        rows = rows[better]
        best[rows] = score[better]
        out[0, rows] = ch.index
        out[1:, rows] = (x[better], y[better], (y - lower)[better],
                         (upper - y)[better], score[better])

    everyone = np.arange(n)
    for k in range(len(chords)):
        measure(k, everyone, clip_only=False)
    nodes = [chord_start(ch.frame) for ch in chords]
    if not region.closed:
        nodes.append(chord_end(chords[-1].frame))
    nodes = np.array(nodes)
    m = len(chords)
    for i in np.flatnonzero(out[0] < 0):
        node = int(np.argmin(np.hypot(*(nodes - pts[i]).T)))
        if region.closed or 0 < node < m:
            for k in sorted({(node - 1) % m, node % m}):
                measure(k, np.array([i]), clip_only=True)
    return out[0].astype(int), out[1], out[2], out[3], out[4]


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
