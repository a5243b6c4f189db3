"""Reference interpolant: chord-length parametric cubic spline.

This is the candidate-curve generator for containment experiments, not
part of the bounding constructions.  It fits x(s), y(s) as clamped cubic
splines over accumulated chord length with unit-tangent end derivatives,
the standard recipe whose output a bounding region is meant to judge.

The knots are s_0 = 0, s_{i+1} = s_i + |P_{i+1} - P_i|, the chord
lengths from `chord_vectors`, so its duplicate-point rule applies; h_i
is the rounded step s_{i+1} - s_i, as in scipy, so every piece ends on
its knot.
With Δ_i the divided difference of the points over chord i, the end
slopes m_0, m_n are the unit end tangents and the interior slopes solve

    h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1}
        = 3 (h_i Δ_{i-1} + h_{i-1} Δ_i),

the system scipy's CubicSpline(bc_type=((1, t0), (1, t1))) solves, for
both coordinates at once.  It is strictly diagonally dominant, so cyclic
reduction solves it directly, without pivoting, in O(n) array work over
log2(n) levels.  Each interval is then a cubic Hermite piece in u - s_j,
evaluated by Horner; a sample belongs to the interval whose knot is the
last one at or before it (right-continuous), and the last knot to the
last interval.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import SplineInput, chord_vectors
from .errors import DuplicatePointsError, InputError


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
    seg, lengths = chord_vectors(data)
    s = np.concatenate([[0.0], np.cumsum(lengths)])
    h = np.diff(s)
    short = np.nonzero(h <= 0.0)[0]
    if short.size:
        raise DuplicatePointsError(
            "points %d and %d coincide within the rounding of the arc "
            "length" % (short[0] + 1, short[0] + 2))
    n = len(h)
    # coordinate rows, so that per-knot factors broadcast without strides
    p = data.points.T
    delta = seg.T / h
    m = np.empty_like(p)
    m[:, 0] = math.cos(data.tau_start), math.sin(data.tau_start)
    m[:, -1] = math.cos(data.tau_end), math.sin(data.tau_end)
    rhs = 3.0 * (h[1:] * delta[:, :-1] + h[:-1] * delta[:, 1:])
    rhs[:, 0] -= h[1] * m[:, 0]
    rhs[:, -1] -= h[-2] * m[:, -1]
    lower = np.concatenate([[0.0], h[2:]])
    upper = np.concatenate([h[:-2], [0.0]])
    m[:, 1:-1] = _tridiagonal(lower, 2.0 * (h[:-1] + h[1:]), upper, rhs)

    u = np.linspace(0.0, s[-1], n * samples_per_chord)
    # samples per interval: from the first sample at or past its knot
    counts = np.diff(np.append(np.searchsorted(u, s[:-1]), len(u)))
    w = u - np.repeat(s[:-1], counts)
    m0, m1 = m[:, :-1], m[:, 1:]
    t = (m0 + m1 - 2.0 * delta) / h
    out = np.repeat(t / h, counts, axis=1)
    for c in ((delta - m0) / h - t, m0, p[:, :-1]):
        out *= w
        out += np.repeat(c, counts, axis=1)
    return out.T


def _tridiagonal(a, b, c, d):
    """Solve a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i by cyclic reduction.

    a[0] and c[-1] must be 0; d holds one right-hand side per row.
    The odd rows, with their even neighbours eliminated, form a system of
    the same shape and half the size; the even unknowns follow from it.
    """
    if len(b) == 1:
        return d / b
    # even rows, plus a decoupled row x = 0 past the end, so that every
    # odd row has an even row on either side
    zero = np.zeros((len(d), 1))
    ae, be, ce = (np.append(v[0::2], fill) for v, fill in
                  ((a, 0.0), (b, 1.0), (c, 0.0)))
    de = np.concatenate([d[:, 0::2], zero], axis=1)
    k = len(b) // 2
    alpha = a[1::2] / be[:k]
    gamma = c[1::2] / be[1:k + 1]
    x_odd = _tridiagonal(
        -alpha * ae[:k],
        b[1::2] - alpha * ce[:k] - gamma * ae[1:k + 1],
        -gamma * ce[1:k + 1],
        d[:, 1::2] - alpha * de[:, :k] - gamma * de[:, 1:k + 1])
    x_pad = np.concatenate([zero, x_odd, zero], axis=1)
    ne = len(be) - 1
    x = np.empty_like(d)
    x[:, 0::2] = (de[:, :ne] - ae[:ne] * x_pad[:, :ne]
                  - ce[:ne] * x_pad[:, 1:ne + 1]) / be[:ne]
    x[:, 1::2] = x_odd
    return x
