"""Discrete analysis of planar interpolation data.

Given points P_1..P_N (plus boundary tangents for open data) this module
builds the chord quantities the bounding constructions run on:

  * half-chords c_j and chord directions mu_j, with zero-length pseudo
    chords carrying the boundary tangents of open data;
  * per node j: turning angle rho_j = mu_j - mu_{j-1}, half-diagonal
    d_j = |P_{j-1} P_{j+1}|/2 and the three-point discrete curvature
    q_j = sin(rho_j)/d_j (the curvature of the circle through the node
    and its neighbours, signed by turning direction);
  * per chord j the tangent angles of the neighbouring three-point
    circles at its endpoints:

        sin(xi_j) = -c_j q_j,    cos(xi_j) = (c_{j-1} + c_j cos rho_j)/d_j,
        sin(eta_j) = c_j q_{j+1}, cos(eta_j) = (c_{j+1} + c_j cos rho_{j+1})/d_{j+1};

  * the half-turn admissibility test: at every node both
    c_{j-1} + c_j cos(rho_j) >= 0 and c_j + c_{j-1} cos(rho_j) >= 0,
    which keeps all those angles within [-pi/2, pi/2];
  * a classification of the q sequence into a spiral (monotone) or a
    piecewise-spiral with vertex nodes at its strict local extrema.

Closed data wraps around: P_{N+1} = P_1, no boundary tangents, N chords.
Every quantity is stored as a column (a numpy array indexed by chord or
by node) and computed by array expressions; `padded` is the one place
that knows which chords and nodes neighbour each other.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (AdjacentVerticesError, DegenerateNodeError,
                     DuplicatePointsError, InputError, MissingTangentsError)
from .geometry import wrap_angle

# Relative tolerance for "equal" discrete curvatures in classification.
Q_TIE_TOL = 1e-12
# Safety factor K of the per-node rounding bound on q (see node_data).
Q_ERR_FACTOR = 8.0


def is_finite_real(value) -> bool:
    """Whether value is a finite real number, the one rule for numbers from
    outside: a bool is not one, nor is an integer past the float range."""
    try:
        return (not isinstance(value, bool)
                and isinstance(value, numbers.Real) and math.isfinite(value))
    except OverflowError:
        return False


def check_finite_rows(pts, name, first=0):
    """Reject an (n, 2) array with a non-finite row, naming the first
    one as `name` counted from `first`: points from 1, samples from 0."""
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise InputError("%s %d is not finite: %s"
                         % (name, bad[0] + first, pts[bad[0]].tolist()))


@dataclass(frozen=True, eq=False)
class SplineInput:
    """Interpolation data: points plus boundary tangents (open) or closed flag.

    Tangents are angles in radians; unit-vector input is converted at the
    file-parsing layer.  This is the one check of the data's shape: n >= 3
    points, all values finite (numpy comparisons against NaN quietly come
    out False later on), both tangents for open data, none for closed.
    """

    points: np.ndarray
    tau_start: float | None = None
    tau_end: float | None = None
    closed: bool = False

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InputError("points must be (n, 2) floats: %s" % exc) from exc
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
            raise InputError("points must form an (n >= 3, 2) array, got "
                             "shape %s" % (pts.shape,))
        check_finite_rows(pts, "point", 1)
        taus = (self.tau_start, self.tau_end)
        if self.closed and taus != (None, None):
            raise InputError("closed data must not carry boundary tangents")
        if not self.closed and None in taus:
            raise MissingTangentsError("open data needs both tangents")
        for name, tau in zip(("start", "end"), taus):
            if tau is not None and not is_finite_real(tau):
                raise InputError("%s tangent is not a finite number: %r"
                                 % (name, tau))
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Lim180Violation:
    node: int
    side: int    # 1: c_{j-1} + c_j cos(rho_j) < 0;  2: the mirrored sum
    value: float


@dataclass(frozen=True)
class Classification:
    """kind: 'spiral' | 'piecewise' | 'inadmissible'.

    direction is set for spirals ('increasing'/'decreasing'/'constant');
    vertices lists (node index, 'min'|'max') for piecewise data, where a
    plateau of tied q bounded by opposite trends contributes its first
    node as the representative vertex.
    """

    kind: str
    direction: str | None
    vertices: tuple
    violations: tuple


@dataclass(frozen=True, eq=False)
class Chords:
    """The real chords as columns: half-lengths c, directions mu, midpoints.

    The zero-length pseudo-chords of open data are not stored; `padded`
    supplies them, with the boundary tangents as their directions.
    """

    c: np.ndarray
    mu: np.ndarray
    mid: np.ndarray                        # (m, 2)
    closed: bool
    tangents: tuple[float, float] | None   # (tau_start, tau_end), open data

    def __len__(self):
        return len(self.c)


@dataclass(frozen=True, eq=False)
class Nodes:
    """Per node: turning angle rho, half-diagonal d, discrete curvature q,
    and err, how far rounding the data can move q."""

    rho: np.ndarray
    d: np.ndarray
    q: np.ndarray
    err: np.ndarray

    def __len__(self):
        return len(self.q)


@dataclass(frozen=True, eq=False)
class Angles:
    """Per chord: tangent angles xi, eta of the neighbouring three-point
    circles at its start and end."""

    xi: np.ndarray
    eta: np.ndarray

    def __len__(self):
        return len(self.xi)


def padded(col, closed: bool, ends=(0.0, 0.0)) -> np.ndarray:
    """The neighbour rule of the data: `col` with one slot added at each end.

    Chord k (0-based) runs from node k to node k + 1, taken mod N for
    closed data.  For a per-chord column, slots i and i + 1 of the result
    hold the chords before and after node i, so slots k and k + 2 hold
    the chords before and after chord k; closed data wraps around, open
    data puts `ends` (the pseudo-chords) in the added slots.  For a
    per-node column, slot k + 2 holds the value at the end node of chord k.
    """
    col = np.asarray(col)
    if closed:
        return np.concatenate([col[-1:], col, col[:1]])
    return np.concatenate([[ends[0]], col, [ends[1]]])


def chord_vectors(data: SplineInput):
    """The chords of the data polygon as vectors, (m, 2), and their
    lengths (m = N - 1 for open data, N for closed).

    The duplicate-point rule: a chord no longer than 1e-12 of the data's
    extent is a DuplicatePointsError naming its points.
    """
    pts = data.points
    m = len(pts) - (not data.closed)
    seg = padded(pts, data.closed, pts[[0, -1]])[2:m + 2] - pts[:m]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    # per column: numpy reduces an (N, 2) array along axis 0 ten times
    # slower
    diag = math.hypot(*(np.ptp(col) for col in pts.T))
    short = np.nonzero(lengths <= 1e-12 * max(diag, 1e-300))[0]
    if short.size:
        k = int(short[0])
        raise DuplicatePointsError(
            "points %d and %d coincide" % (k + 1, k + 2), index=k)
    return seg, lengths


def build_chords(data: SplineInput) -> Chords:
    """Chords of the data polygon (N - 1 for open data, N for closed)."""
    seg, lengths = chord_vectors(data)
    return Chords(c=0.5 * lengths, mu=np.arctan2(seg[:, 1], seg[:, 0]),
                  mid=data.points[:len(seg)] + 0.5 * seg, closed=data.closed,
                  tangents=None if data.closed
                  else (data.tau_start, data.tau_end))


def node_data(chords: Chords) -> Nodes:
    """Turning angle, half-diagonal and discrete curvature at every node.

    err_j = K eps S (1/c_{j-1} + 1/c_j) / d_j bounds how far rounding the
    data moves q_j: a node moved by eps S, with S the largest coordinate
    magnitude plus the largest c, turns the chords next to it by eps S/c.
    Pseudo-chords contribute 0, and S is taken as max|mid| + 2 max c,
    which is at least that.
    """
    n = len(chords) + (not chords.closed)
    c = padded(chords.c, chords.closed)
    mu = padded(chords.mu, chords.closed, chords.tangents)
    c0, c1 = c[:n], c[1:n + 1]
    rho = wrap_angle(mu[1:n + 1] - mu[:n])
    # d^2 = c0^2 + 2 c0 c1 cos(rho) + c1^2 as a sum of two squares, which
    # does not cancel at a sharp turn
    d = np.hypot((c0 + c1) * np.cos(0.5 * rho), (c0 - c1) * np.sin(0.5 * rho))
    folded = np.nonzero(d < 1e-12 * (c0 + c1))[0]
    if folded.size:
        k = int(folded[0])
        raise DegenerateNodeError(
            "node %d folds back onto itself (half-diagonal ~ 0)" % (k + 1),
            index=k)
    scale = Q_ERR_FACTOR * sys.float_info.epsilon * (
        float(np.abs(chords.mid).max()) + 2.0 * float(chords.c.max()))
    inv = padded(scale / chords.c, chords.closed)
    err = (inv[:n] + inv[1:n + 1]) / d
    return Nodes(rho=rho, d=d, q=np.sin(rho) / d, err=err)


def xi_eta(chords: Chords, nodes: Nodes) -> Angles:
    """Neighbour-circle tangent angles at both ends of every chord."""
    m = len(chords)
    c = chords.c
    c_pad = padded(c, chords.closed)
    c_prev, c_next = c_pad[:m], c_pad[2:]
    rho_end, d_end, q_end = (padded(col, chords.closed)[2:m + 2]
                             for col in (nodes.rho, nodes.d, nodes.q))
    xi = np.arctan2(-c * nodes.q[:m],
                    (c_prev + c * np.cos(nodes.rho[:m])) / nodes.d[:m])
    eta = np.arctan2(c * q_end, (c_next + c * np.cos(rho_end)) / d_end)
    return Angles(xi=xi, eta=eta)


def check_lim180(chords: Chords, nodes: Nodes) -> list[Lim180Violation]:
    """Half-turn admissibility: both mixed sums non-negative at each node."""
    n = len(nodes)
    c = padded(chords.c, chords.closed)
    c0, c1 = c[:n], c[1:n + 1]
    co = np.cos(nodes.rho)
    sums = np.column_stack([c0 + c1 * co, c1 + c0 * co])
    node, side = np.nonzero(sums < -1e-12 * (c0 + c1)[:, None])
    return [Lim180Violation(node=j + 1, side=s + 1, value=float(sums[j, s]))
            for j, s in zip(node.tolist(), side.tolist())]


def classify(nodes: Nodes, violations: list[Lim180Violation],
             *, closed: bool = False) -> Classification:
    """Spiral vs piecewise-spiral split of the q sequence.

    Monotone (ties allowed) means spiral; otherwise every strict local
    extremum becomes a vertex.  Neighbours q_j, q_{j+1} tie when they
    differ by at most Q_TIE_TOL max|q| or by err_j + err_{j+1}, their
    rounding bounds.  For closed data the sequence is cyclic.
    Raises AdjacentVerticesError when two vertices have no node between
    them, which no construction here supports.
    """
    if violations:
        return Classification(kind="inadmissible", direction=None,
                              vertices=(), violations=tuple(violations))
    q = nodes.q
    n = len(q)
    # pair j is node j and node j + 1, like chord j; the seam pair of
    # closed data comes last
    m = n - (not closed)
    tie = np.maximum(Q_TIE_TOL * max(float(np.max(np.abs(q))), 1e-300),
                     padded(nodes.err, closed)[2:m + 2] + nodes.err[:m])
    brk = np.abs(padded(q, closed)[2:m + 2] - q[:m]) > tie
    # Plateaus of consecutive tied q, by their first node.
    starts = np.concatenate([[0], np.nonzero(brk[:n - 1])[0] + 1])
    values = q[starts]
    if closed and len(starts) > 1 and not brk[-1]:
        # One plateau wraps the seam; its first node in cyclic order is
        # the start of the tail part.
        starts = np.concatenate([[starts[-1] - n], starts[1:-1]])
        values = values[:-1]

    if len(starts) == 1:
        return Classification(kind="spiral", direction="constant",
                              vertices=(), violations=())
    # trends[i] joins plateau i to plateau i + 1, like a chord joins two
    # nodes, so `padded` finds the plateau it ends at.
    t = len(values) - (not closed)
    trends = np.where(padded(values, closed)[2:t + 2] > values[:t], 1, -1)
    if np.all(trends > 0):
        return Classification(kind="spiral", direction="increasing",
                              vertices=(), violations=())
    if np.all(trends < 0):
        return Classification(kind="spiral", direction="decreasing",
                              vertices=(), violations=())

    # The trends into and out of plateau i; 0 past the open ends, so the
    # boundary plateaus of open data are never extrema.
    around = padded(trends, closed, (0, 0))
    before, after = around[:len(starts)], around[1:len(starts) + 1]
    is_max = (before > 0) & (after < 0)
    extremum = is_max | ((before < 0) & (after > 0))
    idx = starts[extremum] % n + 1
    order = np.argsort(idx)
    idx = idx[order]
    kinds = np.where(is_max[extremum][order], "max", "min")
    vertices = tuple(zip(idx.tolist(), kinds.tolist()))

    g = len(idx) - (not closed)           # gaps between vertices
    nxt = padded(idx, closed, (0, 0))[2:g + 2]
    close = np.nonzero((nxt - idx[:g]) % n < 2)[0]
    if close.size:
        k = close[0]
        raise AdjacentVerticesError(
            "vertices at nodes %d and %d are adjacent" % (idx[k], nxt[k]))
    return Classification(kind="piecewise", direction=None,
                          vertices=vertices, violations=())


def discrete_curvature_plot(samples) -> np.ndarray:
    """(arc length, three-point curvature) rows at the interior samples of
    a polyline, read as open data: its chords and their nodes' q."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise InputError("need an (n >= 3, 2) sample array")
    check_finite_rows(pts, "sample")
    # the end tangents only set the end nodes' q, which are left out;
    # errors name samples from 0, as the compliance report does
    try:
        chords = build_chords(SplineInput(pts, 0.0, 0.0))
        q = node_data(chords).q[1:-1]
    except DuplicatePointsError as exc:
        raise DuplicatePointsError(
            "samples %d and %d coincide" % (exc.index, exc.index + 1),
            index=exc.index) from None
    except DegenerateNodeError as exc:
        raise DegenerateNodeError(
            "sample %d folds back onto itself" % exc.index,
            index=exc.index) from None
    return np.column_stack([np.cumsum(2.0 * chords.c)[:-1], q])


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything the region constructions need, in one bundle."""

    data: SplineInput
    chords: Chords
    nodes: Nodes
    angles: Angles
    violations: list[Lim180Violation]
    classification: Classification


def analyze(data: SplineInput) -> Analysis:
    chords = build_chords(data)
    nodes = node_data(chords)
    angles = xi_eta(chords, nodes)
    violations = check_lim180(chords, nodes)
    cls = classify(nodes, violations, closed=data.closed)
    return Analysis(data=data, chords=chords, nodes=nodes, angles=angles,
                    violations=violations, classification=cls)
