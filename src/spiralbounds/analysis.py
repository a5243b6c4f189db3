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
  * a classification of the q sequence, each q_j known within e_j: a
    spiral when one monotone sequence fits every q_j +- e_j, else a
    piecewise spiral with vertices at the turns of the fewest monotone
    pieces that fit, each at the first node where it can fall.

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

# A q interval in classification is at least Q_TIE_TOL max|q| wide.
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
    vertices lists (node index, 'min'|'max') for piecewise data: the turns
    of the sequence through the intervals q_j +- e_j (see classify) with
    the fewest monotone pieces, each at the first node where it can fall.
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


def _reach(lo, hi, p, w=8) -> int:
    """The last k such that a nondecreasing sequence through the intervals
    [lo, hi] runs from index p to k; the window w doubles, so O(k - p)."""
    bad = np.flatnonzero(np.maximum.accumulate(lo[p:p + w]) > hi[p:p + w])
    if bad.size or p + w >= len(lo):
        return p + int(bad[0]) - 1 if bad.size else len(lo) - 1
    return _reach(lo, hi, p, 2 * w)


def classify(nodes: Nodes, violations: list[Lim180Violation],
             *, closed: bool = False) -> Classification:
    """Spiral vs piecewise-spiral split of the q sequence.

    Node j admits q_j +- e_j, e_j = max(err_j, Q_TIE_TOL max|q| / 2) with
    err_j its rounding bound.  Spiral means one monotone sequence passes
    through every interval (for cyclic, closed data a constant one).
    Raises AdjacentVerticesError when two vertices have no node between.
    """
    if violations:
        return Classification(kind="inadmissible", direction=None,
                              vertices=(), violations=tuple(violations))
    q, n = nodes.q, len(nodes.q)
    e = np.maximum(nodes.err, 0.5 * Q_TIE_TOL * float(np.abs(q).max()))
    lo, hi = q - e, q + e
    direction = ("constant" if lo.max() <= hi.min() else None if closed
                 else "increasing" if np.all(np.maximum.accumulate(lo) <= hi)
                 else "decreasing" if np.all(np.minimum.accumulate(hi) >= lo)
                 else None)
    if direction:
        return Classification(kind="spiral", direction=direction,
                              vertices=(), violations=())

    # Alternating runs, each as long as _reach allows and fresh at its
    # vertex (set to its interval's far end), go backward along `order`
    # from the last node, so each vertex lands on the first node it can.
    start, rising, pos, ends = n - 1, True, 0, []
    if closed:
        # a node that is always a max vertex: the first of the cyclic
        # stretch that ends at argmax(lo) with hi >= max(lo); no falling
        # run passes argmax(lo), so the last run rises into it again
        back = (np.argmax(lo) - np.arange(n)) % n
        start = back[np.argmin(hi[back] >= lo.max()) - 1]
    order = (start - np.arange(n + closed)) % n
    bounds = {True: (lo[order], hi[order]), False: (-hi[order], -lo[order])}
    if not closed:
        # the longer first run; the shorter adds a vertex inside it
        up, down = _reach(*bounds[True], 0), _reach(*bounds[False], 0)
        rising, pos = up > down, max(up, down)
    while pos < n - (not closed):
        ends.append((int(order[pos]) + 1, "max" if rising else "min"))
        rising = not rising
        pos = _reach(*bounds[rising], pos)
    vertices = tuple(sorted(ends))
    idx = [j for j, _ in vertices]
    for j, k in zip(idx, idx[1:] + idx[:closed]):
        if (k - j) % n < 2:
            raise AdjacentVerticesError(
                "vertices at nodes %d and %d are adjacent" % (j, k))
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
