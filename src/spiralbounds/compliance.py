"""Containment test of a candidate curve against a bounding region.

The candidate comes in as a dense polyline.  A sample is measured in
every chord whose span contains its projection (|x| <= c within
SPAN_SLACK, x then clipped to [-c, c]).  The region is a union of
per-chord pieces, so a sample complies when it fits ANY such chord: its
score in a chord is min(margin_lower, margin_upper), the chord with the
most favourable score wins and a tie goes to the lower chord index.

Finding those chords costs O(S) for samples near the data and about
O(sqrt(N)) more per sample away from it.  Chords are filed in a
uniform grid by their midpoints, with cell side

    h = 2 max_j (c_j (1 + SPAN_SLACK) + H_j),

where H_j is the largest |y| of chord j's lens: the largest gap between
either boundary and the chord itself, found in closed form like the
width (regions.RegionChords.lens_height).  Each sample is first scored
against the chords of the 3x3 cells around it.  A chord outside those
cells has its midpoint at least h away, so if it spans the sample,
|y| >= h - c_j (1 + SPAN_SLACK) and its score is at most
c_j (1 + SPAN_SLACK) + H_j - h <= -h/2.  A sample whose best nearby
score is above -h/4 (the bound, with room for rounding) thus has its
final answer.

The rest are off the region or span no nearby chord.  For them the m
chords are taken in runs of floor(sqrt(m)) consecutive ones.  Run b
has centre o_b, the midpoint of its middle chord, and axis t_b, that
chord's direction; R_b is the largest |o_j - o_b| and D_b the largest
|t_j - t_b| over its chords j.  Every chord j of the run projects a
sample p to

    |x_j(p) - (p - o_b).t_b| <= R_b + |p - o_b| D_b,

so a run where |(p - o_b).t_b| exceeds that plus its largest
c_j (1 + SPAN_SLACK), with a slack for rounding, spans no chord at p
and is skipped.  The chords of the other runs take the span test, in
chord order.  Such a sample costs one test per run plus the chords of
the runs kept: about sqrt(m) each where a few runs come near it, and up
to m where most do (the centre of a circle lies in every chord's span).
When all (sample, chord) pairs fit in one chunk, CHUNK, the grid and
the runs are skipped and one broadcast span test does everything.

Cell keys run x-major with room for two rows below and above the
chords' cells, so the cells (x, y - 1), (x, y) and (x, y + 1) have
consecutive keys and a sample's 3x3 cells are three key ranges, one per
column.  A sample more than one cell away from every chord's cell has
no chord nearby and is left to the runs; for the rest, a range's rows
lie within that room and never reach the next column.

Every path hands the scoring its pairs with each sample's pairs in one
run and the samples ascending, so the best score and the tie rule are
reductions over runs, not a sort.

A sample in no chord's span lies beyond the data only if its nearest
node is an open end of the data; it is then unassigned and does not
affect the verdict.  Otherwise it sits in the outer wedge at a node:
it is measured in the two chords meeting there with x clipped to the
node's end, so its margin is -|y|, and the better chord wins.  Closed
data has no ends, so there every such sample is measured at a node.
The nearest node is found through runs of nodes of the same length: no
node of a run lies nearer p than |p - c| - R, with c its middle node
and R the largest distance of its nodes from c, so only the runs where
that is at most the least |p - c| + R over the runs are searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_finite_rows, is_finite_real
from .errors import EmptySamplesError, InputError
from .geometry import height, take
from .regions import Region, RegionChords

# Relative slack when deciding whether a projection falls on a chord.
SPAN_SLACK = 1e-12
# (sample, chord) pairs held at once; larger chunks cost memory, not time.
CHUNK = 1 << 16
# Rounding slack of the run bounds (_chord_runs, _node_runs), relative to
# the sum of the distances in a bound: the bound, what it is tested
# against and the projections it stands for each carry a few roundings of
# terms no larger than that sum, each within 2**-53 of it, and
# 64 eps = 2**-46 covers them many times over.
_RUN_SLACK = 64 * np.finfo(float).eps
# Above every chord index: the tie rule's stand-in for a pair not tied.
_NO_CHORD = np.iinfo(np.intp).max


@dataclass(frozen=True, eq=False)
class ComplianceReport:
    """Per-sample margins against the region, plus the overall verdict.

    chord_index is -1 for unassigned samples (beyond the open ends of the
    data); their margins are NaN.  margin_lower = y - lower(x),
    margin_upper = upper(x) - y, both in model units; a sample passes
    when both are >= -tol.
    """

    chord_index: np.ndarray
    x_local: np.ndarray
    y_local: np.ndarray
    margin_lower: np.ndarray
    margin_upper: np.ndarray
    tol: float

    @property
    def assigned(self) -> np.ndarray:
        return self.chord_index >= 0

    @property
    def unassigned_count(self) -> int:
        return int(np.count_nonzero(~self.assigned))

    @property
    def worst_margin(self) -> float:
        a = self.assigned
        if not np.any(a):
            return math.inf
        return float(np.min(np.minimum(self.margin_lower[a],
                                       self.margin_upper[a])))

    @property
    def violations(self) -> np.ndarray:
        """Indices of assigned samples breaking either margin."""
        a = self.assigned
        bad = a & ((self.margin_lower < -self.tol)
                   | (self.margin_upper < -self.tol))
        return np.nonzero(bad)[0]

    @property
    def passed(self) -> bool:
        return self.violations.size == 0


def _spans(g: RegionChords, reach, pts, i, j):
    """Whether sample i lies within reach[j] along chord j; i, j broadcast."""
    # x alone: most grid pairs fail this test, and sharing _best's
    # x-and-y projection here made check_containment 25-31 % slower
    ox, oy = g.mid.T
    x = (pts[i, 0] - ox[j]) * g.cos[j] + (pts[i, 1] - oy[j]) * g.sin[j]
    return np.abs(x) <= reach[j]


def _best(g: RegionChords, pts, i, j):
    """Per sample of the pairs (i, j), the chord with the best score.

    Each sample's pairs must form one run of i, with the samples in
    ascending order, and name no chord twice (see _best_of_runs): the
    blocks of _blocks, the broadcast's row-major nonzero and the wedges'
    pairs all do.

    Returns the samples, their chords, and per sample x (clipped to
    [-c, c]), y, lower and upper margin and score.
    """
    ox, oy = g.mid.T
    dx, dy = pts[i, 0] - ox[j], pts[i, 1] - oy[j]
    co, si, c = g.cos[j], g.sin[j], g.c[j]
    x = np.clip(dx * co + dy * si, -c, c)
    y = dy * co - dx * si
    lower, upper = height(take(g.members, (slice(None), j)), x)
    m_lo, m_up = y - lower, upper - y
    score = np.minimum(m_lo, m_up)
    first = _best_of_runs(i, j, score)
    return i[first], j[first], (x[first], y[first], m_lo[first],
                                m_up[first], score[first])


def _best_of_runs(i, j, score):
    """Per run of equal i, the position of the pair with the best score.

    A tie goes to the lower j, which must not repeat within a run.  Both
    rules are reductions over the runs, O(pairs) with no sort.
    """
    new = np.empty(len(i), dtype=bool)
    new[0] = True
    np.not_equal(i[1:], i[:-1], out=new[1:])
    start = np.flatnonzero(new)
    # run lengths; np.diff's wrapper costs more than this on short runs
    size = np.empty_like(start)
    size[:-1] = start[1:] - start[:-1]
    size[-1] = len(i) - start[-1]
    top = score == np.maximum.reduceat(score, start).repeat(size)
    first = np.flatnonzero(top)
    if len(first) > len(start):   # a run has more than one best pair
        low = np.minimum.reduceat(np.where(top, j, _NO_CHORD), start)
        first = np.flatnonzero(top & (j == low.repeat(size)))
    return first


def _blocks(rows, first, count):
    """Each sample paired with the positions of its ranges, CHUNK at a time.

    Range r belongs to sample rows[r] and covers positions first[r] ..
    first[r] + count[r] - 1; a sample's ranges are consecutive, and the
    samples ascend.  Yields (sample, position) index arrays of at most
    CHUNK pairs (or one sample's), every sample's pairs in one block, in
    range order.
    """
    if not len(rows):
        return
    # each sample's last range, and the pairs up to its end
    last = np.flatnonzero(np.append(rows[1:] != rows[:-1], True))
    ends = np.cumsum(count)[last]
    r = s = 0
    while s < len(last):
        e = max(s + 1, int(np.searchsorted(
            ends, (ends[s - 1] if s else 0) + CHUNK, "right")))
        stop = last[e - 1] + 1
        n = count[r:stop]
        offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        yield np.repeat(rows[r:stop], n), np.repeat(first[r:stop], n) + offset
        r, s = stop, e


def _grid_pairs(g: RegionChords, pts, h):
    """Each sample paired with the chords filed in its 3x3 cells.

    The block is three ranges of consecutive keys, one per column x - 1,
    x, x + 1, and each range is one lookup.  Pairs come x-major, then by
    y, then in the chords' filing order; blocks are _blocks'.
    """
    corner = g.mid.min(axis=0)
    cells = np.floor((g.mid - corner) / h).astype(np.int64)
    top = cells.max(axis=0)
    # a near sample's ranges span cell rows -2 .. top + 2 at most, and ny
    # counts those rows: no range runs into the next column
    ny = top[1] + 5

    def key(cell):
        return (cell[..., 0] + 2) * ny + cell[..., 1] + 2

    keys = key(cells)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # the key of cell (x + dx, y - 1) for dx = -1, 0, 1, less key(x, y)
    columns = np.array([-1, 0, 1]) * ny - 1
    # a sample beyond these is in no cell near a chord's; clipping it to
    # them keeps its quotient by h finite however far it lies
    box = corner - 2.0 * h, corner + (top + 3) * h
    # samples per batch: as many as have CHUNK cells around them; more
    # would fill blocks to CHUNK pairs, and best's temporaries with them
    step = CHUNK // 9
    for a in range(0, len(pts), step):
        f = np.floor((np.clip(pts[a:a + step], *box) - corner) / h)
        near = np.flatnonzero(np.all((f >= -1) & (f <= top + 1), axis=1))
        low = key(f[near].astype(np.int64))[:, None] + columns
        # keys are integers: the range [low, low + 2] ends before low + 3
        first, end = np.searchsorted(keys, np.stack([low, low + 3]))
        for i, k in _blocks(np.repeat(a + near, 3), first.ravel(),
                            (end - first).ravel()):
            yield i, order[k]


def _runs(x, y, length):
    """The points (x, y) in runs of `length` consecutive ones, the last
    run shorter if need be.  Per run: its first index, its size, its
    middle point's index and the largest distance of its points from
    that middle point."""
    start = np.arange(0, len(x), length)
    size = np.diff(start, append=len(x))
    mid = start + size // 2
    off = np.hypot(x - np.repeat(x[mid], size), y - np.repeat(y[mid], size))
    return start, size, mid, np.maximum.reduceat(off, start)


def _run_pairs(pts, rows, start, size, centre, keep):
    """The samples rows paired with the points of every run that keep
    admits, in _blocks' blocks.

    Run b holds points start[b] .. start[b] + size[b] - 1 and has centre
    (centre[0][b], centre[1][b]); keep takes the differences dx, dy of
    each sample from each centre, (samples, runs), and says which runs to
    scan.  A batch holds CHUNK of those."""
    step = max(1, CHUNK // len(start))
    for a in range(0, len(rows), step):
        r = rows[a:a + step]
        # a bound that overflows is inf and keeps its run
        with np.errstate(over="ignore"):
            ri, b = np.nonzero(keep(pts[r, 0, None] - centre[0],
                                    pts[r, 1, None] - centre[1]))
        yield from _blocks(r[ri], start[b], size[b])


def _chord_runs(g: RegionChords, reach, pts, rows, length):
    """The samples rows paired with the chords of every run of `length`
    chords that can span them.

    Run b has centre o_b, the midpoint of its middle chord, whose
    direction t_b is its axis; R_b is the largest |o_j - o_b| and D_b the
    largest |t_j - t_b| over its chords j.  Chord j projects a sample p
    to x_j = (p - o_j).t_j = (p - o_b).t_b + (p - o_b).(t_j - t_b)
    - (o_j - o_b).t_j, so |x_j - (p - o_b).t_b| <= R_b + |p - o_b| D_b.
    A run with |(p - o_b).t_b| above that plus its largest reach spans
    no chord at p, and is skipped.
    """
    start, size, mid, radius = _runs(*g.mid.T, length)
    turn = _runs(g.cos, g.sin, length)[3]
    # lift + |p - o_b| tilt is the bound, R_b + reach + |p - o_b| D_b,
    # plus _RUN_SLACK (|p - o_b| + R_b + reach)
    lift = (radius + np.maximum.reduceat(reach, start)) * (1.0 + _RUN_SLACK)
    tilt = turn + _RUN_SLACK
    co, si = g.cos[mid], g.sin[mid]

    def keep(dx, dy):
        return np.abs(dx * co + dy * si) <= lift + np.hypot(dx, dy) * tilt

    return _run_pairs(pts, rows, start, size, g.mid[mid].T, keep)


def _node_runs(nodes, pts, rows, length):
    """The samples rows paired with the nodes of every run of `length`
    nodes that can hold their nearest node.

    No node of run b is nearer p than |p - c_b| - R_b, with c_b its
    middle node and R_b the largest distance of its nodes from c_b, and
    none farther than |p - c_b| + R_b.  A run whose lower bound exceeds
    the least upper bound over the runs, with _RUN_SLACK for rounding,
    holds no node that the squared distances of _squares could pick.
    """
    start, size, mid, radius = _runs(nodes[:, 0], nodes[:, 1], length)

    def keep(dx, dy):
        d = np.hypot(dx, dy)
        far = d + radius
        least = far.min(axis=1, keepdims=True)
        return d - radius <= least * (1.0 + _RUN_SLACK) + _RUN_SLACK * far

    return _run_pairs(pts, rows, start, size, nodes[mid].T, keep)


def _squares(pts, nodes, unit, i, k):
    """Squared distances of samples i from nodes k, i and k broadcast.

    unit, unless None, holds per sample a power of two that keeps its
    squares finite (see check_containment); scaling by it changes neither
    their rounding nor their order.
    """
    dx, dy = pts[i, 0] - nodes[k, 0], pts[i, 1] - nodes[k, 1]
    if unit is not None:
        dx, dy = dx * unit[i], dy * unit[i]
    return dx ** 2 + dy ** 2


def check_containment(region: Region, polyline, tol=None) -> ComplianceReport:
    """Test a dense polyline against the region, most favorable chord wins."""
    pts = np.asarray(polyline, dtype=float)
    if pts.size == 0:
        raise EmptySamplesError("no curve samples to test")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise EmptySamplesError("curve samples must form an (n, 2) array")
    check_finite_rows(pts, "sample")
    if tol is not None and not (is_finite_real(tol) and tol >= 0.0):
        raise InputError("tolerance must be finite and >= 0, got %r"
                         % (tol,))
    g = region.chords
    # |x| + |y| of a sample plus the chords' largest |ox| + |oy| bounds its
    # projections, finite below the float maximum; summed in eighths, the
    # test cannot overflow
    eighth = 0.125 * np.abs(pts)
    extent = np.max(np.sum(0.125 * np.abs(g.mid), axis=1))
    huge = np.flatnonzero(eighth[:, 0] + eighth[:, 1] + extent
                          >= 0.125 * np.finfo(float).max)
    if huge.size:
        raise InputError("sample %d is too large to measure: %s"
                         % (huge[0], pts[huge[0]].tolist()))
    reach = g.c * (1.0 + SPAN_SLACK)
    if tol is None:
        tol = 1e-9 * g.c.max()
    n, m = len(pts), len(g.c)
    chord = np.full(n, -1)
    # per sample: x_local, y_local, margin_lower, margin_upper, score
    out = np.full((5, n), math.nan)

    def measure(i, j):
        """Keep per sample the best chord of the pairs (i, j)."""
        i, j, values = _best(g, pts, i, j)
        chord[i] = j
        out[:, i] = values

    def scan(blocks):
        """Measure each sample in the chords of its pairs that span it."""
        for i, j in blocks:
            span = _spans(g, reach, pts, i, j)
            if span.any():
                measure(i[span], j[span])

    grid = n * m > CHUNK
    # an off-region sample tests one bound per run and the chords of the
    # runs kept, m / length + kept * length tests: runs of about sqrt(m)
    # chords make that O(sqrt(m)) for a few runs kept
    length = math.isqrt(m)
    if grid:
        h = 2.0 * np.max(reach + g.lens_height())
        scan(_grid_pairs(g, pts, h))
        todo = np.flatnonzero(~(out[4] > -0.25 * h))
        scan(_chord_runs(g, reach, pts, todo, length))
    else:
        # every sample against every chord, in one broadcast
        span = _spans(g, reach, pts, np.arange(n)[:, None], np.arange(m))
        if span.any():
            measure(*np.nonzero(span))
    # the node wedges: samples in no chord's span, at the chords' nodes
    todo = np.flatnonzero(chord < 0)
    if todo.size:
        sx, sy, ex, ey = g.ends()
        nodes = np.column_stack([sx, sy])
        if not region.closed:
            nodes = np.vstack([nodes, (ex[-1], ey[-1])])
        # a difference from a node is below twice the larger of |p| and
        # the largest node coordinate; under 2**511 its square is finite,
        # so a sample with either at 2**510 or beyond is scaled down
        unit = None
        extent = np.abs(nodes).max()
        if max(np.abs(pts[todo]).max(), extent) >= 2.0 ** 510:
            big = np.maximum(np.abs(pts).max(axis=1), extent)
            unit = np.ldexp(1.0, np.minimum(0, 510 - np.frexp(big)[1]))

        def wedge(i, node):
            """Measure the samples i at their nearest nodes."""
            if not region.closed:   # nearest an open end: beyond the data
                inner = (node > 0) & (node < m)
                i, node = i[inner], node[inner]
            if i.size:
                measure(np.repeat(i, 2),
                        np.column_stack([node - 1, node]).ravel() % m)

        if not grid:
            step = max(1, CHUNK // len(nodes))
            for a in range(0, len(todo), step):
                rows = todo[a:a + step]
                d = _squares(pts, nodes, unit, rows[:, None],
                             np.arange(len(nodes)))
                wedge(rows, np.argmin(d, axis=1))
        else:
            for i, k in _node_runs(nodes, pts, todo, length):
                # argmin's rule: the nearest node, the first on ties
                first = _best_of_runs(i, k, -_squares(pts, nodes, unit, i, k))
                wedge(i[first], k[first])
    assigned = chord >= 0
    chord[assigned] = g.indices[chord[assigned]]
    return ComplianceReport(chord_index=chord, x_local=out[0],
                            y_local=out[1], margin_lower=out[2],
                            margin_upper=out[3], tol=float(tol))
