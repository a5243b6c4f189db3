"""Containment test of a candidate curve against a bounding region.

The candidate comes in as a dense polyline.  A sample is measured in
every chord whose span contains its projection (|x| <= c within
SPAN_SLACK, x then clipped to [-c, c]).  The region is a union of
per-chord pieces, so a sample complies when it fits ANY such chord: its
score in a chord is min(margin_lower, margin_upper), the chord with the
most favourable score wins and a tie goes to the lower chord index.

Finding those chords takes near-linear time.  Chords are filed in a
uniform grid by their midpoints, with cell side

    h = 2 max_j (c_j (1 + SPAN_SLACK) + H_j),

where H_j is the largest |y| of chord j's lens: the largest gap between
either boundary and the chord itself, found in closed form like the
width (regions.ChordColumns.lens_height).  Each sample is first scored
against the chords of the 3x3 cells around it.  A chord outside those
cells has its midpoint at least h away, so if it spans the sample,
|y| >= h - c_j (1 + SPAN_SLACK) and its score is at most
c_j (1 + SPAN_SLACK) + H_j - h <= -h/2.  A sample whose best nearby
score is above -h/4 (the bound, with room for rounding) thus has its
final answer.  The rest are far from the data or span no nearby
chord; they are scored against every chord with one broadcast span
test, CHUNK (sample, chord) elements at a time.  When all pairs fit in
one chunk the grid is skipped and the broadcast test does everything.

Cell keys run x-major with room for two rows below and above the
chords' cells, so the cells (x, y - 1), (x, y) and (x, y + 1) have
consecutive keys and a sample's 3x3 cells are three key ranges, one per
column.  A sample more than one cell away from every chord's cell has
no chord nearby and is left to the broadcast test; for the rest, a
range's rows lie within that room and never reach the next column.

Every path hands the scoring its pairs with each sample's pairs in one
run and the samples ascending, so the best score and the tie rule are
reductions over runs, not a sort.

A sample in no chord's span lies beyond the data only if its nearest
node is an open end of the data; it is then unassigned and does not
affect the verdict.  Otherwise it sits in the outer wedge at a node:
it is measured in the two chords meeting there with x clipped to the
node's end, so its margin is -|y|, and the better chord wins.  Closed
data has no ends, so there every such sample is measured at a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_finite_rows, is_finite_real
from .errors import EmptySamplesError, InputError
from .geometry import height
from .regions import ChordColumns, Region

# Relative slack when deciding whether a projection falls on a chord.
SPAN_SLACK = 1e-12
# (sample, chord) pairs held at once; larger chunks cost memory, not time.
CHUNK = 1 << 16
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


class _Chords:
    """The search around a region's chord columns."""

    def __init__(self, cols: ChordColumns):
        self.cols = cols
        self.reach = cols.c * (1.0 + SPAN_SLACK)

    def spans(self, pts, i, j):
        """Whether sample i projects onto chord j; i and j broadcast."""
        g = self.cols
        # x alone: most grid pairs fail this test, and sharing best's
        # x-and-y projection here made check_containment 25-31 % slower
        x = ((pts[i, 0] - g.ox[j]) * g.cos[j]
             + (pts[i, 1] - g.oy[j]) * g.sin[j])
        return np.abs(x) <= self.reach[j]

    def best(self, pts, i, j):
        """Per sample of the pairs (i, j), the chord with the best score.

        Each sample's pairs must form one run of i, with the samples in
        ascending order, and name no chord twice (see _best_of_runs): the
        grid's per-sample blocks, the full scan's row-major nonzero and
        the wedges' pairs all do.

        Returns the samples, their chords, and per sample x (clipped to
        [-c, c]), y, lower and upper margin and score.
        """
        g = self.cols
        dx, dy = pts[i, 0] - g.ox[j], pts[i, 1] - g.oy[j]
        co, si, c = g.cos[j], g.sin[j], g.c[j]
        x = np.clip(dx * co + dy * si, -c, c)
        y = dy * co - dx * si
        lower, upper = height(g.table[:, j], x[:, None]).T
        m_lo, m_up = y - lower, upper - y
        score = np.minimum(m_lo, m_up)
        first = _best_of_runs(i, j, score)
        return i[first], j[first], (x[first], y[first], m_lo[first],
                                    m_up[first], score[first])

    def nodes(self):
        """Node positions: every chord's start, and the last chord's end
        for open data."""
        g = self.cols
        start = np.column_stack([g.sx, g.sy])
        if g.closed:
            return start
        return np.vstack([start, (g.ex[-1], g.ey[-1])])


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


def _grid_pairs(g: ChordColumns, pts, h):
    """Each sample paired with the chords filed in its 3x3 cells.

    The block is three ranges of consecutive keys, one per column x - 1,
    x, x + 1, and each range is one lookup.  Pairs come x-major, then by
    y, then in the chords' filing order.

    Yields (sample, chord) index arrays of at most CHUNK pairs (or one
    sample's), every sample's pairs in one block, samples ascending.
    """
    corner = np.array([g.ox.min(), g.oy.min()])
    cells = np.floor((np.column_stack([g.ox, g.oy]) - corner) / h
                     ).astype(np.int64)
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
    # samples per batch: as many as have CHUNK cells around them; more
    # would fill blocks to CHUNK pairs, and best's temporaries with them
    step = CHUNK // 9
    for a in range(0, len(pts), step):
        f = np.floor((pts[a:a + step] - corner) / h)
        near = np.flatnonzero(np.all((f >= -1) & (f <= top + 1), axis=1))
        low = key(f[near].astype(np.int64))[:, None] + columns
        # keys are integers: the range [low, low + 2] ends before low + 3
        first, end = np.searchsorted(keys, np.stack([low, low + 3]))
        count = end - first
        per = count.sum(axis=1)
        ends = np.cumsum(per)
        s = 0
        while s < len(near):
            e = max(s + 1, int(np.searchsorted(
                ends, (ends[s - 1] if s else 0) + CHUNK, "right")))
            n = count[s:e].ravel()
            offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            yield (np.repeat(a + near[s:e], per[s:e]),
                   order[np.repeat(first[s:e].ravel(), n) + offset])
            s = e


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
    g = ChordColumns(region)
    search = _Chords(g)
    if tol is None:
        tol = 1e-9 * g.c.max()
    n, m = len(pts), len(g.c)
    chord = np.full(n, -1)
    # per sample: x_local, y_local, margin_lower, margin_upper, score
    out = np.full((5, n), math.nan)

    def measure(i, j):
        """Keep per sample the best chord of the pairs (i, j)."""
        i, j, values = search.best(pts, i, j)
        chord[i] = j
        out[:, i] = values

    todo = np.arange(n)
    if n * m > CHUNK:
        h = 2.0 * np.max(search.reach + g.lens_height())
        for i, j in _grid_pairs(g, pts, h):
            span = search.spans(pts, i, j)
            if span.any():
                measure(i[span], j[span])
        todo = np.flatnonzero(~(out[4] > -0.25 * h))
    step = max(1, CHUNK // m)
    for a in range(0, len(todo), step):
        rows = todo[a:a + step]
        ri, j = np.nonzero(search.spans(pts, rows[:, None], np.arange(m)))
        if ri.size:
            measure(rows[ri], j)
    # the node wedges: samples in no chord's span
    todo = np.flatnonzero(chord < 0)
    nodes = search.nodes()
    step = max(1, CHUNK // len(nodes))
    for a in range(0, len(todo), step):
        rows = todo[a:a + step]
        d = ((pts[rows, None, 0] - nodes[:, 0]) ** 2
             + (pts[rows, None, 1] - nodes[:, 1]) ** 2)
        node = np.argmin(d, axis=1)
        if not g.closed:   # nearest an open end: beyond the data
            inner = (node > 0) & (node < m)
            rows, node = rows[inner], node[inner]
        if rows.size:
            measure(np.repeat(rows, 2),
                    np.column_stack([node - 1, node]).ravel() % m)
    assigned = chord >= 0
    chord[assigned] = g.index[chord[assigned]]
    return ComplianceReport(chord_index=chord, x_local=out[0],
                            y_local=out[1], margin_lower=out[2],
                            margin_upper=out[3], tol=float(tol))
