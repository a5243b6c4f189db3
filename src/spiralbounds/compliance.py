"""Containment test of a candidate curve against a bounding region.

The candidate comes in as a dense polyline.  Every sample is projected
into the local frames of the region's chords; chords whose span contains
the projection are candidates.  The region is a union of per-chord
pieces, so a sample complies when it fits ANY candidate chord: margins
are computed in every candidate and the chord with the most favorable
margin wins.  Samples projecting into no chord's span are counted as
unassigned and do not affect the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySamplesError, InputError
from .geometry import height, piece_table
from .regions import Region

# Relative slack when deciding whether a projection falls on a chord.
SPAN_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ComplianceReport:
    """Per-sample margins against the region, plus the overall verdict.

    chord_index is -1 for unassigned samples; their margins are NaN.
    margin_lower = y - lower(x), margin_upper = upper(x) - y, both in
    model units; a sample passes when both are >= -tol.
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


def check_containment(region: Region, polyline, tol=None) -> ComplianceReport:
    """Test a dense polyline against the region, most favorable chord wins."""
    pts = np.asarray(polyline, dtype=float)
    if pts.size == 0:
        raise EmptySamplesError("no curve samples to test")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise EmptySamplesError("curve samples must form an (n, 2) array")
    bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
    if bad.size:
        raise InputError("sample %d is not finite: %s"
                         % (bad[0], pts[bad[0]].tolist()))
    if tol is None:
        tol = 1e-9 * max(ch.frame.half_length for ch in region.chords)
    n = len(pts)
    best_score = np.full(n, -math.inf)
    chord_index = np.full(n, -1, dtype=int)
    x_local = np.full(n, math.nan)
    y_local = np.full(n, math.nan)
    margin_lower = np.full(n, math.nan)
    margin_upper = np.full(n, math.nan)
    # per chord the pieces of its lower and upper boundary, (8, 2, 1)
    tables = piece_table([curve for ch in region.chords
                          for curve in (ch.lower, ch.upper)])
    tables = tables.reshape(8, -1, 2, 1).swapaxes(0, 1)
    # ChordFrame.to_local of every chord, its parameters gathered once
    origins = np.array([ch.frame.origin for ch in region.chords])
    axes = np.array([ch.frame.axes for ch in region.chords])
    for ch, origin, axis, table in zip(region.chords, origins, axes, tables):
        local = (pts - origin) @ axis
        c = ch.frame.half_length
        idx = np.flatnonzero(np.abs(local[:, 0]) <= c * (1.0 + SPAN_SLACK))
        if not idx.size:
            continue
        x = np.clip(local[idx, 0], -c, c)
        y = local[idx, 1]
        lower, upper = height(table, x)
        m_lo = y - lower
        m_up = upper - y
        score = np.minimum(m_lo, m_up)
        better = score > best_score[idx]
        upd = idx[better]
        best_score[upd] = score[better]
        chord_index[upd] = ch.index
        x_local[upd] = x[better]
        y_local[upd] = y[better]
        margin_lower[upd] = m_lo[better]
        margin_upper[upd] = m_up[better]
    return ComplianceReport(chord_index=chord_index, x_local=x_local,
                            y_local=y_local, margin_lower=margin_lower,
                            margin_upper=margin_upper, tol=float(tol))
