"""Bounding regions for planar interpolation data and their fairness width.

Three constructions, all per chord and all expressed in the chord's local
frame as graphs y(x) over [-c, c]:

  simple    for spiral (monotone discrete curvature) data: the lens
            between the two neighbouring three-point circles,
            A(x; c, -eta_j) and A(x; c, xi_j);
  vertex    for piecewise-spiral data: same lens arcs away from the
            curvature extrema, but on a chord flanking a vertex the arc
            adjacent to the vertex is replaced by the tangent-matched
            continuation of the neighbouring chord's arc;
  narrowed  for spiral data only: the lens arcs are replaced by bounding
            biarcs derived from per-node tangent ranges and curvature
            ranges, which turns the boundary into a pair of smooth curves
            meeting at the nodes.

Lower/upper assignment never assumes a curvature sign: candidates are
ordered by their height at mid-chord, which settles it because the arc
family A(x; c, phi) is pointwise monotone in phi.  The narrowed tables
are derived for increasing curvature; decreasing data is handled by
mirroring across the chords (negating all angle data); geometry.family
is odd in alpha and beta, so the boundaries are the members for the
negated angles, lower and upper swapped.  Reversing the point order
would not do: reversal negates the curvature sequence AND walks it
backwards, so it preserves the direction of monotonicity.

Every grade's boundaries are biarc-family members: a lens arc
A(x; c, phi) is the member with omega = 0 and p = inf,
geometry.arcs(c, phi).  Region.chords keeps them and the chords' other
arrays as one record, read by ChordColumns for check, SVG and report; its
objects are made with geometry.instances, the one bulk constructor, when
first read, and objects given to a Region are read back with members().

A narrowed lower boundary is the member with the start node's floor
curvature, the upper one the member with the end node's ceiling.  Where
no member has it (p is NaN) the boundary is the lens arc, p = 0 below
and p = inf above, unless a user override caused it: an OverrideError.

Widths: every grade's width is the exact largest gap between the two
boundaries of a chord.  Along a circle piece the sine of the tangent
angle is linear in x (see geometry), so the gap of a pair of pieces is
stationary at one root of sin(theta_upper) = sin(theta_lower), and the
largest gap lies at a join or at such a root.  For the simple and vertex
regions both boundaries are arcs, that root is mid-chord, where
A(0; c, phi) = c tan(phi/2), and the width is the closed form
c|tan(phi_hi/2) - tan(phi_lo/2)| (for the simple lens
c|tan(xi/2) + tan(eta/2)|).  The same root bounds a lens arc's distance
from the chord, so a chord of two arcs has the lens height
max(-A(0; c, phi_lo), A(0; c, phi_hi), 0) (ChordColumns.lens_height);
a chord with a biarc takes the gap maxima against the chord.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .analysis import Analysis, is_finite_real, padded
from .errors import ClassificationError, DomainError, OverrideError
from .geometry import (ANGLE_SLACK, Arc, Biarc, ChordFrame, arcs, curves,
                       end_parameter, family, family_pieces, gap_maxima,
                       height, instances, member_fields, members,
                       start_parameter)


@dataclass(frozen=True, slots=True)
class RegionChord:
    """One chord of a bounding region, curves in the chord's local frame."""

    index: int
    frame: ChordFrame
    lower: Arc | Biarc
    upper: Arc | Biarc
    width: float
    width_estimate: float  # small-angle estimate c^2 |q_j - q_{j+1}| / 2


@dataclass(eq=False)
class RegionChords(Sequence):
    """A region's chords: per chord its 1-based index, c, direction mu,
    midpoint (m, 2), width and width estimate, and both boundaries' family()
    members with their arc mask, lower side first.  Its RegionChord items
    are made from these arrays when first indexed or iterated, then kept."""

    indices: np.ndarray   # not `index`, Sequence's method
    c: np.ndarray
    mu: np.ndarray
    mid: np.ndarray
    width: np.ndarray
    estimate: np.ndarray
    members: Biarc
    arc: np.ndarray

    @functools.cached_property
    def _items(self):
        # instances() checks nothing: _require_graphs and chord_vectors did
        frames = instances(ChordFrame, list(zip(*self.mid.T.tolist())),
                           self.mu.tolist(), self.c.tolist())
        both = curves(self.members, self.arc)
        return instances(RegionChord, self.indices.tolist(), frames,
                         both[:len(frames)], both[len(frames):],
                         self.width.tolist(), self.estimate.tolist())

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, k):
        return self._items[k]

    def __iter__(self):
        return iter(self._items)


@dataclass(frozen=True, eq=False)
class Region:
    grade: str  # "simple" | "vertex" | "narrowed"
    closed: bool
    chords: RegionChords
    width: float

    def __post_init__(self):   # RegionChord objects: read their record
        if not isinstance(self.chords, RegionChords):
            items = list(self.chords)
            index, width, estimate, c, mu, *mid = np.array([
                (ch.index, ch.width, ch.width_estimate, ch.frame.half_length,
                 ch.frame.direction, *ch.frame.origin) for ch in items]).T
            sides = [ch.lower for ch in items] + [ch.upper for ch in items]
            chords = RegionChords(index.astype(int), c, mu, np.transpose(mid),
                                  width, estimate, *members(sides))
            chords._items = items
            object.__setattr__(self, "chords", chords)


class ChordColumns:
    """A region's chords as columns.

    Per chord: its 1-based index, width, width estimate, c, direction,
    midpoint (ox, oy), the direction's cos and sin (the rotation of
    ChordFrame.axes), start and end nodes (sx, sy) and (ex, ey).  Per
    boundary, as [side][chord], lower side first: `arc` marks the arcs,
    `fields` holds the Biarc fields alpha, beta, a, b, p, join x and y
    (an arc's phi, then NaN), and `table` the family_pieces() as
    (8, m, 2).  `closed` says whether the last chord ends at the first
    one's start.  All are read from Region.chords anew for each
    construction, `fields`, which only the report reads, when first read.
    """

    def __init__(self, region: Region):
        chords = region.chords
        self.closed, self.index = region.closed, chords.indices
        self.width, self.estimate = chords.width, chords.estimate
        self.c, self.direction = chords.c, chords.mu
        self.ox, self.oy = chords.mid.T
        self.arc, self._record = chords.arc.reshape(2, -1), chords.members
        self.table = np.moveaxis(
            np.reshape(family_pieces(self._record), (8, 2, -1)), 1, 2)
        self.cos, self.sin = np.cos(self.direction), np.sin(self.direction)
        dx, dy = self.c * self.cos, self.c * self.sin
        self.sx, self.sy = self.ox - dx, self.oy - dy
        self.ex, self.ey = self.ox + dx, self.oy + dy

    @functools.cached_property
    def fields(self):
        """The Biarc fields per side, (7, 2, m): an arc's phi, then NaN."""
        fields = np.reshape(member_fields(self._record)[1:], (7, 2, -1))
        fields[1:, self.arc] = math.nan
        return fields

    def lens_height(self):
        """Largest |y| of each chord's lens: the larger gap between a
        boundary and the chord.  An arc's |y| peaks at mid-chord, so a
        chord of two arcs takes its lower arc's depth or its upper arc's
        height there, whichever is larger, and at least 0.  A chord with a
        biarc takes gap_maxima against the chord, a straight piece
        (sin 0, cos 1, k 0)."""
        mid = height(self.table, 0.0)
        lens = np.maximum(np.maximum(-mid[:, 0], mid[:, 1]), 0.0)
        rows = np.flatnonzero(~self.arc.all(axis=0))
        if rows.size:
            lower, upper = self.table[:, rows, :1], self.table[:, rows, 1:]
            chord = np.zeros_like(lower)
            chord[0], chord[3], chord[6] = lower[0], 1.0, 1.0
            lens[rows] = np.maximum(gap_maxima(chord, upper),
                                    gap_maxima(lower, chord))
        return lens


@dataclass(frozen=True, eq=False)
class CurvatureRanges:
    """Extended-real curvature bounds per node, math.inf used as a tag only.

    lower/upper are indexed like the node list; the *_overridden flags
    record which entries a user override actually tightened.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_overridden: np.ndarray
    upper_overridden: np.ndarray


@dataclass(frozen=True, eq=False)
class NarrowedAngles:
    """Per-chord tangent-angle ranges of the narrowed construction.

    Arrays follow the chord list.  For decreasing data the table is
    computed on the mirrored (increasing) configuration; `mirrored` says
    so, and the entries then refer to mirrored angles.
    """

    alpha_lo: np.ndarray   # lower end of the start-angle range
    alpha_hi: np.ndarray
    beta_lo: np.ndarray    # lower end of the end-angle range
    beta_hi: np.ndarray
    mirrored: bool


def _require_admissible(analysis: Analysis):
    cls = analysis.classification
    if cls.kind == "inadmissible":
        v = cls.violations[0]
        raise ClassificationError(
            "data violates the half-turn admissibility condition at node %d "
            "(offending sum %g); no bounding region exists" % (v.node, v.value))


def _require_spiral(analysis: Analysis, grade: str):
    _require_admissible(analysis)
    if analysis.classification.kind != "spiral":
        raise ClassificationError(
            "the %s region needs monotone discrete curvature, but the data "
            "classifies as %s" % (grade, analysis.classification.kind))


def _require_graphs(*angles):
    """Name the first chord with a boundary tangent angle past pi/2."""
    steep = np.argwhere(np.abs(np.stack(angles, axis=1))
                        > 0.5 * math.pi + ANGLE_SLACK)
    if steep.size:
        k, j = steep[0]
        raise DomainError("chord %d: boundary tangent angle %g exceeds pi/2 "
                          "(data too coarse)" % (k + 1, angles[j][k]))


def _finish(grade: str, analysis: Analysis, widths, members, arc) -> Region:
    """The region of the boundaries' family() members and arc mask, (2, m)."""
    chords = analysis.chords
    m = len(chords)
    q = analysis.nodes.q
    # small-angle width estimate c^2 |q_start - q_end| / 2
    estimates = 0.5 * chords.c ** 2 * np.abs(
        q[:m] - padded(q, chords.closed)[2:m + 2])
    return Region(grade, chords.closed, RegionChords(
        np.arange(1, m + 1), chords.c, chords.mu, chords.mid, widths,
        estimates, members, arc), float(np.max(widths)))


def _lens(grade: str, analysis: Analysis, phi_one, phi_two) -> Region:
    """Per chord the lens between the arcs A(x; c, phi_one), A(x; c, phi_two).

    Ordering by phi orders the arcs pointwise; their gap peaks at
    mid-chord, which gives the width in closed form.
    """
    phi = np.stack([np.minimum(phi_one, phi_two),    # lower, upper
                    np.maximum(phi_one, phi_two)])
    c = analysis.chords.c
    widths = c * np.abs(np.tan(0.5 * phi[1]) - np.tan(0.5 * phi[0]))
    _require_graphs(*phi)   # only the vertex grade's substitutes can fail
    return _finish(grade, analysis, widths, arcs(c, phi),
                   np.ones(phi.shape, bool))


def simple_region(analysis: Analysis) -> Region:
    """Per-chord lens between the two neighbouring three-point circles."""
    _require_spiral(analysis, "simple")
    return _lens("simple", analysis, -analysis.angles.eta, analysis.angles.xi)


def _neighbours(analysis: Analysis):
    """Per chord: xi of the chord before it, eta of the chord after it and
    the turning angle at its end node (NaN past the open ends)."""
    closed = analysis.data.closed
    m = len(analysis.chords)
    return (padded(analysis.angles.xi, closed, (math.nan, math.nan))[:m],
            padded(analysis.angles.eta, closed, (math.nan, math.nan))[2:],
            padded(analysis.nodes.rho, closed)[2:m + 2])


def vertex_region(analysis: Analysis) -> Region:
    """Bounding region for data with distinguished curvature extrema.

    Chords not touching a vertex keep the simple lens.  On a chord whose
    start node is a vertex the upper-candidate three-point arc does not
    exist (the vertex breaks monotonicity there); it is replaced by the
    arc continuing the previous chord's boundary tangent.  Symmetrically
    at an end-node vertex.  Data without vertices reproduces the simple
    region.

    The region bounds the piecewise spirals whose curvature extrema lie
    at the data's discrete vertex nodes.  A curve whose vertex is one
    node off can leave it: of 130 tent profiles (curvature linear up to
    a peak node, then down) whose discrete vertex missed the peak, 34
    left the region by up to 2.3e-3 of the largest half-chord.
    """
    _require_admissible(analysis)
    closed = analysis.data.closed
    m = len(analysis.chords)
    xi, eta = analysis.angles.xi, analysis.angles.eta
    rho = analysis.nodes.rho
    is_vertex = np.zeros(len(analysis.nodes), dtype=bool)
    is_vertex[[v - 1 for v, _ in analysis.classification.vertices]] = True
    at_start = is_vertex[:m]
    at_end = padded(is_vertex, closed, (False, False))[2:m + 2]
    both = np.nonzero(at_start & at_end)[0]
    if both.size:
        raise ClassificationError(
            "vertices at both ends of chord %d" % (both[0] + 1))
    xi_prev, eta_next, rho_end = _neighbours(analysis)
    return _lens("vertex", analysis,
                 np.where(at_end, eta_next - rho_end, -eta),
                 np.where(at_start, -xi_prev - rho[:m], xi))


def checked_overrides(overrides, n_nodes=None) -> dict:
    """Validate curvature overrides: the one rule for every entry point.

    Takes {node: {'a': lo, 'b': hi}} or {node: (lo, hi)}, either bound
    None or left out, and returns {node: {'a': lo, 'b': hi}} with float
    bounds, leaving out nodes without any.  A node is named by an int
    (not a bool) or a str of ASCII digits.  Raises OverrideError, naming
    the key or node, for any other key, two keys naming one node (3 and
    "03"), a malformed entry, a bound that is not a finite real number,
    an empty range a > b and, given n_nodes, a node outside 1..n_nodes.
    """
    out = {}
    seen = set()
    for key, spec in (overrides or {}).items():
        if not (isinstance(key, str) and key.isascii() and key.isdigit()
                or isinstance(key, int) and not isinstance(key, bool)):
            raise OverrideError("override key %r is not a node index"
                                % (key,))
        node = int(key)
        if node in seen:
            raise OverrideError("node %d has more than one override" % node)
        seen.add(node)
        if n_nodes is not None and not 1 <= node <= n_nodes:
            raise OverrideError(
                "curvature override for node %d, but nodes run 1..%d"
                % (node, n_nodes))
        if isinstance(spec, dict) and not set(spec) - {"a", "b"}:
            spec = (spec.get("a"), spec.get("b"))
        elif not (isinstance(spec, tuple) and len(spec) == 2):
            raise OverrideError("override for node %d must be {'a': …, 'b': …}"
                                " or (a, b), got %r" % (node, spec))
        entry = {}
        for side, value in zip("ab", spec):
            if value is None:
                continue
            if not is_finite_real(value):
                raise OverrideError("override %s for node %d must be a finite "
                                    "number, got %r" % (side, node, value))
            entry[side] = float(value)
        if entry.get("a", -math.inf) > entry.get("b", math.inf):
            raise OverrideError(
                "curvature override for node %d is empty: a=%g > b=%g"
                % (node, entry["a"], entry["b"]))
        if entry:
            out[node] = entry
    return out


def narrowed_angle_ranges(analysis: Analysis) -> NarrowedAngles:
    """Tangent-angle ranges per chord, in increasing-curvature orientation."""
    _require_spiral(analysis, "narrowed")
    mirrored = analysis.classification.direction == "decreasing"
    sign = -1.0 if mirrored else 1.0
    xi = sign * analysis.angles.xi
    eta = sign * analysis.angles.eta
    rho = sign * analysis.nodes.rho
    xi_prev, eta_next, rho_end = (sign * v for v in _neighbours(analysis))
    alpha_lo = np.maximum(-rho[:len(xi)] - xi_prev, -eta)
    beta_lo = np.maximum(-xi, rho_end - eta_next)
    if not analysis.data.closed:
        alpha_lo[0] = xi[0]
        beta_lo[-1] = eta[-1]
    return NarrowedAngles(alpha_lo=alpha_lo, alpha_hi=xi, beta_lo=beta_lo,
                          beta_hi=eta, mirrored=mirrored)


def _node_bounds(analysis: Analysis, table: NarrowedAngles, overrides):
    """Curvature bounds per node in the table's (increasing) orientation."""
    c = analysis.chords.c
    closed = analysis.data.closed
    n_nodes = len(analysis.nodes)
    # A node's floor comes from the chord before it, its ceiling from the
    # chord after it; the open ends are unbounded on their outer side.
    lower = padded(np.sin(table.beta_lo) / c, closed,
                   (-math.inf, math.inf))[:n_nodes]
    upper = padded(-np.sin(table.alpha_lo) / c, closed,
                   (-math.inf, math.inf))[1:n_nodes + 1]

    lo_over = np.zeros(n_nodes, dtype=bool)
    hi_over = np.zeros(n_nodes, dtype=bool)
    for idx, spec in checked_overrides(overrides, n_nodes).items():
        lo, hi = spec.get("a", -math.inf), spec.get("b", math.inf)
        if table.mirrored:   # negated curvatures: floor and ceiling swap
            lo, hi = -hi, -lo
        i = idx - 1
        lo_over[i], hi_over[i] = lo > lower[i], hi < upper[i]
        lower[i], upper[i] = max(lower[i], lo), min(upper[i], hi)
        if lower[i] > upper[i]:
            raise OverrideError(
                "curvature override at node %d contradicts the computed "
                "range [%g, %g]" % (idx, lower[i], upper[i]))
    return CurvatureRanges(lower=lower, upper=upper,
                           lower_overridden=lo_over, upper_overridden=hi_over)


def curvature_ranges(analysis: Analysis, overrides=None) -> CurvatureRanges:
    """Per-node curvature bounds, reported in the data's own orientation."""
    table = narrowed_angle_ranges(analysis)
    ranges = _node_bounds(analysis, table, overrides)
    if not table.mirrored:
        return ranges
    return CurvatureRanges(lower=-ranges.upper, upper=-ranges.lower,
                           lower_overridden=ranges.upper_overridden,
                           upper_overridden=ranges.lower_overridden)


def _boundaries(c, lower, upper, mirrored):
    """The family() members of both boundaries of every chord and their
    arc mask, shaped (2, m), lower then upper.  `lower` holds alpha,
    beta, the start curvature and its override flag per chord
    (increasing orientation), `upper` the end curvature."""
    _require_graphs(*lower[:2], *upper[:2])
    p_lo, p_up = start_parameter(c, *lower[:3]), end_parameter(c, *upper[:3])
    bad_lo = np.isnan(p_lo) & lower[3]
    tainted = np.flatnonzero(bad_lo | np.isnan(p_up) & upper[3])
    if tainted.size:
        k = tainted[0]
        raise OverrideError(
            "chord %d: curvature override makes the %s boundary infeasible"
            % (k + 1, "lower" if bad_lo[k] else "upper"))
    sides = [(*lower[:2], np.where(np.isnan(p_lo), 0.0, p_lo)),
             (*upper[:2], np.where(np.isnan(p_up), math.inf, p_up))]
    if mirrored:   # family() is odd in alpha and beta: the sides swap
        sides = [(-al, -be, p) for al, be, p in sides[::-1]]
    return family(c, *(np.stack(v) for v in zip(*sides)))


def narrowed_region(analysis: Analysis, overrides=None) -> Region:
    """Biarc-bounded region for spiral data, nested inside the simple one."""
    table = narrowed_angle_ranges(analysis)
    ranges = _node_bounds(analysis, table, overrides)
    closed = analysis.data.closed
    m = len(analysis.chords)
    fam = _boundaries(
        analysis.chords.c,
        (table.alpha_lo, table.beta_hi, ranges.lower[:m],
         ranges.lower_overridden[:m]),
        (table.alpha_hi, table.beta_lo, padded(ranges.upper, closed)[2:m + 2],
         padded(ranges.upper_overridden, closed, (False, False))[2:m + 2]),
        table.mirrored)
    # one row per chord, a trailing axis for gap_maxima's candidates
    lower, upper = np.swapaxes(family_pieces(fam[0]), 0, 1)[..., None]
    return _finish("narrowed", analysis, gap_maxima(lower, upper), *fam)


def build_region(analysis: Analysis, grade: str = "auto",
                 overrides=None) -> Region:
    """Construct a region of the requested grade ('auto' picks by data).

    Curvature overrides are checked for every grade, node range included,
    but only the narrowed construction uses them.
    """
    _require_admissible(analysis)
    checked_overrides(overrides, len(analysis.nodes))
    if grade == "auto":
        grade = ("narrowed" if analysis.classification.kind == "spiral"
                 else "vertex")
    if grade == "simple":
        return simple_region(analysis)
    if grade == "vertex":
        return vertex_region(analysis)
    if grade == "narrowed":
        return narrowed_region(analysis, overrides)
    raise ValueError("unknown region grade %r" % (grade,))

