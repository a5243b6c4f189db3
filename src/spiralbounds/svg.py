"""SVG rendering of a bounding region.

All geometry is written in model coordinates inside one group carrying
the only transform in the file (translate + scale with a y flip, since
SVG's y axis points down).  Per chord the file holds three paths: the
chord and its lower and upper boundary.  A boundary is drawn exactly as
its two circle pieces, node to join to node: `A r r 0 0 f x y` for
curvature k, with r = 1/|k| and f = (k > 0) (a left turn sweeps a
positive angle in model coordinates), or `L x y` where k = 0.  Each
chord's box [-c, c] x [-H, H], H its lens height, sizes the picture.
Width labels live outside the group, positioned in pixel space.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import Analysis
from .geometry import height
from .regions import ChordColumns, Region

_STYLES = {
    "chord": 'fill="none" stroke="#999999" stroke-dasharray="%(dash)s"',
    "lower": 'fill="none" stroke="#1f77b4"',
    "upper": 'fill="none" stroke="#d62728"',
    "tangent": 'stroke="#2ca02c"',
}
# One piece from the values r, r, f, x, y; a segment prints no r and f.
_PIECES = ("A %.10g %.10g 0 0 %d %.10g %.10g", "L%.0s%.0s%.0s %.10g %.10g")
SIZE = 800      # the picture's longer side, in pixels


def _fmt(v: float) -> str:
    return "%.10g" % v


def _rows(templates, values) -> str:
    """Lines of templates, filled in turn with the values row by row."""
    return ("\n".join(np.ravel(templates))
            % tuple(np.ravel(values).tolist()))


def _paths(g: ChordColumns, style: dict, stroke: str) -> str:
    """The chord, lower and upper path of every chord, one line each."""
    sx, sy = g.ox - g.c * g.cos, g.oy - g.c * g.sin
    ex, ey = g.ox + g.c * g.cos, g.oy + g.c * g.sin
    # the joins, (m, 2) per coordinate: lower boundary, upper boundary
    cos, sin = g.cos[:, None], g.sin[:, None]
    xj = g.table[1]
    yj = height(g.table, xj)
    jx = g.ox[:, None] + xj * cos - yj * sin
    jy = g.oy[:, None] + xj * sin + yj * cos
    k1, k2 = g.table[4], g.table[7]
    with np.errstate(divide="ignore"):
        r1, r2 = 1.0 / np.abs(k1), 1.0 / np.abs(k2)
    columns = [sx, sy, ex, ey]
    for s in (0, 1):
        columns += [sx, sy, r1[:, s], r1[:, s], k1[:, s] > 0.0, jx[:, s],
                    jy[:, s], r2[:, s], r2[:, s], k2[:, s] > 0.0, ex, ey]

    def line(cls, d):
        return ('<path class="%s" d="M %%.10g %%.10g %s" %s '
                'stroke-width="%s"/>' % (cls, d, style[cls], stroke))

    # per side the four templates, indexed by which pieces are straight
    straight = 2 * ~np.isfinite(r1) + ~np.isfinite(r2)
    sides = [np.array([line(cls, _PIECES[a] + " " + _PIECES[b])
                       for a in (0, 1) for b in (0, 1)])[straight[:, s]]
             for s, cls in enumerate(("lower", "upper"))]
    chord = np.full(len(sx), line("chord", "L %.10g %.10g"))
    return _rows(np.column_stack([chord] + sides), np.column_stack(columns))


def render_svg(analysis: Analysis, region: Region, path):
    """Write the region, data points, tangents and width labels to `path`."""
    g = ChordColumns(region)
    pts = analysis.data.points
    tangents = []
    if not analysis.data.closed:
        for p, tau, c in ((pts[0], analysis.data.tau_start, g.c[0]),
                          (pts[-1], analysis.data.tau_end, g.c[-1])):
            tangents.append(np.array([p, p + c * np.array(
                [math.cos(tau), math.sin(tau)])]))

    # half extents of each chord's box, which holds its nodes
    h = g.lens_height()
    ex = g.c * np.abs(g.cos) + h * np.abs(g.sin)
    ey = g.c * np.abs(g.sin) + h * np.abs(g.cos)
    parts = [np.column_stack([g.ox - ex, g.oy - ey]),
             np.column_stack([g.ox + ex, g.oy + ey])] + tangents
    lo = np.min([p.min(axis=0) for p in parts], axis=0)
    hi = np.max([p.max(axis=0) for p in parts], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * SIZE
    scale = (SIZE - 2.0 * pad) / float(max(span))
    width_px = 2.0 * pad + scale * span[0]
    height_px = 2.0 * pad + scale * span[1]
    tx = pad - scale * lo[0]
    ty = pad + scale * hi[1]

    stroke = _fmt(1.5 / scale)       # ~1.5 px expressed in model units
    dash = "%s %s" % (_fmt(4.0 / scale), _fmt(4.0 / scale))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append('<svg xmlns="http://www.w3.org/2000/svg" '
               'width="%s" height="%s" viewBox="0 0 %s %s">'
               % (_fmt(width_px), _fmt(height_px),
                  _fmt(width_px), _fmt(height_px)))
    out.append('<g transform="translate(%s %s) scale(%s %s)">'
               % (_fmt(tx), _fmt(ty), _fmt(scale), _fmt(-scale)))
    style = {cls: _STYLES[cls] % {"dash": dash} for cls in _STYLES}
    out.append(_paths(g, style, stroke))
    for seg in tangents:
        out.append('<line class="tangent" x1="%s" y1="%s" x2="%s" y2="%s" '
                   '%s stroke-width="%s"/>'
                   % (_fmt(seg[0, 0]), _fmt(seg[0, 1]),
                      _fmt(seg[1, 0]), _fmt(seg[1, 1]),
                      style["tangent"], stroke))
    out.append(_rows(['<circle class="node" cx="%%.10g" cy="%%.10g" r="%s" '
                      'fill="#333333"/>' % _fmt(3.0 / scale)] * len(pts), pts))
    out.append('</g>')
    out.append(_rows(['<text class="width-label" x="%.10g" y="%.10g" '
                      'font-size="11" fill="#555555">%.4g</text>'] * len(g.c),
                     np.column_stack([tx + scale * g.ox,
                                      ty - scale * g.oy - 4.0,
                                      [ch.width for ch in region.chords]])))
    out.append('</svg>')
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
