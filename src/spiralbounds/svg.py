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

The file is written through profile_io.write_rows: the lines of BLOCK
chords (or nodes) are filled with one `%` and written at once, so memory
is bounded by the region's columns plus one block, whatever its size.
Everything that can raise is computed before the file is opened, so
nothing is written when the region cannot be drawn.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import Analysis
from .geometry import height
from .profile_io import write_rows
from .regions import Region, RegionChords

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


def _path_rows(g: RegionChords):
    """The values of every chord's chord, lower and upper path, as
    columns, and each chord's template: 4 times the lower boundary's
    straight pieces plus the upper's, a straight first piece counting 2
    and a straight second piece 1."""
    # the joins, (2, m): lower boundary, upper boundary
    fam = g.members
    xj = fam.join[0]
    yj = height(fam, xj)
    ox, oy = g.mid.T
    jx = ox + xj * g.cos - yj * g.sin
    jy = oy + xj * g.sin + yj * g.cos
    with np.errstate(divide="ignore"):
        r1, r2 = 1.0 / np.abs(fam.a), 1.0 / np.abs(fam.b)
    sx, sy, ex, ey = g.ends()
    columns = [sx, sy, ex, ey]
    for s in (0, 1):
        columns += [sx, sy, r1[s], r1[s], fam.a[s] > 0.0, jx[s], jy[s],
                    r2[s], r2[s], fam.b[s] > 0.0, ex, ey]
    straight = 2 * ~np.isfinite(r1) + ~np.isfinite(r2)
    return columns, (4 * straight[0] + straight[1]).tolist()


def _path_templates(style: dict, stroke: str) -> list:
    """A chord's three path lines, indexed like _path_rows' kind."""
    def line(cls, d):
        return ('<path class="%s" d="M %%.10g %%.10g %s" %s '
                'stroke-width="%s"/>\n' % (cls, d, style[cls], stroke))

    lower, upper = ([line(cls, _PIECES[a] + " " + _PIECES[b])
                     for a in (0, 1) for b in (0, 1)]
                    for cls in ("lower", "upper"))
    chord = line("chord", "L %.10g %.10g")
    return [chord + lo + up for lo in lower for up in upper]


def render_svg(analysis: Analysis, region: Region, path):
    """Write the region, data points, tangents and width labels to `path`."""
    g = region.chords
    pts = analysis.data.points
    tangents = [] if analysis.data.closed else [
        np.array([p, p + c * np.array([math.cos(tau), math.sin(tau)])])
        for p, tau, c in ((pts[0], analysis.data.tau_start, g.c[0]),
                          (pts[-1], analysis.data.tau_end, g.c[-1]))]

    # half extents of each chord's box, which holds its nodes
    h = g.lens_height()
    bx = g.c * np.abs(g.cos) + h * np.abs(g.sin)
    by = g.c * np.abs(g.sin) + h * np.abs(g.cos)
    box = np.column_stack([bx, by])
    parts = [g.mid - box, g.mid + box] + tangents
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
    style = {cls: _STYLES[cls] % {"dash": dash} for cls in _STYLES}
    paths, kind = _path_rows(g)
    labels = [tx + scale * g.mid[:, 0], ty - scale * g.mid[:, 1] - 4.0,
              g.width]

    with open(path, "w") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                 '<svg xmlns="http://www.w3.org/2000/svg" '
                 'width="%s" height="%s" viewBox="0 0 %s %s">\n'
                 '<g transform="translate(%s %s) scale(%s %s)">\n'
                 % (_fmt(width_px), _fmt(height_px), _fmt(width_px),
                    _fmt(height_px), _fmt(tx), _fmt(ty), _fmt(scale),
                    _fmt(-scale)))
        write_rows(fh, paths, _path_templates(style, stroke), kind)
        write_rows(fh, np.reshape(tangents, (-1, 4)).T, [
            '<line class="tangent" x1="%%.10g" y1="%%.10g" x2="%%.10g" '
            'y2="%%.10g" %s stroke-width="%s"/>\n'
            % (style["tangent"], stroke)])
        write_rows(fh, pts.T, ['<circle class="node" cx="%%.10g" '
                               'cy="%%.10g" r="%s" fill="#333333"/>\n'
                               % _fmt(3.0 / scale)])
        fh.write('</g>\n')
        write_rows(fh, labels, ['<text class="width-label" x="%.10g" '
                                'y="%.10g" font-size="11" fill="#555555">'
                                '%.4g</text>\n'])
        fh.write('</svg>\n')
