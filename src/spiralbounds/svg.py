"""SVG rendering of a bounding region.

All geometry is written in model coordinates inside one group carrying
the only transform in the file (translate + scale with a y flip, since
SVG's y axis points down).  Per chord the file holds three paths: the
chord itself and the sampled lower/upper boundary curves.  Width labels
are annotations and live outside the transformed group, positioned in
pixel space, so the model-coordinate contract stays intact.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import Analysis
from .errors import InputError
from .geometry import height, piece_table
from .regions import Region

_STYLES = {
    "chord": 'fill="none" stroke="#999999" stroke-dasharray="%(dash)s"',
    "lower": 'fill="none" stroke="#1f77b4"',
    "upper": 'fill="none" stroke="#d62728"',
    "tangent": 'stroke="#2ca02c"',
}


def _fmt(v: float) -> str:
    return "%.10g" % v


def _path(points, cls: str, extra: str, width: float) -> str:
    # one format call per path: as "%s %s" % (_fmt(x), _fmt(y)) per point
    d = "M " + " L ".join(["%.10g %.10g"] * len(points)) % tuple(
        points.ravel().tolist())
    return '<path class="%s" d="%s" %s stroke-width="%s"/>' % (
        cls, d, extra, _fmt(width))


def _polylines(region: Region, samples_per_chord: int) -> dict:
    """Per css class, each chord's polyline in the plane.

    The frame mapping is ChordFrame.to_global for all chords at once.
    """
    frames = [ch.frame for ch in region.chords]
    rotations = np.array([f.axes.T for f in frames])
    origin = np.array([f.origin for f in frames])[:, None, :]
    half = np.array([[f.half_length] for f in frames])
    xs = half * np.linspace(-1.0, 1.0, samples_per_chord)
    # both boundaries of every chord in one evaluation: lowers, then uppers
    ys = height(piece_table([ch.lower for ch in region.chords]
                            + [ch.upper for ch in region.chords]),
                np.vstack([xs, xs]))

    def to_global(x, y):
        return np.stack([x, y], axis=-1) @ rotations + origin

    return {
        "chord": to_global(np.hstack([-half, half]), np.zeros((len(half), 2))),
        "lower": to_global(xs, ys[:len(half)]),
        "upper": to_global(xs, ys[len(half):]),
    }


def render_svg(analysis: Analysis, region: Region, path,
               samples_per_chord: int = 64, size: int = 800):
    """Write the region, data points, tangents and width labels to `path`."""
    if samples_per_chord < 2:
        raise InputError("need at least 2 samples per chord")
    curves = _polylines(region, int(samples_per_chord))

    pts = analysis.data.points
    tangents = []
    if not analysis.data.closed:
        c0 = region.chords[0].frame.half_length
        cn = region.chords[-1].frame.half_length
        for p, tau, c in ((pts[0], analysis.data.tau_start, c0),
                          (pts[-1], analysis.data.tau_end, cn)):
            tangents.append(np.array([p, p + c * np.array(
                [math.cos(tau), math.sin(tau)])]))

    parts = ([poly.reshape(-1, 2) for poly in curves.values()] + [pts]
             + tangents)
    lo = np.min([p.min(axis=0) for p in parts], axis=0)
    hi = np.max([p.max(axis=0) for p in parts], axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * size
    scale = (size - 2.0 * pad) / float(max(span))
    width_px = 2.0 * pad + scale * span[0]
    height_px = 2.0 * pad + scale * span[1]
    tx = pad - scale * lo[0]
    ty = pad + scale * hi[1]

    stroke = 1.5 / scale             # ~1.5 px expressed in model units
    node_r = 3.0 / scale
    dash = "%s %s" % (_fmt(4.0 / scale), _fmt(4.0 / scale))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append('<svg xmlns="http://www.w3.org/2000/svg" '
               'width="%s" height="%s" viewBox="0 0 %s %s">'
               % (_fmt(width_px), _fmt(height_px),
                  _fmt(width_px), _fmt(height_px)))
    out.append('<g transform="translate(%s %s) scale(%s %s)">'
               % (_fmt(tx), _fmt(ty), _fmt(scale), _fmt(-scale)))
    extra = {cls: _STYLES[cls] % {"dash": dash} for cls in curves}
    for k in range(len(region.chords)):
        for cls, polys in curves.items():
            out.append(_path(polys[k], cls, extra[cls], stroke))
    for seg in tangents:
        out.append('<line class="tangent" x1="%s" y1="%s" x2="%s" y2="%s" '
                   '%s stroke-width="%s"/>'
                   % (_fmt(seg[0, 0]), _fmt(seg[0, 1]),
                      _fmt(seg[1, 0]), _fmt(seg[1, 1]),
                      _STYLES["tangent"], _fmt(stroke)))
    for p in pts:
        out.append('<circle class="node" cx="%s" cy="%s" r="%s" '
                   'fill="#333333"/>' % (_fmt(p[0]), _fmt(p[1]), _fmt(node_r)))
    out.append('</g>')
    for ch in region.chords:
        px = tx + scale * ch.frame.origin[0]
        py = ty - scale * ch.frame.origin[1]
        out.append('<text class="width-label" x="%s" y="%s" '
                   'font-size="11" fill="#555555">%.4g</text>'
                   % (_fmt(px), _fmt(py - 4.0), ch.width))
    out.append('</svg>')
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
