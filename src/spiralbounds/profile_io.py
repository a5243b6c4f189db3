"""File formats: profile files, sample files, reports and plot data.

A profile file is JSON:

    {
      "version": 1,
      "points": [[x, y], ...],
      "closed": false,
      "tangents": {"start": 0.0, "end": [0.5, 0.866]},
      "curvature_overrides": {"1": {"a": 0.0}}
    }

Tangents are required for open data and forbidden for closed data; each
one is either an angle in radians (degrees with the CLI flag) or a
non-normalized direction vector.  Curvature overrides tighten the
per-node curvature bounds of the narrowed construction; keys are 1-based
node indices.  They are checked for every grade, their node range when
the region is built, but only the narrowed grade uses them.

Sample files are either a JSON array of [x, y] pairs or plain text with
one "x y" pair per line; '#' starts a comment.  A coordinate in JSON
must be a number: a boolean, a string or null is a ParseError.

Reports are JSON dictionaries with str keys, built here so they
round-trip losslessly; report_json takes nothing else.  It writes a
report byte for byte as json.dumps(report, indent=2) writes it with
each Rows made a list.  json's indent path costs a generator frame per
value, so the long lists (nodes, chords, violations) are Rows: row
dicts kept as columns, written BLOCK rows at a time without making the
dicts.  Each kind of row is a % template, laid out once by json.dumps
of a row of placeholders; fill() puts a block's values, each column
formatted by one map(float.__repr__), into the templates with one %.
The arc mask, not the grade, picks the chords' layout: short "lens"
rows where every boundary is an arc, else a "chords" kind per row.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .analysis import Analysis, SplineInput, is_finite_real
from .compliance import ComplianceReport
from .errors import EmptySamplesError, InputError, OverrideError, ParseError
from .regions import ChordColumns, Region, checked_overrides

PROFILE_VERSION = 1
BLOCK = 1024    # rows formatted at once, in reports and SVG files


def _angle(value, degrees: bool, what: str) -> float:
    if is_finite_real(value):
        return math.radians(value) if degrees else float(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_finite_real, value))):
        if value[0] == 0 and value[1] == 0:
            raise ParseError("%s tangent vector is zero" % what)
        return math.atan2(float(value[1]), float(value[0]))
    raise ParseError("%s tangent must be a finite angle or an [x, y] "
                     "direction of finite numbers, got %r" % (what, value))


def parse_profile(obj, degrees: bool = False):
    """Validate a decoded profile dict -> (SplineInput, overrides)."""
    if not isinstance(obj, dict):
        raise ParseError("profile must be a JSON object")
    if not (is_finite_real(obj.get("version"))
            and obj["version"] == PROFILE_VERSION):
        raise ParseError("unsupported profile version %r (expected %d)"
                         % (obj.get("version"), PROFILE_VERSION))
    unknown = set(obj) - {"version", "points", "closed", "tangents",
                          "curvature_overrides"}
    if unknown:
        raise ParseError("unknown profile keys: %s" % sorted(unknown))

    points = obj.get("points")
    if not (isinstance(points, list)
            and all(isinstance(p, (list, tuple)) for p in points)):
        raise ParseError("'points' must list [x, y] pairs")
    _require_numbers(points, lambda i: "point %d" % (i + 1))

    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError("'closed' must be a boolean")
    tangents = obj.get("tangents")
    taus = (None, None)
    if tangents is not None:
        if not isinstance(tangents, dict) or set(tangents) != {"start", "end"}:
            raise ParseError("'tangents' must be {'start': …, 'end': …}")
        taus = [_angle(tangents[k], degrees, k) for k in ("start", "end")]

    raw_over = obj.get("curvature_overrides") or {}
    if not isinstance(raw_over, dict):
        raise ParseError("'curvature_overrides' must map node index to "
                         "{'a': …, 'b': …}")
    try:
        overrides = checked_overrides(raw_over)
    except OverrideError as exc:
        raise ParseError(str(exc)) from exc

    try:
        data = SplineInput(points, *taus, closed=closed)
    except InputError as exc:   # the data's shape: SplineInput's rules
        raise ParseError(str(exc)) from exc
    return data, overrides


def _require_numbers(rows, name):
    """Raise ParseError unless every coordinate of the [x, y] rows is a
    number by is_finite_real's rule.

    numpy would read true as 1.0, "0.1" as 0.1 and null as NaN; name(i)
    names row i in the error.  Rows of plain ints and floats skip this
    test: their NaNs and out-of-range integers fail the float conversion
    or finite test each caller runs next.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int, float}:
        return
    for i, row in enumerate(rows):
        for value in row:
            if not is_finite_real(value):
                raise ParseError("%s has a coordinate that is not a finite "
                                 "number: %r" % (name(i), value))


def _unique_keys(pairs):
    """object_pairs_hook for profiles: json.load would keep the last of
    two equal keys, such as a node named twice in curvature_overrides."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError("profile names the key %r more than once"
                         % next(k for k in keys if keys.count(k) > 1))
    return obj


def load_profile(path, degrees: bool = False):
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError("cannot read profile %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("profile %s is not valid JSON: %s"
                         % (path, exc)) from exc
    return parse_profile(obj, degrees)


def load_samples(path) -> np.ndarray:
    """Read curve samples: JSON array of pairs, or two-column text."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read samples %s: %s" % (path, exc)) from exc
    stripped = text.lstrip()
    if not stripped:
        raise EmptySamplesError("sample file %s is empty" % path)
    if stripped[0] == "[":
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError("sample file %s is not valid JSON: %s"
                             % (path, exc)) from exc
        if not all(isinstance(row, list) and len(row) == 2 for row in rows):
            raise ParseError("sample file %s must hold [x, y] pairs" % path)
        _require_numbers(rows, lambda i: "sample file %s: sample %d"
                         % (path, i))
    else:
        rows = []
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ParseError("sample file %s line %d: expected 'x y'"
                                 % (path, ln))
            rows.append(parts)
    try:
        pts = np.asarray(rows, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise ParseError("sample file %s has non-numeric entries: %s"
                         % (path, exc)) from exc
    if pts.size == 0:
        raise EmptySamplesError("sample file %s holds no samples" % path)
    return pts


def fill(templates, values, kind) -> str:
    """Row i filled into templates[kind[i]], taking its values in turn
    from the rows' values in row order, all rows by one %."""
    return "".join([templates[k] for k in kind]) % tuple(values)


def columns_text(rows) -> str:
    """Rows of numbers (samples, plot data) as text, to full precision.

    One "%.17g" per value, space-separated, one line per row, as
    np.savetxt(fmt="%.17g") writes them.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return fill([" ".join(["%.17g"] * arr.shape[1]) + "\n"],
                arr.ravel().tolist(), [0] * len(arr))


def save_columns(path, rows):
    """Write columns_text(rows) to the file at path."""
    with open(path, "w") as fh:
        fh.write(columns_text(rows))


class Rows(Sequence):
    """One report list kept as int and float columns: row i holds a value
    of each, laid out as _LAYOUTS[layout][kind[i]] (kind 0 by default)."""

    def __init__(self, layout, columns, kind=None):
        self.layout, self.columns = layout, columns
        self.kind = np.zeros(len(columns[0]), int) if kind is None else kind

    def __len__(self):
        return len(self.kind)

    def __getitem__(self, i):
        values = (json.dumps(col[i].item()) for col in self.columns)
        return json.loads(_templates(self.layout, 0)[self.kind[i]][1:]
                          % tuple(values))

    def json(self, depth):
        """The text of the rows' list, depth deep, BLOCK rows at a time."""
        if not len(self):
            return "[]"
        templates, parts = _templates(self.layout, depth + 1), []
        for lo in range(0, len(self), BLOCK):
            text = {id(col): col[lo:lo + BLOCK] for col in self.columns}
            for key, col in text.items():   # each column once
                text[key] = (_floats(col.tolist()) if col.dtype.kind == "f"
                             else list(map(int.__repr__, col.tolist())))
            parts.append(fill(templates, chain.from_iterable(zip(*[
                text[id(c)] for c in self.columns])),
                self.kind[lo:lo + BLOCK].tolist()))
        return "".join(["[", parts[0][1:], *parts[1:], _newline(depth) + "]"])


@functools.cache
def _templates(layout, depth):
    """Per kind of the layout, "," and its row laid out depth deep, a %s
    in each value's place; _PHI's %s is followed by a %.0s for each of
    the 6 biarc values that an arc's row skips."""
    nl = _newline(depth)
    return tuple("," + nl + json.dumps(row, indent=2).replace("%", "%%")
                 .replace("\n", nl).replace('"\\u0000"', "%s")
                 .replace('"\\u0001"', "%s" + "%.0s" * 6)
                 for row in _LAYOUTS[layout])


_V, _PHI = "\0", "\1"   # a value's place; an arc's phi in "chords"
_CHORD = {"index": _V, "half_length": _V, "direction": _V,
          "midpoint": [_V, _V], "xi": _V, "eta": _V, "width": _V,
          "width_estimate": _V}
_ARC = {"type": "arc", "c": _V, "phi": _V}
_BIARC = {"type": "biarc", "c": _V, "alpha": _V, "beta": _V, "a": _V,
          "b": _V, "p": _V, "join": [_V, _V]}
_LAYOUTS = {
    "nodes": [dict.fromkeys(["index", "turning", "half_diagonal",
                             "curvature"], _V)],
    "violations": [dict.fromkeys(["sample", "chord", "x_local", "margin"],
                                 _V)],
    "lens": [dict(_CHORD, lower=_ARC, upper=_ARC)],
    # kind: 2 if the lower curve is a biarc, plus 1 if the upper one is
    "chords": [dict(_CHORD, lower=lower, upper=upper)
               for lower in (dict(_ARC, phi=_PHI), _BIARC)
               for upper in (dict(_ARC, phi=_PHI), _BIARC)],
}


def region_report(analysis: Analysis, region: Region) -> dict:
    """JSON-ready report of the analysis and the constructed region; its
    `nodes` and `chords` are Rows, read from their columns."""
    cls, nd, ang = analysis.classification, analysis.nodes, analysis.angles
    g = ChordColumns(region)
    head = [g.index, g.c, g.direction, g.ox, g.oy, ang.xi, ang.eta, g.width,
            g.estimate]
    if g.arc.all():   # arcs only: each boundary is its c and phi
        chords = Rows("lens", head + [g.c, g.fields[0, 0], g.c,
                                      g.fields[0, 1]])
    else:
        chords = Rows("chords", head + [g.c, *(f[0] for f in g.fields), g.c,
                                        *(f[1] for f in g.fields)],
                      2 * ~g.arc[0] + ~g.arc[1])
    return {
        "version": PROFILE_VERSION,
        "grade": region.grade,
        "closed": region.closed,
        "classification": {
            "kind": cls.kind,
            "direction": cls.direction,
            "vertices": [{"node": n, "kind": k} for n, k in cls.vertices],
        },
        "admissibility_violations": [
            {"node": v.node, "side": v.side, "value": v.value}
            for v in analysis.violations],
        "width": region.width,
        "nodes": Rows("nodes", [np.arange(1, len(nd) + 1), nd.rho, nd.d,
                              nd.q]),
        "chords": chords,
    }


def compliance_report_dict(report: ComplianceReport) -> dict:
    idx, worst = report.violations, report.worst_margin
    shown = idx[:50]
    return {
        "verdict": "pass" if report.passed else "fail",
        "tol": report.tol,
        "samples": int(len(report.chord_index)),
        "unassigned": report.unassigned_count,
        "worst_margin": None if math.isinf(worst) else worst,
        "violations": Rows("violations", [
            shown, report.chord_index[shown], report.x_local[shown],
            np.minimum(report.margin_lower[shown],
                       report.margin_upper[shown])]),
        "violation_count": int(idx.size),
    }


def report_json(report: dict) -> str:
    """The report, all keys str, as json.dumps(report, indent=2) writes
    it, each Rows as the list of its rows."""
    return _json(report, 0)


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: lambda v: _floats([v])[0]}


def _json(value, depth):
    """json.dumps's text of the value, nested depth deep."""
    if isinstance(value, Rows):
        return value.json(depth)
    if isinstance(value, dict):
        bad = [type(k).__name__ for k in value if not isinstance(k, str)]
        if bad:
            raise TypeError("report keys must be str, not %s" % bad[0])
        items, ends = [encode_basestring_ascii(key) + ": " + _json(
            v, depth + 1) for key, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = (_floats(value) if all(isinstance(v, float)
                                             for v in value)
                       else [_json(v, depth + 1) for v in value]), "[]"
    elif type(value) in _SCALARS:
        return _SCALARS[type(value)](value)
    else:   # None, bool, subclasses, and json's TypeError for the rest
        return json.dumps(value)
    inner = _newline(depth + 1)
    return ("".join([ends[0], inner, ("," + inner).join(items),
                     _newline(depth), ends[1]]) if items else ends)


def _floats(col):
    text = list(map(float.__repr__, col))
    return (text if all(map(math.isfinite, col))
            else [_TOKENS.get(t, t) for t in text])


_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _newline(depth):
    return "\n" + "  " * depth
