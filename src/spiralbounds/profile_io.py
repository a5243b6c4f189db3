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
round-trip losslessly; report_json takes nothing else.  It writes them
byte for byte as json.dumps(report, indent=2) does, but json's indent
path is its pure-Python encoder, one generator frame per value, which
took most of the time of analyzing a large profile.  Instead the
writer works on columns: the values found at one key path across all
rows (every chords[].lower.phi, say) are written together, floats by
one map(float.__repr__) where all are finite.  Dicts of one key tuple
are filled into one % template, lists of one length into another, and
the items of those lists form the next column, so the recursion is as
deep as the report, not as long.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .analysis import Analysis, SplineInput, is_finite_real
from .compliance import ComplianceReport
from .errors import EmptySamplesError, InputError, OverrideError, ParseError
from .geometry import Arc, Biarc
from .regions import Region, checked_overrides

PROFILE_VERSION = 1


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


def columns_text(rows) -> str:
    """Rows of numbers (samples, plot data) as text, to full precision.

    One "%.17g" per value, space-separated, one line per row, as
    np.savetxt(fmt="%.17g") writes them, but filled into one % template.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    line = " ".join(["%.17g"] * arr.shape[1]) + "\n"
    return (line * len(arr)) % tuple(arr.ravel().tolist())


def save_columns(path, rows):
    """Write columns_text(rows) to the file at path."""
    with open(path, "w") as fh:
        fh.write(columns_text(rows))


def _curve_dict(curve):
    if isinstance(curve, Arc):
        return {"type": "arc", "c": curve.c, "phi": curve.phi}
    assert isinstance(curve, Biarc)
    return {"type": "biarc", "c": curve.c, "alpha": curve.alpha,
            "beta": curve.beta, "a": curve.a, "b": curve.b, "p": curve.p,
            "join": list(curve.join)}


def region_report(analysis: Analysis, region: Region) -> dict:
    """JSON-ready report of the analysis and the constructed region."""
    cls = analysis.classification
    nd, ch, ang = analysis.nodes, analysis.chords, analysis.angles
    nodes = [{"index": j, "turning": rho, "half_diagonal": d, "curvature": q}
             for j, (rho, d, q) in enumerate(zip(
                 nd.rho.tolist(), nd.d.tolist(), nd.q.tolist()), start=1)]
    chord_rows = [{
        "index": reg.index,
        "half_length": c,
        "direction": mu,
        "midpoint": mid,
        "xi": xi,
        "eta": eta,
        "width": reg.width,
        "width_estimate": reg.width_estimate,
        "lower": _curve_dict(reg.lower),
        "upper": _curve_dict(reg.upper),
    } for reg, c, mu, mid, xi, eta in zip(
        region.chords, ch.c.tolist(), ch.mu.tolist(), ch.mid.tolist(),
        ang.xi.tolist(), ang.eta.tolist())]
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
        "nodes": nodes,
        "chords": chord_rows,
    }


def compliance_report_dict(report: ComplianceReport) -> dict:
    idx = report.violations
    worst = report.worst_margin
    return {
        "verdict": "pass" if report.passed else "fail",
        "tol": report.tol,
        "samples": int(len(report.chord_index)),
        "unassigned": report.unassigned_count,
        "worst_margin": None if math.isinf(worst) else worst,
        "violations": [
            {"sample": int(i),
             "chord": int(report.chord_index[i]),
             "x_local": float(report.x_local[i]),
             "margin": float(min(report.margin_lower[i],
                                 report.margin_upper[i]))}
            for i in idx[:50]],
        "violation_count": int(idx.size),
    }


def report_json(report: dict) -> str:
    """The report, all keys str, as json.dumps(report, indent=2) writes it."""
    return _encode([report], 0)[0]


def _encode(col, depth):
    """JSON text of each value of the column col, nested depth deep."""
    return _by(type, col, lambda t, rows: _writer(t)(rows, depth))


def _writer(t):
    """The column writer of type t: that of the first class of its MRO
    in _WRITERS, so numpy.float64 is a float and bool is not an int."""
    for cls in t.__mro__:
        if cls in _WRITERS:
            return _WRITERS[cls]
    raise TypeError("Object of type %s is not JSON serializable"
                    % t.__name__)


def _by(key, col, fill):
    """fill(k, rows) on the values of col grouped by k = key(value), as
    one list in col's order."""
    keys = set(map(key, col))
    if len(keys) == 1:
        return fill(keys.pop(), col)
    groups = {}
    for i, value in enumerate(col):
        groups.setdefault(key(value), []).append(i)
    out = [None] * len(col)
    for k, idx in groups.items():
        for i, text in zip(idx, fill(k, [col[i] for i in idx])):
            out[i] = text
    return out


def _strings(col, depth):
    return list(map(encode_basestring_ascii, col))


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _constants(col, depth):
    return list(map(_CONSTANTS.__getitem__, col))


def _ints(col, depth):
    return list(map(int.__repr__, col))


def _floats(col, depth):
    if all(map(math.isfinite, col)):
        return list(map(float.__repr__, col))
    return [float.__repr__(v) if math.isfinite(v) else "NaN" if v != v
            else "Infinity" if v > 0 else "-Infinity" for v in col]


def _lists(col, depth):
    def fill(n, rows):
        if not n:
            return ["[]"] * len(rows)
        # the items of every list of one length form a single column
        items = _encode(list(chain.from_iterable(rows)), depth + 1)
        tmpl = ("[" + ",".join([_newline(depth + 1) + "%s"] * n)
                + _newline(depth) + "]")
        return [tmpl % row for row in zip(*[iter(items)] * n)]
    return _by(len, col, fill)


def _dicts(col, depth):
    def fill(names, rows):
        if not names:
            return ["{}"] * len(rows)
        for name in names:
            if not isinstance(name, str):
                raise TypeError("report keys must be str, not %s"
                                % type(name).__name__)
        values = [_encode(c, depth + 1)
                  for c in zip(*(row.values() for row in rows))]
        tmpl = ("{" + ",".join(
            _newline(depth + 1) + encode_basestring_ascii(name)
            .replace("%", "%%") + ": %s" for name in names)
            + _newline(depth) + "}")
        return [tmpl % row for row in zip(*values)]
    return _by(tuple, col, fill)


def _newline(depth):
    return "\n" + "  " * depth


_WRITERS = {str: _strings, type(None): _constants, bool: _constants,
            int: _ints, float: _floats, list: _lists, tuple: _lists,
            dict: _dicts}
