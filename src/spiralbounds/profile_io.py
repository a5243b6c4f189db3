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
each Rows made a list, and write_report writes the same text to a file
piece by piece as it is made, so the CLI never holds a whole report.
json's indent path costs a generator frame per value, so the long lists
(nodes, chords, violations) are Rows: row dicts kept as columns, written
BLOCK rows at a time without making the dicts.  A row's kind is laid out
once by json.dumps of a row of placeholders and cut at them into the
literal gaps around its values; a block is the gaps of its rows, by
kind, with each column's tokens put in their places by one strided
slice, joined once.  _floats writes a block's float column by one
orjson.dumps, whose shortest digits are repr's, and puts its text in
repr's form: str.replace gives an exponent its sign and two digits
(1e+16, 1e-06), and where the text holds a value in [1e-5, 1e-4) or a
non-finite one, a numpy mask of the values finds those tokens, the
first mended by slicing (0.00001 to 1e-05).
The arc mask, not the grade, picks the chords' layout: short "lens"
rows where every boundary is an arc, else a "chords" kind per row.

Profiles are read by orjson where it reads them as json does: no key
twice and no integer past 64 bits outside the points; JSON sample files
are read by orjson too, and checked in one pass when they hold numbers
only.  Anything else is read by json, so every error keeps its words.

Column files (spline fixtures, curvature plots) hold one "%.17g" per
value, as np.savetxt writes them.  write_rows is the one block writer
behind them and the SVG: it fills BLOCK rows of float columns into %
templates at once, so a file of any length costs one block of text.
Rows keep their own loop, as their numbers are written as json writes
them, not by a % format.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from collections.abc import Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .analysis import Analysis, SplineInput, is_finite_real
from .compliance import ComplianceReport
from .errors import EmptySamplesError, InputError, OverrideError, ParseError
from .geometry import member_fields
from .regions import Region, checked_overrides

PROFILE_VERSION = 1
BLOCK = 1024    # rows formatted at once: reports, SVG and column files


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
            and (set(map(type, points)) <= {list, tuple}
                 or all(isinstance(p, (list, tuple)) for p in points))):
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
            return parse_profile(_decode_profile(fh.read()), degrees)
    except (OSError, UnicodeError) as exc:
        raise ParseError("cannot read profile %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("profile %s is not valid JSON: %s"
                         % (path, exc)) from exc
    except RecursionError:   # a value nested about 1000 deep
        raise ParseError("profile %s nests too deeply" % path) from None


def _decode_profile(text):
    """json.loads(text, object_pairs_hook=_unique_keys), by orjson where
    it reads the text to the same value.

    orjson keeps the last of two equal keys, and reads an integer past 64
    bits as a float.  Its value is taken only when its dicts hold as many
    keys as the text has quotes followed by a colon (every key is one,
    and a '":' in a string only adds to them), so that no key came twice
    and no dict sits in the points; and when no value outside the points
    is a float that could be such an integer, as a version, tangent or
    override prints its value in an error.  Else, or on any orjson
    error, json reads the text again, for its value or its error.
    """
    try:
        obj = orjson.loads(text)
    except orjson.JSONDecodeError:
        obj = None
    if isinstance(obj, dict):
        rest = list(_values([v for k, v in obj.items() if k != "points"]))
        if (len(obj) + sum(len(v) for v in rest if isinstance(v, dict))
                == len(_KEY.findall(text))
                and not any(type(v) is float and v.is_integer()
                            and abs(v) >= 2.0 ** 63 for v in rest)):
            return obj
    return json.loads(text, object_pairs_hook=_unique_keys)


_KEY = re.compile(r'"\s*:')


def _values(value):
    """The value and every value nested in it, depth first."""
    yield value
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _values(v)


def load_samples(path) -> np.ndarray:
    """Read curve samples: JSON array of pairs, or two-column text."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ParseError("cannot read samples %s: %s" % (path, exc)) from exc
    stripped = text.lstrip()
    if not stripped:
        raise EmptySamplesError("sample file %s is empty" % path)
    if stripped[0] == "[":
        try:
            rows = _decode(text)
            pts = _number_pairs(rows, text)
            if pts is not None:
                return pts
            # [] passes both tests and is refused below as no samples
            if not (set(map(type, rows)) <= {list}
                    and set(map(len, rows)) <= {2}):
                raise ParseError("sample file %s must hold [x, y] pairs"
                                 % path)
            _require_numbers(rows, lambda i: "sample file %s: sample %d"
                             % (path, i))
        except json.JSONDecodeError as exc:
            raise ParseError("sample file %s is not valid JSON: %s"
                             % (path, exc)) from exc
        except RecursionError:   # a value nested about 1000 deep
            raise ParseError("sample file %s nests too deeply"
                             % path) from None
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
        pts = np.fromiter(chain.from_iterable(rows), float,
                          2 * len(rows)).reshape(-1, 2)
    except (OverflowError, ValueError) as exc:
        raise ParseError("sample file %s has non-numeric entries: %s"
                         % (path, exc)) from exc
    if pts.size == 0:
        raise EmptySamplesError("sample file %s holds no samples" % path)
    return pts


def _number_pairs(rows, text):
    """The decoded rows as an (n, 2) float array, n >= 1, in one pass when
    the text holds no true, false, null, string or object, so that every
    scalar is a number and only the rows' lengths are left to check; None
    for anything else, which load_samples checks pass by pass for its
    error."""
    if any(c in text for c in 'tfn"{'):
        return None
    try:
        if set(map(len, rows)) != {2}:
            return None
        return np.fromiter(chain.from_iterable(rows), float,
                           2 * len(rows)).reshape(-1, 2)
    except (OverflowError, TypeError, ValueError):
        return None


def _decode(text):
    """json.loads(text), by orjson where it reads the text.

    orjson reads a number as json does once it is made a float (an
    integer past 64 bits comes as the nearest float).  It refuses the
    NaN and Infinity literals and numbers past the float range, which
    json reads as nan and inf, and its errors are worded otherwise; on
    any error json reads the text again, for its value or its error.
    """
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def fill(templates, values, kind) -> str:
    """Row i filled into templates[kind[i]], taking its values in turn
    from the rows' values in row order, all rows by one %."""
    return "".join([templates[k] for k in kind]) % tuple(values)


def write_rows(fh, columns, templates, kind=None):
    """Write fill()'s lines of the columns to fh, BLOCK rows at a time."""
    for lo in range(0, len(columns[0]), BLOCK):
        block = np.column_stack([col[lo:lo + BLOCK] for col in columns])
        fh.write(fill(templates, block.ravel().tolist(),
                      kind[lo:lo + BLOCK] if kind else [0] * len(block)))


def write_columns(fh, rows):
    """Write rows of numbers (samples, plot data) to fh, to full precision.

    One "%.17g" per value, space-separated, one line per row, as
    np.savetxt(fmt="%.17g") writes them; a 1-D input is one column.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    write_rows(fh, arr.T, [" ".join(["%.17g"] * arr.shape[1]) + "\n"])


def save_columns(path, rows):
    """Write the rows to the file at path as write_columns does."""
    with open(path, "w") as fh:
        write_columns(fh, rows)


class Rows(Sequence):
    """One report list kept as int and float columns: row i holds a value
    of each, laid out as _LAYOUTS[layout][kind[i]] (kind 0 by default)."""

    def __init__(self, layout, columns, kind=None):
        self.layout, self.columns = layout, columns
        self.kind = np.zeros(len(columns[0]), int) if kind is None else kind

    def __len__(self):
        return len(self.kind)

    def __getitem__(self, i):
        i = range(len(self))[i]   # IndexError past the end
        row = Rows(self.layout, [col[i:i + 1] for col in self.columns],
                   self.kind[i:i + 1])
        return json.loads("".join(row.json(0)))[0]

    def json(self, depth):
        """The text of the rows' list, depth deep, a block of BLOCK rows
        at a time: the rows' literal gaps, laid out by kind, and the
        columns' value tokens in their places by strided slices, in one
        list joined once."""
        if not len(self):
            yield "[]"
            return
        rows, keep = _gaps(self.layout, depth + 1)
        step = len(rows[0])
        for lo in range(0, len(self), BLOCK):
            kind = self.kind[lo:lo + BLOCK].tolist()
            text = {id(col): col[lo:lo + BLOCK] for col in self.columns}
            for key, col in text.items():   # each column once
                text[key] = (_floats(np.ascontiguousarray(col))
                             if col.dtype.kind == "f"
                             else list(map(int.__repr__, col.tolist())))
            out = (rows[0] * len(kind) if len(rows) == 1 else
                   list(chain.from_iterable(map(rows.__getitem__, kind))))
            for j, col in enumerate(self.columns):
                # a value its row's kind skips is written as ""
                out[2 * j + 1::step] = (
                    text[id(col)] if keep[j] is None else
                    map(operator.mul, text[id(col)],
                        map(keep[j].__getitem__, kind)))
            if not lo:   # the list's first row takes "[" for its ","
                out[0] = "[" + out[0][1:]
            yield "".join(out)
        yield _newline(depth) + "]"


@functools.cache
def _gaps(layout, depth):
    """Per kind of the layout, its row laid out depth deep, "," and a
    newline first, as the list of the literal gaps around its values,
    each value's place an empty str between them.  Also, per value, None
    if every kind writes it, else a tuple by kind of whether it does: a
    "chords" arc's phi is followed by the 6 biarc values that its row
    skips, each with an empty gap before it."""
    nl, value = _newline(depth), json.dumps(_V)
    kinds = [("," + nl + json.dumps(row, indent=2).replace("\n", nl))
             .replace(json.dumps(_PHI), value * 7).split(value)
             for row in _LAYOUTS[layout]]
    keep = [None if all(gap) else tuple(map(bool, gap))
            for gap in zip(*kinds)]
    return [list(chain(*zip(gaps, [""] * len(gaps))))[:-1]
            for gaps in kinds], keep[:-1]


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
    g = region.chords
    head = [g.indices, g.c, g.mu, *g.mid.T, ang.xi, ang.eta, g.width,
            g.estimate]
    # alpha, beta, a, b, p and the join's x and y, (2, m) each; an arc's
    # row prints its alpha as phi and skips the rest
    fields = member_fields(g.members)[1:]
    if g.arc.all():   # arcs only: each boundary is its c and phi
        chords = Rows("lens", head + [g.c, fields[0][0], g.c, fields[0][1]])
    else:
        chords = Rows("chords", head + [g.c, *(f[0] for f in fields), g.c,
                                        *(f[1] for f in fields)],
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
    return "".join(_chunks(report))


def write_report(fh, report: dict):
    """Write report_json(report) to fh a piece at a time, as it is made,
    so the whole text is never held."""
    for chunk in _chunks(report):
        fh.write(chunk)


def _chunks(report):
    """report_json's text in pieces: a Rows among the report's items
    block by block, each other item whole."""
    if not (isinstance(report, dict) and report):
        yield _json(report, 0)
        return
    _check_keys(report)
    sep = "{" + _newline(1)
    for key, value in report.items():
        head = sep + encode_basestring_ascii(key) + ": "
        if type(value) is Rows:
            yield head
            yield from value.json(1)
        else:
            yield head + _json(value, 1)
        sep = "," + _newline(1)
    yield "\n}"


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__}


def _json(value, depth):
    """json.dumps's text of the value, nested depth deep."""
    if type(value) is Rows:
        return "".join(value.json(depth))
    if isinstance(value, dict):
        _check_keys(value)
        items, ends = [encode_basestring_ascii(key) + ": " + _json(
            v, depth + 1) for key, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        # exact floats: orjson takes no float subclass but numpy's
        items, ends = (_floats(list(map(float, value)))
                       if all(isinstance(v, float) for v in value)
                       else [_json(v, depth + 1) for v in value]), "[]"
    elif isinstance(value, float):
        return _floats([float(value)])[0]
    elif type(value) in _SCALARS:
        return _SCALARS[type(value)](value)
    else:   # None, bool, subclasses, and json's TypeError for the rest
        return json.dumps(value)
    inner = _newline(depth + 1)
    return ("".join([ends[0], inner, ("," + inner).join(items),
                     _newline(depth), ends[1]]) if items else ends)


def _check_keys(obj):
    bad = [type(k).__name__ for k in obj if not isinstance(k, str)]
    if bad:
        raise TypeError("report keys must be str, not %s" % bad[0])


def _floats(col):
    """json.dumps's text of each float of col, a list or a C-contiguous
    array: float.__repr__, NaN and the infinities as json writes them.

    orjson writes the same shortest digits as repr, in repr's form for 0
    and 1e-4 <= |x| < 1e16.  Outside that range it leaves out the "+"
    of a positive exponent (1e16) and the 0 that pads a one-digit
    exponent to two (1e-6; it writes an exponent below 1e-5 only, so
    e-6 to e-9): both are put back by str.replace on the joined text.
    It writes [1e-5, 1e-4) in decimal form, 0.0000 and the digits, and
    null for NaN and +-inf; where the text holds either, a numpy mask of
    the values finds their tokens: _mend_band puts the first in repr's
    form, and _TOKENS names the second by their repr.
    """
    if not len(col):
        return []
    text = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    text = text[1:-1] + ","   # each token ends in ,
    if "e" in text:
        if text.count("e") > text.count("e-"):
            text = text.replace("e", "e+").replace("e+-", "e-")
        for d in "6789":
            text = text.replace("e-%s," % d, "e-0%s," % d)
    tokens = text[:-1].split(",")
    if "0.0000" in text:
        _mend_band(tokens, np.asarray(col, dtype=float))
    if "null" in text:
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            tokens[i] = _TOKENS[float.__repr__(float(col[i]))]
    return tokens


def _mend_band(tokens, values):
    """Rewrite the tokens of the values in [1e-5, 1e-4) by slicing, from
    orjson's [-]0.0000ddd to repr's [-]d.dde-05 (de-05 for one digit)."""
    mag = np.abs(values)
    for i in np.flatnonzero((mag >= 1e-5) & (mag < 1e-4)).tolist():
        t = tokens[i]
        k = 7 if t[0] == "-" else 6   # the first digit, after [-]0.0000
        tokens[i] = (f"{t[:k - 6]}{t[k]}.{t[k + 1:]}e-05" if len(t) > k + 1
                     else f"{t[:k - 6]}{t[k]}e-05")


_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _newline(depth):
    return "\n" + "  " * depth
