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
node indices.

Sample files are either a JSON array of [x, y] pairs or plain text with
one "x y" pair per line; '#' starts a comment.  Reports are JSON
dictionaries built here so they round-trip losslessly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .analysis import Analysis, SplineInput
from .compliance import ComplianceReport
from .errors import EmptySamplesError, InputError, OverrideError, ParseError
from .geometry import Arc, Biarc
from .regions import Region, checked_overrides

PROFILE_VERSION = 1


def _angle(value, degrees: bool, what: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.radians(value) if degrees else float(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        if not all(math.isfinite(v) for v in value):
            raise ParseError("%s tangent vector is not finite: %r"
                             % (what, value))
        if value[0] == 0 and value[1] == 0:
            raise ParseError("%s tangent vector is zero" % what)
        return math.atan2(float(value[1]), float(value[0]))
    raise ParseError("%s tangent must be an angle or an [x, y] direction, "
                     "got %r" % (what, value))


def parse_profile(obj, degrees: bool = False):
    """Validate a decoded profile dict -> (SplineInput, overrides)."""
    if not isinstance(obj, dict):
        raise ParseError("profile must be a JSON object")
    if obj.get("version") != PROFILE_VERSION:
        raise ParseError("unsupported profile version %r (expected %d)"
                         % (obj.get("version"), PROFILE_VERSION))
    unknown = set(obj) - {"version", "points", "closed", "tangents",
                          "curvature_overrides"}
    if unknown:
        raise ParseError("unknown profile keys: %s" % sorted(unknown))

    raw_pts = obj.get("points")
    if (not isinstance(raw_pts, list) or len(raw_pts) < 3
            or not all(isinstance(p, (list, tuple)) and len(p) == 2
                       for p in raw_pts)):
        raise ParseError("'points' must list at least 3 [x, y] pairs")
    try:
        points = np.asarray(raw_pts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError("non-numeric point coordinates: %s" % exc) from exc

    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError("'closed' must be a boolean")
    tangents = obj.get("tangents")
    tau_start = tau_end = None
    if tangents is not None:
        if not isinstance(tangents, dict) or set(tangents) - {"start", "end"}:
            raise ParseError("'tangents' must be {'start': …, 'end': …}")
        if closed:
            raise ParseError("closed profiles must not carry tangents")
        if "start" in tangents:
            tau_start = _angle(tangents["start"], degrees, "start")
        if "end" in tangents:
            tau_end = _angle(tangents["end"], degrees, "end")
    if not closed and (tau_start is None or tau_end is None):
        raise ParseError("open profiles need tangents.start and tangents.end")

    raw_over = obj.get("curvature_overrides") or {}
    if not isinstance(raw_over, dict):
        raise ParseError("'curvature_overrides' must map node index to "
                         "{'a': …, 'b': …}")
    try:
        overrides = checked_overrides(raw_over)
    except OverrideError as exc:
        raise ParseError(str(exc)) from exc

    try:
        data = SplineInput(points=points, tau_start=tau_start,
                           tau_end=tau_end, closed=closed)
    except InputError as exc:   # non-finite points or tangents
        raise ParseError(str(exc)) from exc
    return data, overrides


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
    except (TypeError, ValueError) as exc:
        raise ParseError("sample file %s has non-numeric entries: %s"
                         % (path, exc)) from exc
    if pts.size == 0:
        raise EmptySamplesError("sample file %s holds no samples" % path)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParseError("sample file %s must hold [x, y] pairs" % path)
    return pts


def save_columns(path, rows):
    """Rows of numbers (samples, plot data) as text, to full precision."""
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.17g")


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
    return json.dumps(report, indent=2, allow_nan=True)
