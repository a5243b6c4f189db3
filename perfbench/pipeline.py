"""The two user paths the benchmark times, and the spans recorded around them.

analyze path: load_profile -> analyze -> build_region(grade="auto")
              -> region_report -> report_json
check path:   the same up to the region, then load_samples
              -> check_containment -> compliance_report_dict -> report_json

With a Tracer every call into a package module sits in a span named
`<module>.<function>`; with NO_TRACE the spans cost one no-op `with`.
Traced analysis calls analyze()'s public constituents in its order, so
its sub-stages get spans of their own.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

from spiralbounds import analysis, compliance, regions
from spiralbounds.geometry import Arc
from spiralbounds.profile_io import (compliance_report_dict, load_profile,
                                     load_samples, region_report, report_json)
from spiralbounds.svg import render_svg


class _NoSpan:
    __slots__ = ("name",)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NoTrace:
    enabled = False
    op = None
    _span = _NoSpan()

    def span(self, name):
        return self._span

    def count(self, name, n=1):
        pass


NO_TRACE = _NoTrace()


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans[self.index] = (self.name, self.start, end, parent, tr.op)
        return False


class Tracer:
    """Spans (name, start, end, parent, op) and counts, kept in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()

    def span(self, name):
        return _Span(self, name)

    def count(self, name, n=1):
        self.counts[name] += n

    def totals(self):
        """Per span name: (summed duration, calls, summed self time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            dur, calls, own = out.get(name, (0.0, 0, 0.0))
            out[name] = (dur + end - start, calls + 1,
                         own + end - start - inner)
        return out

    def dump(self, path, meta):
        rows = [[i, name, start, end, parent, op]
                for i, (name, start, end, parent, op) in enumerate(self.spans)]
        doc = dict(meta)
        doc["fields"] = ["id", "name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = rows
        doc["totals"] = {name: {"total_s": d, "calls": n, "self_s": s}
                         for name, (d, n, s) in sorted(self.totals().items())}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _analyze(tr, data):
    with tr.span("analysis.analyze"):
        if not tr.enabled:
            return analysis.analyze(data)
        with tr.span("analysis.build_chords"):
            chords = analysis.build_chords(data)
        with tr.span("analysis.node_data"):
            nodes = analysis.node_data(chords)
        with tr.span("analysis.xi_eta"):
            angles = analysis.xi_eta(chords, nodes)
        with tr.span("analysis.check_lim180"):
            violations = analysis.check_lim180(chords, nodes)
        with tr.span("analysis.classify"):
            cls = analysis.classify(nodes, violations, closed=data.closed)
        return analysis.Analysis(data=data, chords=chords, nodes=nodes,
                                 angles=angles, violations=violations,
                                 classification=cls)


def _region(tr, profile):
    """Shared head of both paths: (analysis, region).

    Inadmissible data is counted and build_region's ClassificationError
    propagates.
    """
    with tr.span("profile_io.load_profile"):
        data, overrides = load_profile(profile)
    an = _analyze(tr, data)
    cls = an.classification
    tr.count("analysis.chords", len(an.angles))
    tr.count("analysis.nodes", len(an.nodes))
    tr.count("analysis.vertices", len(cls.vertices))
    if cls.kind == "inadmissible":
        tr.count("analysis.rejected")
    with tr.span("regions.build_region") as sp:
        region = regions.build_region(an, "auto", overrides)
        sp.name = "regions." + region.grade
    for ch in region.chords:
        for curve in (ch.lower, ch.upper):
            tr.count("regions.arc_boundaries" if isinstance(curve, Arc)
                     else "regions.biarc_boundaries")
    return an, region


def analyze_path(tr, profile):
    """-> (analysis, region, report text)."""
    with tr.span("path.analyze"):
        an, region = _region(tr, profile)
        with tr.span("profile_io.region_report"):
            report = region_report(an, region)
        with tr.span("profile_io.report_json"):
            text = report_json(report)
    tr.count("profile_io.bytes_out", len(text))
    return an, region, text


def check_path(tr, profile, samples):
    """-> (region, samples array, ComplianceReport, report text)."""
    with tr.span("path.check"):
        _, region = _region(tr, profile)
        with tr.span("profile_io.load_samples"):
            pts = load_samples(samples)
        with tr.span("compliance.check_containment"):
            rep = compliance.check_containment(region, pts)
        with tr.span("profile_io.compliance_report"):
            report = compliance_report_dict(rep)
        with tr.span("profile_io.report_json"):
            text = report_json(report)
    tr.count("profile_io.bytes_out", len(text))
    return region, pts, rep, text


def svg_op(tr, an, region, path):
    with tr.span("svg.render_svg"):
        render_svg(an, region, path)


def region_substages(tr, an):
    """Traced runs only: the narrowed grade's public parts, called apart.

    narrowed_region() computes these internally, so these calls repeat
    that work outside the timed paths; simple_region() is not on either
    path (auto never picks it) and is timed here for the same reason.
    """
    with tr.span("probe.regions"):
        with tr.span("regions.narrowed_angle_ranges"):
            regions.narrowed_angle_ranges(an)
        with tr.span("regions.curvature_ranges"):
            regions.curvature_ranges(an)
        with tr.span("regions.simple"):
            regions.simple_region(an)
