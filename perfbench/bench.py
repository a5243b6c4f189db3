"""Workloads, the closed measuring loop, the correctness gate and the metrics.

One process drives all load: a closed loop with one op in flight, no
worker threads or pools.  Ops are analyze paths, check paths, SVG
renders and `python -m spiralbounds check` subprocesses; each is timed
with perf_counter and then judged (untimed) against what the generator
knows.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

from spiralbounds.analysis import SplineInput
from spiralbounds.errors import ClassificationError
from spiralbounds.splinefit import cubic_spline_fixture

import gen
import geom
import micro
import pipeline
from pipeline import NO_TRACE, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

WIDTH_RTOL = 1e-4     # admits exact widths; sampled ones under-report ~1e-6
SETUP_REPEATS = 5     # child processes timed for setup_s
MIN_OPS = 3           # per op kind, even if the deadline has passed,
OVERTIME_S = 30.0     # unless ops keep failing for this long after it
SPEED_EVERY = 0.25    # seconds of ops between machine-speed samples
CLI_EVERY = 100       # batch-small: one CLI op per this many profiles
SUBPROCESS_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s", "analyze_s": "s", "check_s": "s",
    "chords_per_s": "1/s", "samples_per_s": "1/s", "svg_s": "s",
    "cli_s": "s", "peak_rss_mb": "MB",
}

LAYER_SPANS = (
    "analysis.analyze", "analysis.build_chords", "analysis.node_data",
    "analysis.xi_eta", "analysis.check_lim180", "analysis.classify",
    "regions.narrowed", "regions.vertex", "regions.simple",
    "regions.narrowed_angle_ranges", "regions.curvature_ranges",
    "compliance.check_containment",
    "profile_io.load_profile", "profile_io.load_samples",
    "profile_io.region_report", "profile_io.compliance_report",
    "profile_io.report_json",
    "svg.render_svg", "splinefit.cubic_spline_fixture",
)
LAYER_COUNTS = {
    "analysis.chords": "count", "analysis.nodes": "count",
    "analysis.vertices": "count", "analysis.rejected": "count",
    "regions.arc_boundaries": "count", "regions.biarc_boundaries": "count",
    "compliance.samples": "count", "compliance.assigned": "count",
    "compliance.unassigned": "count", "compliance.violations": "count",
    "compliance.wedge_probes_accepted": "count",
    "profile_io.bytes_in": "bytes", "profile_io.bytes_out": "bytes",
    "svg.bytes": "bytes",
}
LAYER_OTHER = {
    "regions.width_underreport_rel": "ratio",
    "geometry.arc_eval_ns_per_pt": "ns/pt",
    "geometry.biarc_eval_ns_per_pt": "ns/pt",
    "geometry.to_local_ns_per_pt": "ns/pt",
    "geometry.curve_eval_call_us": "us",
    "geometry.biarc_from_p_us": "us",
    "geometry.biarc_from_a_us": "us",
    "geometry.biarc_from_b_us": "us",
    "cli.interpreter_s": "s", "cli.import_s": "s",
    "analyze_tail_s": "s", "check_tail_s": "s",
    "wrong_verdict_ratio": "ratio", "failed_ratio": "ratio",
    "trace.check_path_s": "s", "trace.overhead_s": "s",
    "trace.check_unaccounted_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_SPANS:
        units[name + "_s"] = "s"
        units[name + "_calls"] = "count"
    units.update(LAYER_COUNTS)
    units.update(LAYER_OTHER)
    return units


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """A generated case, its files, and what the first op on it returned."""

    case: gen.Case
    profile: str
    samples: str | None
    profile_bytes: int
    samples_bytes: int
    dense: np.ndarray          # chord indices checked against dense widths
    golden: dict | None = None
    analysis: object = None
    region: object = None
    analyze_text: str | None = None
    check_text: str | None = None
    svg_size: int | None = None


def _with_spline(tr, case, per_chord):
    """Make the chord-length cubic spline the candidate curve."""
    data = SplineInput(case.points, case.tau_start, case.tau_end)
    with tr.span("splinefit.cubic_spline_fixture"):
        case.curve = cubic_spline_fixture(data, per_chord)
    case.curve_generating = False
    return case


def spiral_check_cases(rng, tr):
    case = gen.spiral_case(rng, 1001, scale=50.0, growth=-0.05, theta0=0.0,
                           span=6.0, jitter=0.2, probe_share=0.25,
                           name="spiral-check")
    return [_with_spline(tr, case, 16)]


def oval_analyze_cases(rng, tr):
    return [gen.oval_case(rng, 4000, probe_count=100, name="oval-analyze")]


def batch_small_cases(rng, tr, count=1000):
    cases = []
    for i in range(count):
        u = rng.random()
        if u < 0.1:
            cases.append(gen.hairpin_case(rng, int(rng.integers(6, 15)),
                                          name="hairpin-%d" % i))
        elif u < 0.55:
            cases.append(gen.small_spiral_case(
                rng, int(rng.integers(6, 15)), curve_samples=64,
                name="spiral-%d" % i))
        else:
            cases.append(gen.oval_case(rng, int(rng.integers(12, 25)),
                                       curve_samples=64, name="oval-%d" % i))
    return cases


# name: (rng stream, case maker, chords per dense width check, cases checked)
WORKLOADS = {
    "spiral-check": (1, spiral_check_cases, 8, 1),
    "oval-analyze": (2, oval_analyze_cases, 8, 1),
    "batch-small": (3, batch_small_cases, 1, 16),
}


def _write_items(cases, workdir, rng, dense_chords, dense_items,
                 golden=None):
    """Write each case's files; the first dense_items get dense width checks."""
    items = []
    for i, case in enumerate(cases):
        profile = str(workdir / ("profile-%d.json" % i))
        profile_bytes = gen.write_profile(profile, case)
        samples, samples_bytes = None, 0
        if case.reject_node is None:
            samples = str(workdir / ("samples-%d.json" % i))
            samples_bytes = gen.write_samples(samples, case.candidate())
        k = min(dense_chords, case.chords) if i < dense_items else 0
        dense = np.sort(rng.choice(case.chords, size=k, replace=False))
        items.append(Item(case=case, profile=profile, samples=samples,
                          profile_bytes=profile_bytes,
                          samples_bytes=samples_bytes, dense=dense,
                          golden=None if golden is None
                          else golden["cases"][case.name]))
    return items


def setup(workload, seed, workdir, run, tr):
    """Inputs, files and warm-up: everything before the first timed op."""
    wid, make, dense_chords, dense_items = WORKLOADS[workload]
    rng = np.random.default_rng([wid, seed])
    workdir.mkdir(parents=True, exist_ok=True)
    tr.op = "setup"
    items = _write_items(make(rng, tr), workdir, rng, dense_chords,
                         dense_items)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    gcases = gen.golden_cases()
    _with_spline(tr, gcases[0], 16)
    (workdir / "golden").mkdir()
    warm = _write_items(gcases, workdir / "golden", np.random.default_rng(0),
                        2, 4, golden)
    tr.op = "warmup"
    for item in warm:
        do_analyze(run, tr, item, record=False)
        if item.case.reject_node is None:
            do_svg(run, tr, item, str(workdir / "golden" / "warm.svg"),
                   record=False)
            do_check(run, tr, item, record=False)
    return items


# ---------------------------------------------------------------------------
# ops and their judgement
# ---------------------------------------------------------------------------


class Run:
    """Op counts, failures, per-kind timings and verdict tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = {"analyze": [], "check": [], "svg": [], "cli": []}
        self.traced_check = []
        self.untraced_check = []
        self.unaccounted = []
        self.speed = []
        self.chords = 0
        self.samples = 0
        self.probes = 0
        self.wrong = 0
        self.underreport = -math.inf
        self.logged = 0

    def fail(self, item, what):
        self.failed += 1
        if self.logged < 20:
            self.logged += 1
            print("perfbench: FAILED %s: %s" % (item.case.name, what),
                  file=sys.stderr)


def _judge_region_report(run, item, text):
    case = item.case
    rep = json.loads(text)
    cls = rep["classification"]
    got = (rep["grade"], cls["kind"], cls["direction"], len(rep["chords"]))
    want = (case.expect_grade, case.expect_kind, case.expect_direction,
            case.chords)
    if got != want:
        return "report says %s, expected %s" % (got, want)
    widths = np.array([ch["width"] for ch in rep["chords"]])
    if not (np.all(np.isfinite(widths)) and np.all(widths >= 0.0)
            and rep["width"] == widths.max()):
        return "bad widths"
    for k in item.dense:
        ch = rep["chords"][k]
        dense = geom.dense_width(ch)
        run.underreport = max(run.underreport, (dense - widths[k]) / dense)
        if abs(dense - widths[k]) > WIDTH_RTOL * dense + 1e-14 * ch["half_length"]:
            return "chord %d width %r, dense maximum %r" % (k + 1, widths[k],
                                                           dense)
    if item.golden is not None:
        ref = np.array(item.golden["widths"])
        if len(ref) != len(widths) or np.any(
                np.abs(widths - ref) > WIDTH_RTOL * ref + 1e-15):
            return "widths differ from golden.json"
    return None


def do_analyze(run, tr, item, record=True):
    run.attempted += 1
    case = item.case
    t0 = perf_counter()
    try:
        an, region, text = pipeline.analyze_path(tr, item.profile)
    except ClassificationError as exc:
        dt = perf_counter() - t0
        if case.reject_node is None:
            return run.fail(item, "unexpected rejection: %s" % exc)
        if not re.search(r"\bnode %d\b" % case.reject_node, str(exc)):
            return run.fail(item, "rejection names the wrong node: %s" % exc)
        text = None
    except Exception as exc:  # any other exception is a failed op
        return run.fail(item, "analyze raised %r" % exc)
    else:
        dt = perf_counter() - t0
        if case.reject_node is not None:
            return run.fail(item, "inadmissible data was not rejected")
        item.analysis, item.region = an, region
        if item.analyze_text is None:
            problem = _judge_region_report(run, item, text)
            if problem:
                return run.fail(item, problem)
            item.analyze_text = text
        elif text != item.analyze_text:
            return run.fail(item, "analyze output changed between ops")
    tr.count("profile_io.bytes_in", item.profile_bytes)
    if record:
        run.times["analyze"].append(dt)
        run.chords += case.chords
    if tr.enabled and case.expect_kind == "spiral":
        pipeline.region_substages(tr, item.analysis)


def do_check(run, tr, item, record=True):
    run.attempted += 1
    case = item.case
    t0 = perf_counter()
    try:
        _, pts, rep, text = pipeline.check_path(tr, item.profile,
                                                item.samples)
    except Exception as exc:  # any exception is a failed op
        return run.fail(item, "check raised %r" % exc)
    dt = perf_counter() - t0
    n = len(pts)
    if item.check_text is None:
        d = json.loads(text)
        viol = len(rep.violations)
        if (d["samples"] != n or n != len(case.candidate())
                or d["violation_count"] != viol
                or d["verdict"] != ("pass" if viol == 0 else "fail")):
            return run.fail(item, "compliance report inconsistent")
        item.check_text = text
    elif text != item.check_text:
        return run.fail(item, "check output changed between ops")
    passed = np.ones(n, dtype=bool)
    passed[rep.violations] = False
    n_curve = n - len(case.probes)
    probe_pass = passed[n_curve:]
    if case.curve_generating and not passed[:n_curve].all():
        return run.fail(item, "generating curve leaves its region")
    if np.any(case.probe_inside & ~probe_pass):
        return run.fail(item, "a point of the generating curve is rejected")
    wedge = case.probe_kind == gen.PROBE_KINDS.index("wedge")
    tr.count("profile_io.bytes_in", item.profile_bytes + item.samples_bytes)
    tr.count("compliance.samples", n)
    tr.count("compliance.assigned", n - rep.unassigned_count)
    tr.count("compliance.unassigned", rep.unassigned_count)
    tr.count("compliance.violations", len(rep.violations))
    tr.count("compliance.wedge_probes_accepted",
             int(np.count_nonzero(probe_pass & wedge)))
    if record:
        run.times["check"].append(dt)
        run.samples += n
        run.probes += len(probe_pass)
        run.wrong += int(np.count_nonzero(probe_pass != case.probe_inside))
    return dt


def do_svg(run, tr, item, path, record=True):
    if item.analysis is None:       # its analyze op failed
        return
    run.attempted += 1
    t0 = perf_counter()
    try:
        pipeline.svg_op(tr, item.analysis, item.region, path)
    except Exception as exc:  # any exception is a failed op
        return run.fail(item, "render_svg raised %r" % exc)
    dt = perf_counter() - t0
    size = os.path.getsize(path)
    if item.svg_size is None:
        with open(path) as fh:
            body = fh.read()
        if (not body.endswith("</svg>\n")
                or body.count("<path ") != 3 * item.case.chords):
            return run.fail(item, "SVG incomplete")
        item.svg_size = size
    elif size != item.svg_size:
        return run.fail(item, "SVG changed between ops")
    tr.count("svg.bytes", size)
    if record:
        run.times["svg"].append(dt)


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def do_cli(run, item):
    run.attempted += 1
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spiralbounds", "check", item.profile,
             item.samples], env=package_env(), capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return run.fail(item, "CLI timed out")
    dt = perf_counter() - t0
    want = 0 if '"verdict": "pass"' in item.check_text else 1
    if proc.returncode != want or proc.stdout != item.check_text + "\n":
        return run.fail(item, "CLI exit %d / output differs from the "
                              "library's" % proc.returncode)
    run.times["cli"].append(dt)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def schedule(workload, items):
    """Endless op sequence; each tuple starts a new round when its flag is set."""
    if workload != "batch-small":
        item = items[0]
        while True:
            for kind in ("analyze", "svg", "check", "cli"):
                yield kind, item, kind == "analyze"
    rep = next(it for it in items if it.case.expect_kind == "spiral")
    n = 0
    while True:
        for item in items:
            yield "analyze", item, True
            if item.case.reject_node is None:
                yield "svg", item, False
                yield "check", item, False
            n += 1
            if n % CLI_EVERY == 0:
                yield "cli", rep, False


def measure(workload, items, seconds, run, tracer, svg_path):
    """Closed loop until the deadline (and MIN_OPS of every kind).

    With a tracer, rounds alternate between traced and untraced so the
    tracing overhead is measured in the same run.
    """
    deadline = perf_counter() + seconds
    traced = False
    op = 0
    next_speed = 0.0
    for kind, item, new_round in schedule(workload, items):
        now = perf_counter()
        if now >= deadline and (
                all(len(t) >= MIN_OPS for t in run.times.values())
                or now >= deadline + OVERTIME_S):
            break
        if now >= next_speed:
            run.speed.append(micro.speed_sample())
            next_speed = perf_counter() + SPEED_EVERY
        if new_round and tracer is not None:
            traced = not traced
        tr = tracer if traced else NO_TRACE
        op += 1
        if traced:
            tracer.op = op
        if kind == "analyze":
            do_analyze(run, tr, item)
        elif kind == "svg":
            do_svg(run, tr, item, svg_path)
        elif kind == "check":
            n_spans = len(tracer.spans) if traced else 0
            dt = do_check(run, tr, item)
            if dt is not None and tracer is not None:
                (run.traced_check if traced else run.untraced_check).append(dt)
                if traced:
                    _unaccounted(run, tracer, n_spans, dt)
        elif item.check_text is not None:
            do_cli(run, item)


def _unaccounted(run, tracer, first, wall):
    """Check-path wall time not covered by the path's layer spans."""
    spans = tracer.spans[first:]
    root = next(i for i, s in enumerate(spans) if s[0] == "path.check")
    covered = sum(end - start for _, start, end, parent, _ in spans
                  if parent == first + root)
    run.unaccounted.append(wall - covered)


def _tail(values):
    """Highest percentile with at least ten ops beyond it (median if few)."""
    v = sorted(values)
    return v[max(len(v) - 11, (len(v) - 1) // 2)]


def end_to_end_metrics(run, setup_times):
    """Timings scaled to the reference machine speed (see README.md)."""
    k = micro.REFERENCE_S / statistics.median(run.speed)
    t = run.times
    print("perfbench: speed factor %.4f; unscaled medians: setup %.4g s, %s"
          % (k, statistics.median(setup_times),
             ", ".join("%s %.4g s" % (kind, statistics.median(v))
                       for kind, v in t.items())), file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_times) * k,
        "analyze_s": statistics.median(t["analyze"]) * k,
        "check_s": statistics.median(t["check"]) * k,
        "chords_per_s": run.chords / sum(t["analyze"]) / k,
        "samples_per_s": run.samples / sum(t["check"]) / k,
        "svg_s": statistics.median(t["svg"]) * k,
        "cli_s": statistics.median(t["cli"]) * k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer_metrics(run, tracer, extra):
    totals = tracer.totals()
    out = {}
    for name in LAYER_SPANS:
        dur, calls, _ = totals.get(name, (0.0, 0, 0.0))
        out[name + "_s"] = dur
        out[name + "_calls"] = calls
    for name in LAYER_COUNTS:
        out[name] = tracer.counts.get(name, 0)
    out.update(extra)
    out["regions.width_underreport_rel"] = run.underreport
    out["analyze_tail_s"] = _tail(run.times["analyze"])
    out["check_tail_s"] = _tail(run.times["check"])
    out["wrong_verdict_ratio"] = run.wrong / max(run.probes, 1)
    out["failed_ratio"] = run.failed / max(run.attempted, 1)
    traced = statistics.median(run.traced_check)
    out["trace.check_path_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(run.untraced_check)
    out["trace.check_unaccounted_s"] = statistics.median(run.unaccounted)
    return out


def _setup_child(workload, seed):
    """Seconds from spawning a fresh process to the end of its setup."""
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("setup child failed: %s" % proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the ready time and exit "
                        "(how setup_s is measured)")
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    workdir = OUT / ("work-%d" % os.getpid())
    run = Run()
    tracer = Tracer() if args.trace else None
    try:
        items = setup(args.workload, args.seed, workdir, run,
                      tracer or NO_TRACE)
        if args.setup_only:
            print(json.dumps({"ready": monotonic(), "failed": run.failed}))
            return 1 if run.failed else 0
        setup_times = []
        for _ in range(0 if args.trace or run.failed else SETUP_REPEATS):
            setup_times.append(_setup_child(args.workload, args.seed))
            run.speed.extend(micro.speed_sample() for _ in range(3))
        measure(args.workload, items, args.seconds, run, tracer,
                str(workdir / "region.svg"))
        if args.trace:
            trace_dir = OUT / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            stem = trace_dir / ("%s-seed%d" % (args.workload, args.seed))
            tracer.dump(str(stem) + ".spans.json",
                        {"workload": args.workload, "seed": args.seed})
            extra = micro.geometry_metrics()
            extra.update(micro.startup_metrics(
                package_env(), str(stem) + ".importtime.txt"))
            units = per_layer_units()
        else:
            units = END_TO_END
        try:
            metrics = (per_layer_metrics(run, tracer, extra) if args.trace
                       else end_to_end_metrics(run, setup_times))
        except statistics.StatisticsError:
            if not run.failed:
                raise
            metrics, units = {}, {}     # failed ops left an op kind empty
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1
