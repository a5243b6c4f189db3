"""Self-tests of the benchmark's generators, truths and gate.

    python -m pytest perfbench/tests -q

They check that every generated profile classifies as its generator says,
that every probe lies inside or outside the region as its generator says
(judged by a brute-force membership test on the report's curves), and
that the wrong-verdict counter catches a containment check that is fast
but wrong.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spiralbounds as sb  # noqa: E402
from spiralbounds import regions  # noqa: E402
from spiralbounds.profile_io import region_report  # noqa: E402

import bench  # noqa: E402
import gen  # noqa: E402
import geom  # noqa: E402
from pipeline import NO_TRACE  # noqa: E402


def _cases(workload, seed, limit=None):
    wid, make = bench.WORKLOADS[workload][:2]
    cases = make(np.random.default_rng([wid, seed]), NO_TRACE)
    return cases[:limit]


def _analysis(case):
    return sb.analyze(sb.SplineInput(case.points, case.tau_start,
                                     case.tau_end, case.closed))


def _judge(case):
    an = _analysis(case)
    cls = an.classification
    assert (cls.kind, cls.direction) == (case.expect_kind,
                                         case.expect_direction), case.name
    if case.reject_node is not None:
        with pytest.raises(sb.ClassificationError,
                           match=r"\bnode %d\b" % case.reject_node):
            sb.build_region(an)
        return
    region = sb.build_region(an)
    assert region.grade == case.expect_grade
    truth = geom.inside(region_report(an, region), case.probes)
    wrong = np.nonzero(truth != case.probe_inside)[0]
    assert wrong.size == 0, (case.name, case.probe_kind[wrong])
    if case.curve is not None and case.curve_generating:
        tol = 1e-9 * max(ch.frame.half_length for ch in region.chords)
        assert geom.inside(region_report(an, region), case.curve, tol).all()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batch_profiles_classify_and_probe_truths_hold(seed):
    cases = _cases("batch-small", seed, limit=150)
    kinds = {c.expect_kind for c in cases}
    directions = {c.expect_direction for c in cases}
    assert kinds == {"spiral", "piecewise", "inadmissible"}
    assert {"increasing", "decreasing"} <= directions
    for case in cases:
        _judge(case)


@pytest.mark.parametrize("workload", ["spiral-check", "oval-analyze"])
def test_large_profiles_classify_and_probe_truths_hold(workload):
    (case,) = _cases(workload, 3)
    _judge(case)


def test_golden_profiles_match_golden_file():
    golden = json.loads((HERE / "golden.json").read_text())["cases"]
    for case in gen.golden_cases():
        _judge(case)
        if case.reject_node is None:
            region = sb.build_region(_analysis(case))
            np.testing.assert_allclose([ch.width for ch in region.chords],
                                       golden[case.name]["widths"],
                                       rtol=bench.WIDTH_RTOL)


def test_same_seed_same_inputs():
    a, b = _cases("batch-small", 5, 40), _cases("batch-small", 5, 40)
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)
        assert x.probes is None or np.array_equal(x.probes, y.probes)


def _wrong_ratio(tmp_path, case):
    run = bench.Run()
    tmp_path.mkdir()
    (item,) = bench._write_items([case], tmp_path, np.random.default_rng(0),
                                 0, 0)
    assert bench.do_check(run, NO_TRACE, item) is not None
    assert run.failed == 0
    return run.wrong / run.probes


def _permissive(analysis, grade="auto", overrides=None):
    """Stand-in region: half-discs over every chord, so nearly all passes."""
    region = sb.simple_region(analysis)
    wide = [dataclasses.replace(ch, lower=sb.Arc(ch.frame.half_length,
                                                 -0.5 * math.pi),
                                upper=sb.Arc(ch.frame.half_length,
                                             0.5 * math.pi))
            for ch in region.chords]
    return dataclasses.replace(region, chords=wide)


def test_permissive_region_drives_wrong_verdicts_up(tmp_path, monkeypatch):
    case = gen.spiral_case(np.random.default_rng(4), 60, scale=50.0,
                           growth=-0.05, theta0=0.0, span=6.0, jitter=0.2,
                           curve_samples=600)
    honest = _wrong_ratio(tmp_path / "honest", case)
    monkeypatch.setattr(regions, "build_region", _permissive)
    fooled = _wrong_ratio(tmp_path / "fooled", case)
    outside = np.count_nonzero(~case.probe_inside) / len(case.probes)
    assert fooled > honest + 0.5 * outside


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.per_layer_units()


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
