"""Command-line interface: subcommands, flags, exit codes.

Exit code contract: 0 success / containment pass, 1 containment fail,
2 bad data (inadmissible or degenerate), 3 bad input (files, syntax,
overrides, arguments).
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spiralbounds.analysis import SplineInput
from spiralbounds.cli import build_parser, main
from spiralbounds.errors import EmptySamplesError, ParseError
from spiralbounds.profile_io import load_samples
from spiralbounds.splinefit import cubic_spline_fixture

from conftest import sparse_dataset, write_profile


@pytest.fixture(scope="module")
def circle_profile(tmp_path_factory, _circle):
    return write_profile(tmp_path_factory.mktemp("cli") / "circle.json",
                         _circle)


@pytest.fixture(scope="module")
def _circle():
    from spiralbounds.experiments import circle_dataset
    return circle_dataset()


@pytest.fixture(scope="module")
def sparse_profile(tmp_path_factory):
    return write_profile(tmp_path_factory.mktemp("cli2") / "sparse.json",
                         sparse_dataset())


@pytest.fixture(scope="module")
def sparse_samples(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli3") / "spline.txt"
    np.savetxt(str(path), cubic_spline_fixture(sparse_dataset()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_json_report(capsys, circle_profile):
    code, out, _ = run(capsys, "analyze", circle_profile)
    assert code == 0
    rep = json.loads(out)
    assert rep["grade"] == "narrowed"
    assert rep["classification"]["kind"] == "spiral"
    assert rep["width"] < 1e-10


def test_analyze_grade_flag(capsys, circle_profile):
    code, out, _ = run(capsys, "analyze", circle_profile,
                       "--grade", "simple")
    assert code == 0
    assert json.loads(out)["grade"] == "simple"


def test_analyze_svg_flag(capsys, tmp_path, circle_profile):
    svg = tmp_path / "region.svg"
    code, _, _ = run(capsys, "analyze", circle_profile, "--svg", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg " in text


def test_analyze_unwritable_svg_exits_3_without_report(capsys, tmp_path,
                                                      circle_profile):
    svg = tmp_path / "no-such-dir" / "region.svg"
    code, out, err = run(capsys, "analyze", circle_profile, "--svg", str(svg))
    assert code == 3
    assert out == ""
    assert "error" in err


def test_analyze_degrees_flag(capsys, tmp_path, _circle):
    prof = {"version": 1,
            "points": [[float(x), float(y)] for x, y in _circle.points],
            "closed": False,
            "tangents": {"start": 0.0, "end": 60.0}}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(prof))
    code, out, _ = run(capsys, "analyze", str(path), "--degrees")
    assert code == 0
    assert json.loads(out)["classification"]["direction"] == "constant"


def test_analyze_inadmissible_exits_2(capsys, tmp_path):
    pts = [[0.0, 0.0], [0.4, 0.0],
           [0.4 + 2.0 * math.cos(2.0), 2.0 * math.sin(2.0)]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "points": pts,
                                "closed": False,
                                "tangents": {"start": 0.0, "end": 2.0}}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error" in err


def test_analyze_non_number_coordinate_exits_3(capsys, tmp_path):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"version": 1, "closed": True,
                                "points": [[0, 0], [True, "0.1"], [1, 1]]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert out == ""
    assert re.search(r"\bpoint 2\b", err)


@pytest.mark.parametrize("points", [5, [[0, 0], 3, [1, 1], [2, 0]]])
def test_analyze_points_not_pairs_exits_3(capsys, tmp_path, points):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"version": 1, "closed": True,
                                "points": points}))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert "'points'" in err


def _nested(depth):
    return "[" * depth + "1" + "]" * depth


# a value nested past the interpreter's recursion limit, in each part of
# a profile or sample file that holds values: exit 3 naming the file, not
# a traceback (exit 1 is a failed containment check)
DEEP_PROFILES = {
    "points": '{"version": 1, "points": [[0, 0], [%s, 1], [2, 0]], '
              '"tangents": {"start": 0, "end": 0}}',
    "tangents": '{"version": 1, "points": [[0, 0], [1, 1], [2, 0]], '
                '"tangents": {"start": %s, "end": 0}}',
    "curvature_overrides": '{"version": 1, "points": [[0, 0], [1, 1], '
                           '[2, 0]], "tangents": {"start": 0, "end": 0}, '
                           '"curvature_overrides": {"2": %s}}',
}


@pytest.mark.parametrize("depth", [1010, 5000])
@pytest.mark.parametrize("part", sorted(DEEP_PROFILES))
def test_analyze_deeply_nested_profile_exits_3(capsys, tmp_path, part,
                                               depth):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_PROFILES[part] % _nested(depth))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == "error: profile %s nests too deeply\n" % path


@pytest.mark.parametrize("depth", [1010, 5000])
def test_check_deeply_nested_sample_exits_3(capsys, tmp_path, circle_profile,
                                            depth):
    path = tmp_path / "deep.json"
    path.write_text("[[%s, 1], [2, 3]]" % _nested(depth))
    code, out, err = run(capsys, "check", circle_profile, str(path))
    assert (code, out) == (3, "")
    assert err == "error: sample file %s nests too deeply\n" % path


def test_shallow_nesting_keeps_its_error(capsys, tmp_path, circle_profile):
    path = tmp_path / "shallow.json"
    path.write_text("[[%s, 1], [2, 3]]" % _nested(3))
    code, _, err = run(capsys, "check", circle_profile, str(path))
    assert code == 3
    assert err == ("error: sample file %s: sample 0 has a coordinate that "
                   "is not a finite number: [[[1]]]\n" % path)


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_file_that_is_not_utf8_exits_3(capsys, tmp_path, circle_profile,
                                       command):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe 1 2\n")
    argv = [str(path)] if command == "analyze" else [circle_profile,
                                                     str(path)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read ") and str(path) in err


def test_analyze_steep_boundary_exits_2(capsys, tmp_path):
    # closed data so coarse that a boundary of chord 1 is not a graph
    # over the chord
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({"version": 1, "closed": True, "points": [
        [-2, 2], [-2, -3], [3, -4], [1, -1], [-3, -3]]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert "chord 1: boundary tangent angle 1.69515 exceeds pi/2" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["analyze", "check"])
@pytest.mark.parametrize("edit, named", [
    ({"tangents": {"start": "BIG", "end": 0.5}}, r"\bstart tangent\b"),
    ({"tangents": {"start": 0.1, "end": ["BIG", 1.0]}}, r"\bend tangent\b"),
    ({"curvature_overrides": {"2": {"a": "BIG"}}}, r"\bnode 2\b"),
    ({"version": True}, r"\bversion True\b"),
    ({"points": [[0, 0, 0], [1, 1, 1], [2, 2, 2]]}, r"\(3, 3\)"),
], ids=["angle", "vector", "override", "version", "shape"])
def test_bad_profile_value_exits_3(capsys, tmp_path, command, edit, named):
    # BIG stands for an integer literal past the float range, which json
    # reads as a Python int that float() cannot convert
    prof = json.loads((GOLDEN / "spiral-inc.json").read_text())
    prof.update(edit)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(prof).replace('"BIG"', "1" + "0" * 400))
    samples = [str(GOLDEN / "spiral-inc.pass.txt")] * (command == "check")
    code, out, err = run(capsys, command, str(path), *samples)
    assert (code, out) == (3, "")
    assert re.search(named, err)


def test_analyze_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "does-not-exist.json")
    assert code == 3
    assert "error" in err


def test_analyze_bad_override_exits_3(capsys, tmp_path, _circle):
    from conftest import profile_dict
    prof = profile_dict(_circle, curvature_overrides={"99": {"a": 0.0}})
    path = tmp_path / "ov.json"
    path.write_text(json.dumps(prof))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3


@pytest.mark.parametrize("overrides", [
    '{"1": {"a": 0.0}, "1": {"a": 0.1}}',
    '{"1": {"a": 0.0}, "01": {"b": 1.0}}',
])
def test_analyze_node_overridden_twice_exits_3(capsys, tmp_path, _circle,
                                               overrides):
    from conftest import profile_dict
    text = json.dumps(profile_dict(_circle, curvature_overrides={}))
    path = tmp_path / "twice.json"
    path.write_text(text.replace('"curvature_overrides": {}',
                                 '"curvature_overrides": ' + overrides))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert out == ""
    assert re.search(r"\bnode 1\b|key '1'", err)


@pytest.mark.parametrize("grade", ["simple", "vertex", "narrowed"])
def test_analyze_override_past_last_node_exits_3_at_every_grade(
        capsys, tmp_path, grade):
    # overrides are checked for every grade, though only the narrowed
    # grade uses them
    prof = json.loads((GOLDEN / "spiral-inc.json").read_text())
    prof["curvature_overrides"] = {"99": {"a": 1e9}}
    path = tmp_path / "past.json"
    path.write_text(json.dumps(prof))
    code, out, err = run(capsys, "analyze", str(path), "--grade", grade)
    assert (code, out) == (3, "")
    assert "nodes run 1..9" in err


def test_analyze_override_key_not_node_number_exits_3(capsys, tmp_path):
    # int(" 2 ") is 2, which would quietly apply the override to node 2
    prof = json.loads((GOLDEN / "spiral-inc.json").read_text())
    prof["curvature_overrides"] = {" 2 ": {"a": -1e9}}
    path = tmp_path / "key.json"
    path.write_text(json.dumps(prof))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert "key ' 2 '" in err


def test_override_tightens_from_profile(capsys, tmp_path, _circle):
    # raising the first node floor to the exact circle curvature keeps
    # the region valid (the circle is the extreme member)
    from conftest import profile_dict
    prof = profile_dict(_circle, curvature_overrides={"1": {"a": 0.1}})
    path = tmp_path / "ov2.json"
    path.write_text(json.dumps(prof))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["width"] < 1e-9


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_pass(capsys, tmp_path, circle_profile):
    t = np.linspace(0.0, math.radians(60.0), 3000)
    pts = np.column_stack([10 * np.sin(t), 10 * (1 - np.cos(t))])
    samples = tmp_path / "on_circle.txt"
    np.savetxt(str(samples), pts)
    code, out, _ = run(capsys, "check", circle_profile, str(samples))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_check_fail_exits_1(capsys, sparse_profile, sparse_samples):
    code, out, _ = run(capsys, "check", sparse_profile, sparse_samples)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert rep["worst_margin"] < -1e-3


def test_check_tol_flag_loosens(capsys, sparse_profile, sparse_samples):
    code, out, _ = run(capsys, "check", sparse_profile, sparse_samples,
                       "--tol", "1.0")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_check_non_number_sample_exits_3(capsys, tmp_path, circle_profile):
    samples = tmp_path / "typed.json"
    samples.write_text('[[0.5, "0.02"], [false, 0], [1.0, 0.05]]')
    code, out, err = run(capsys, "check", circle_profile, str(samples))
    assert code == 3
    assert out == ""
    assert re.search(r"\bsample 0\b", err)


@pytest.mark.parametrize("name, text, error, named", [
    ("missing.txt", None, ParseError, r"cannot read samples \S*missing\.txt"),
    ("empty.txt", "", EmptySamplesError, r"empty\.txt is empty"),
    ("blank.txt", " \n\n", EmptySamplesError, r"blank\.txt is empty"),
    ("broken.json", "[[0, 1], [2,", ParseError,
     r"broken\.json is not valid JSON"),
    ("short.txt", "0 1\n# comment\n2\n", ParseError,
     r"short\.txt line 3: expected 'x y'"),
])
def test_check_bad_sample_file_exits_3(capsys, tmp_path, circle_profile,
                                       name, text, error, named):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    with pytest.raises(error, match=named):
        load_samples(str(path))
    code, out, err = run(capsys, "check", circle_profile, str(path))
    assert (code, out) == (3, "")
    assert re.search(named, err)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_bad_tol_exits_3(capsys, tol):
    code, out, err = run(capsys, "check", str(GOLDEN / "spiral-inc.json"),
                         str(GOLDEN / "spiral-inc.fail.txt"), "--tol", tol)
    assert code == 3
    assert out == ""
    assert "got %r" % float(tol) in err


@pytest.mark.parametrize("profile", ["spiral-inc", "oval"])
def test_check_sample_too_large_to_measure_exits_3(capsys, tmp_path,
                                                   profile):
    samples = tmp_path / "huge.txt"
    samples.write_text("1.7e308 1.7e308\n")
    code, out, err = run(capsys, "check", str(GOLDEN / (profile + ".json")),
                         str(samples))
    assert (code, out) == (3, "")
    assert "sample 0 is too large to measure" in err


def test_check_curvature_plot(capsys, tmp_path, sparse_profile,
                              sparse_samples):
    plot = tmp_path / "q.txt"
    run(capsys, "check", sparse_profile, sparse_samples,
        "--curvature-plot", str(plot))
    data = np.loadtxt(str(plot))
    assert data.shape[1] == 2
    assert data.shape[0] > 100


def test_check_curvature_plot_of_two_samples_exits_3(capsys, tmp_path,
                                                    circle_profile):
    samples = tmp_path / "two.txt"
    samples.write_text("0 0\n0.5 0.01\n")
    code, out, err = run(capsys, "check", circle_profile, str(samples),
                         "--curvature-plot", str(tmp_path / "q.txt"))
    assert (code, out) == (3, "")
    assert "(n >= 3, 2) sample array" in err


def test_check_curvature_plot_error_exits_3_without_report(
        capsys, tmp_path, circle_profile):
    # samples inside the region, but one point repeats: the verdict would
    # be a pass, and the plot of the samples' curvature cannot be made;
    # samples are named from 0, as in the compliance report
    t = np.linspace(0.0, math.radians(60.0), 300)
    pts = np.column_stack([10 * np.sin(t), 10 * (1 - np.cos(t))])
    samples = tmp_path / "repeat.txt"
    np.savetxt(str(samples), np.vstack([pts[:100], pts[99:]]))
    plot = tmp_path / "q.txt"
    code, out, err = run(capsys, "check", circle_profile, str(samples),
                         "--curvature-plot", str(plot))
    assert code == 3
    assert out == ""
    assert "samples 99 and 100 coincide" in err


def test_check_curvature_plot_of_folded_samples_exits_2(capsys, tmp_path):
    # the third sample turns straight back: its three-point circle has no
    # finite curvature
    samples = tmp_path / "fold.txt"
    samples.write_text("0 0\n1 0.01\n2 0.05\n1 0.01\n")
    plot = tmp_path / "q.txt"
    code, out, err = run(capsys, "check", str(GOLDEN / "spiral-inc.json"),
                         str(samples), "--curvature-plot", str(plot))
    assert (code, out) == (2, "")
    assert "sample 2 folds back onto itself" in err
    assert not plot.exists()


# ---------------------------------------------------------------------------
# spline-fixture
# ---------------------------------------------------------------------------


def test_spline_fixture_stdout(capsys, sparse_profile):
    code, out, _ = run(capsys, "spline-fixture", sparse_profile)
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 4 * 64
    floats = np.array(rows, dtype=float)
    assert floats.shape == (256, 2)


def test_spline_fixture_output_file(capsys, tmp_path, sparse_profile):
    dest = tmp_path / "fix.txt"
    code, _, _ = run(capsys, "spline-fixture", sparse_profile,
                     "--samples-per-chord", "10", "-o", str(dest))
    assert code == 0
    assert np.loadtxt(str(dest)).shape == (40, 2)


def test_spline_fixture_stdout_equals_output_file(capsys, tmp_path,
                                                  sparse_profile):
    dest = tmp_path / "fix.txt"
    code, out, _ = run(capsys, "spline-fixture", sparse_profile)
    assert code == 0
    assert run(capsys, "spline-fixture", sparse_profile,
               "-o", str(dest))[:2] == (0, "")
    assert dest.read_text() == out
    samples = cubic_spline_fixture(sparse_dataset())
    assert out == "".join("%.17g %.17g\n" % (x, y) for x, y in samples)


def test_spline_fixture_coincident_nodes_exit_3(capsys, tmp_path):
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [2.0, 0.5]])
    profile = write_profile(tmp_path / "dup.json",
                            SplineInput(pts, tau_start=0.0, tau_end=0.3))
    code, out, err = run(capsys, "spline-fixture", profile)
    assert code == 3
    assert out == ""
    assert "points 1 and 2 coincide" in err


# ---------------------------------------------------------------------------
# rounding-experiment
# ---------------------------------------------------------------------------


def test_rounding_experiment_report(capsys):
    code, out, _ = run(capsys, "rounding-experiment")
    assert code == 0
    rep = json.loads(out)
    assert rep["target_curvature"] == 0.1
    assert rep["trend_sign_changes"] >= 5
    assert rep["max_deviation"] > 0.03
    assert len(rep["rounded_q"]) == 21
    # the documented layout: what json.dumps(indent=2) writes
    assert out == json.dumps(rep, indent=2, allow_nan=True) + "\n"


def test_rounding_experiment_plot_files(capsys, tmp_path):
    prefix = str(tmp_path / "beat")
    code, _, _ = run(capsys, "rounding-experiment", "--plot", prefix)
    assert code == 0
    exact = np.loadtxt(prefix + "-exact.txt")
    rounded = np.loadtxt(prefix + "-rounded.txt")
    assert exact.shape == rounded.shape == (21, 2)
    np.testing.assert_allclose(exact[:, 1], 0.1, atol=1e-12)


# ---------------------------------------------------------------------------
# argument errors and module entry
# ---------------------------------------------------------------------------


def test_no_arguments_exits_3(capsys):
    assert run(capsys, )[0] == 3


def test_unknown_subcommand_exits_3(capsys):
    assert run(capsys, "frobnicate")[0] == 3


def test_bad_flag_value_exits_3(capsys, circle_profile):
    code, _, _ = run(capsys, "analyze", circle_profile, "--grade", "fancy")
    assert code == 3


def test_module_entry_point(circle_profile):
    # one real subprocess pass through python -m
    r = subprocess.run([sys.executable, "-m", "spiralbounds",
                        "analyze", circle_profile],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["classification"]["kind"] == "spiral"


# ---------------------------------------------------------------------------
# README agrees with the parser
# ---------------------------------------------------------------------------


def test_readme_usage_flags_exist():
    # every flag in README's `spiralbounds …` usage blocks must parse
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flag = re.compile(r"(?<![\w-])--?[a-z][\w-]*")
    usages = [(block.split()[1], flag.findall(block))
              for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
              if block.startswith("spiralbounds ")]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(cmd for cmd, _ in usages) == sorted(sub.choices)
    for cmd, flags in usages:
        known = sub.choices[cmd]._option_string_actions
        assert [f for f in flags if f not in known] == [], cmd


# Collinear data: every three-point circle is the line itself, so each
# grade's region is the chain of chords, of width 0.  The y of every
# node is 0, so xi = arctan2(-0.0, .) = -0.0 on every chord.
COLLINEAR_PASS = """{
  "verdict": "pass",
  "tol": 1e-09,
  "samples": 7,
  "unassigned": 0,
  "worst_margin": 0.0,
  "violations": [],
  "violation_count": 0
}
"""
COLLINEAR_FAIL = """{
  "verdict": "fail",
  "tol": 1e-09,
  "samples": 4,
  "unassigned": 0,
  "worst_margin": -0.01,
  "violations": [
    {
      "sample": 1,
      "chord": 2,
      "x_local": -0.050000000000000044,
      "margin": -0.001
    },
    {
      "sample": 3,
      "chord": 4,
      "x_local": 0.0,
      "margin": -0.01
    }
  ],
  "violation_count": 2
}
"""


@pytest.mark.parametrize("grade", ["auto", "simple", "vertex", "narrowed"])
def test_collinear_data_at_every_grade(capsys, grade):
    profile = str(GOLDEN / "collinear.json")
    code, out, err = run(capsys, "analyze", profile, "--grade", grade)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["classification"] == {"kind": "spiral",
                                        "direction": "constant",
                                        "vertices": []}
    assert report["width"] == 0.0
    assert all(ch["width"] == 0.0 for ch in report["chords"])
    # the stored stdout is the auto grade's, which is narrowed; every
    # grade's boundaries are arcs of phi = -0.0, printed as lens rows
    want = (GOLDEN / "collinear.expected.json").read_text()
    shown = "narrowed" if grade == "auto" else grade
    assert out == want.replace('"grade": "narrowed"',
                               '"grade": "%s"' % shown)
    assert all(ch[side] == {"type": "arc", "c": ch["half_length"],
                            "phi": -0.0} for ch in report["chords"]
               for side in ("lower", "upper"))
    for samples, exit_code, want in (("on", 0, COLLINEAR_PASS),
                                     ("off", 1, COLLINEAR_FAIL)):
        path = str(GOLDEN / ("collinear.%s.txt" % samples))
        assert run(capsys, "check", profile, path, "--grade", grade) == (
            exit_code, want, "")
