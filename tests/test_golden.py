"""Golden diff of the CLI's JSON output on fixed profiles.

Each case runs `cli.main` in-process on files under tests/golden/ and
compares the printed JSON with the stored expectation.  Keys (and their
order), strings, ints, booleans, None and list lengths must match
exactly, which pins the classification, the vertices, the verdict and
the violation indices.  Floats must agree to rtol 1e-9 plus an atol of
1e-12 times the field's largest magnitude, a field being a key path with
list positions dropped (`chords[].width`) and its magnitude taken over
every expected file, so a value that is rounding noise in one case (the
circle's widths) is judged against what the field holds elsewhere.

The SVG that `analyze --svg` writes is pinned the same way, for every
golden profile at each grade it admits: the text between numbers must
match exactly and the numbers to rtol 1e-9, plus an atol of 1e-12 times
the largest number in the expected file.

Regenerate the expectations, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the expectations that these comparisons reject (or
that are missing), so its diff shows what the change moved and nothing
else.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from spiralbounds import compliance
from spiralbounds.cli import main
from spiralbounds.profile_io import load_profile, load_samples

GOLDEN = Path(__file__).resolve().parent / "golden"

# name: (CLI arguments, files relative to GOLDEN; expected exit code)
CASES = {
    "circle": (["analyze", "circle.json"], 0),
    "spiral-inc": (["analyze", "spiral-inc.json"], 0),
    "spiral-inc-simple": (["analyze", "spiral-inc.json", "--grade",
                           "simple"], 0),
    "spiral-dec": (["analyze", "spiral-dec.json"], 0),
    "oval": (["analyze", "oval.json"], 0),
    "overrides": (["analyze", "overrides.json"], 0),
    "check-pass": (["check", "spiral-inc.json", "spiral-inc.pass.txt"], 0),
    "check-fail": (["check", "spiral-inc.json", "spiral-inc.fail.txt"], 1),
    # 300 chords, 3 log-spiral samples each, some pushed in or out, one
    # beyond the start and one far outside node 150: the grid path
    "check-grid": (["check", "spiral-grid.json", "spiral-grid.txt"], 1),
    # a 512-chord closed oval, 90 nodes pushed outward along the bisector
    # (about half stay in their node wedge, the rest are spanned by
    # chords across the oval) and 60 samples at 1.6 times its size, which
    # only chords across it span: the grid's far path
    "check-oval-grid": (["check", "oval-grid.json", "oval-grid.txt"], 1),
}

# profile: the grades it admits, each pinned as <profile>-<grade>.expected.svg
SVG_GRADES = {
    "circle": ("simple", "vertex", "narrowed"),
    "oval": ("vertex",),
    "overrides": ("simple", "vertex", "narrowed"),
    "spiral-dec": ("simple", "vertex", "narrowed"),
    "spiral-inc": ("simple", "vertex", "narrowed"),
}
SVG_CASES = {"%s-%s" % (profile, grade): (profile, grade)
             for profile, grades in SVG_GRADES.items() for grade in grades}
# a number not glued to a word, "#" or "/": colours and the namespace
# URL are text
NUMBER = re.compile(r"(?<![\w#./])-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _stdout(args):
    argv = [str(GOLDEN / a) if a.endswith((".json", ".txt")) else a
            for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run(args):
    code, text = _stdout(args)
    return code, json.loads(text)


def _expected(name):
    return json.loads((GOLDEN / (name + ".expected.json")).read_text())


def _magnitudes(doc, field, out):
    if isinstance(doc, dict):
        for key, value in doc.items():
            _magnitudes(value, field + "." + key, out)
    elif isinstance(doc, list):
        for value in doc:
            _magnitudes(value, field + "[]", out)
    elif isinstance(doc, float) and math.isfinite(doc):
        out[field] = max(out.get(field, 0.0), abs(doc))
    return out


def _scale():
    """Per field, its largest magnitude over every expected file."""
    out = {}
    for name in CASES:
        if (GOLDEN / (name + ".expected.json")).exists():
            _magnitudes(_expected(name), "", out)
    return out


@pytest.fixture(scope="module")
def scale():
    return _scale()


def _compare(got, want, field, where, scale):
    assert type(got) is type(want), "%s: %r != %r" % (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), "%s: keys differ" % where
        for key in want:
            _compare(got[key], want[key], field + "." + key,
                     "%s.%s" % (where, key), scale)
    elif isinstance(want, list):
        assert len(got) == len(want), "%s: length differs" % where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, field + "[]", "%s[%d]" % (where, i), scale)
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), "%s: %r is not nan" % (where, got)
    elif isinstance(want, float):
        atol = 1e-12 * scale.get(field, 0.0)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=atol), (
            "%s: %r != %r" % (where, got, want))
    else:
        assert got == want, "%s: %r != %r" % (where, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, scale):
    args, exit_code = CASES[name]
    code, doc = _run(args)
    assert code == exit_code
    _compare(doc, _expected(name), "", name, scale)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_indented_json(name):
    # README's layout: json.dumps(report, indent=2), whatever writes it
    _, text = _stdout(CASES[name][0])
    assert text == json.dumps(json.loads(text), indent=2,
                              allow_nan=True) + "\n"


def test_grid_case_takes_the_grid():
    # check_containment files chords in a grid only above CHUNK pairs
    for name in ("spiral-grid", "oval-grid"):
        data, _ = load_profile(GOLDEN / (name + ".json"))
        samples = load_samples(GOLDEN / (name + ".txt"))
        chords = len(data.points) - (not data.closed)
        assert len(samples) * chords > compliance.CHUNK, name


def _svg(name, path):
    """Write the SVG of case `name` to path; returns the exit code."""
    profile, grade = SVG_CASES[name]
    code, _ = _stdout(["analyze", profile + ".json", "--grade", grade,
                       "--svg", str(path)])
    return code


def _compare_svg(got, want, name):
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), "%s: line count differs" % name
    atol = 1e-12 * max(abs(float(v)) for v in NUMBER.findall(want))
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        where = "%s line %d" % (name, i)
        assert NUMBER.split(g) == NUMBER.split(w), "%s: %r != %r" % (
            where, g, w)
        for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
            assert math.isclose(float(a), float(b), rel_tol=1e-9,
                                abs_tol=atol), "%s: %s != %s" % (where, a, b)


@pytest.mark.parametrize("name", sorted(SVG_CASES))
def test_svg_matches_golden(name, tmp_path):
    path = tmp_path / "region.svg"
    assert _svg(name, path) == 0
    want = (GOLDEN / (name + ".expected.svg")).read_text()
    _compare_svg(path.read_text(), want, name)


def _rejects(compare, *args):
    try:
        compare(*args)
    except AssertionError:
        return True
    return False


def _regenerate():
    """Rewrite the expectations that the tests above reject."""
    scale = _scale()
    for name, (args, exit_code) in CASES.items():
        code, doc = _run(args)
        if code != exit_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, exit_code))
        path = GOLDEN / (name + ".expected.json")
        if not path.exists() or _rejects(_compare, doc, _expected(name), "",
                                         name, scale):
            path.write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n")
            print("rewrote", path.name)
    with tempfile.TemporaryDirectory() as tmp:
        for name in SVG_CASES:
            out = Path(tmp) / "region.svg"
            if _svg(name, out) != 0:
                sys.exit("%s: analyze --svg failed" % name)
            got = out.read_text()
            path = GOLDEN / (name + ".expected.svg")
            if not path.exists() or _rejects(_compare_svg, got,
                                             path.read_text(), name):
                path.write_text(got)
                print("rewrote", path.name)


if __name__ == "__main__":
    _regenerate()
