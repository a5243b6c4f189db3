"""Profile parsing, sample files, and report serialization."""

import dataclasses
import io
import json
import math
import operator
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiralbounds import profile_io, regions
from spiralbounds.analysis import SplineInput, analyze
from spiralbounds.compliance import check_containment
from spiralbounds.errors import DataError, EmptySamplesError, ParseError
from spiralbounds.geometry import Arc
from spiralbounds.profile_io import (
    Rows,
    compliance_report_dict,
    load_profile,
    load_samples,
    parse_profile,
    region_report,
    report_json,
    save_columns,
    write_columns,
    write_report,
)
from spiralbounds.regions import build_region

from arcspline import arc_spline_dataset, random_arc_spline
from conftest import hand_made, profile_dict, sparse_dataset, write_profile
from logspiral import LogSpiral

VALID = {
    "version": 1,
    "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
    "closed": False,
    "tangents": {"start": 0.0, "end": 1.5707963267948966},
}


def test_parse_minimal_profile():
    data, overrides = parse_profile(VALID)
    assert data.points.shape == (3, 2)
    assert not data.closed
    assert overrides == {}
    npt.assert_allclose(data.tau_end, math.pi / 2)


def test_parse_vector_tangents():
    prof = dict(VALID, tangents={"start": [2.0, 0.0], "end": [0.0, -3.0]})
    data, _ = parse_profile(prof)
    npt.assert_allclose(data.tau_start, 0.0)
    npt.assert_allclose(data.tau_end, -math.pi / 2)


def test_parse_degrees_flag():
    prof = dict(VALID, tangents={"start": 0.0, "end": 90.0})
    data, _ = parse_profile(prof, degrees=True)
    npt.assert_allclose(data.tau_end, math.pi / 2)
    # vectors are direction pairs, unaffected by the flag
    prof = dict(VALID, tangents={"start": [1.0, 1.0], "end": 90.0})
    data, _ = parse_profile(prof, degrees=True)
    npt.assert_allclose(data.tau_start, math.pi / 4)


def test_parse_closed_profile():
    prof = {"version": 1, "closed": True,
            "points": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]}
    data, _ = parse_profile(prof)
    assert data.closed and data.tau_start is None


def test_parse_overrides():
    prof = dict(VALID, curvature_overrides={"2": {"a": -0.5, "b": 2.0},
                                            "1": {"a": 0.0}})
    _, overrides = parse_profile(prof)
    assert overrides == {2: {"a": -0.5, "b": 2.0}, 1: {"a": 0.0}}


@pytest.mark.parametrize("mutate", [
    lambda p: p.update(version=2),
    lambda p: p.update(extra_key=1),
    lambda p: p.update(points=[[0, 0], [1, 1]]),
    lambda p: p.update(points=[[0, 0], [1, "x"], [2, 2]]),
    lambda p: p.update(points=[[0, 0], [1, math.nan], [2, 2]]),
    lambda p: p.update(closed="yes"),
    lambda p: p.update(tangents={"start": 0.0}),
    lambda p: p.update(tangents={"start": 0.0, "end": [0.0, 0.0]}),
    lambda p: p.update(tangents={"start": 0.0, "middle": 1.0, "end": 0.0}),
    lambda p: p.update(tangents={"start": True, "end": 0.0}),
    lambda p: p.update(curvature_overrides={"x": {"a": 0.0}}),
    lambda p: p.update(curvature_overrides={"1": {"c": 0.0}}),
    lambda p: p.update(curvature_overrides={"1": {"a": "big"}}),
    lambda p: p.update(curvature_overrides=[1, 2]),
    lambda p: p.update(version=True),
    lambda p: p.update(tangents={"start": 10 ** 400, "end": 0.0}),
    lambda p: p.update(tangents={"start": 0.0, "end": [1.0, 10 ** 400]}),
    lambda p: p.update(closed=True, tangents={}),
])
def test_parse_rejects_malformed(mutate):
    prof = json.loads(json.dumps(VALID))
    mutate(prof)
    with pytest.raises(ParseError):
        parse_profile(prof)


@pytest.mark.parametrize("value", ["NaN", "-Infinity", "Infinity", "true",
                                   '"x"'])
def test_parse_rejects_bad_override_number_and_names_node(value):
    # JSON's NaN and infinities decode to floats; none is a usable bound
    text = json.dumps(dict(VALID, curvature_overrides={"3": {"a": 0.0}}))
    prof = json.loads(text.replace('{"a": 0.0}', '{"a": %s}' % value))
    with pytest.raises(ParseError, match=r"\bnode 3\b"):
        parse_profile(prof)


@pytest.mark.parametrize("side, value", [
    ("start", math.nan),
    ("end", math.inf),
    ("end", [1.0, math.nan]),
    ("start", [math.inf, 1.0]),
])
def test_parse_rejects_non_finite_tangent(side, value):
    prof = json.loads(json.dumps(VALID))
    prof["tangents"][side] = value
    with pytest.raises(ParseError, match=r"\b%s tangent\b" % side):
        parse_profile(prof)


@pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
def test_parse_rejects_non_number_coordinate_and_names_point(value):
    # numpy reads true as 1.0, "0.1" as 0.1 and null as NaN
    prof = dict(VALID, points=[[0.0, 0.0], [1.0, value], [1.0, 1.0]])
    with pytest.raises(ParseError, match=r"\bpoint 2\b"):
        parse_profile(prof)


def test_parse_rejects_integer_beyond_float_range():
    prof = dict(VALID, points=[[0.0, 0.0], [10 ** 400, 0.0], [1.0, 1.0]])
    with pytest.raises(ParseError):
        parse_profile(prof)


def test_parse_rejects_closed_with_tangents():
    prof = {"version": 1, "closed": True,
            "points": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]],
            "tangents": {"start": 0.0, "end": 0.0}}
    with pytest.raises(ParseError):
        parse_profile(prof)


def test_parse_rejects_non_dict():
    with pytest.raises(ParseError):
        parse_profile([1, 2, 3])


def test_load_profile_round_trip(tmp_path, circle_data):
    path = write_profile(tmp_path / "circle.json", circle_data)
    data, overrides = load_profile(path)
    npt.assert_allclose(data.points, circle_data.points)
    assert overrides == {}


def test_parse_rejects_node_named_twice():
    prof = dict(VALID, curvature_overrides={"1": {"a": 0.0}, "01": {"b": 1.0}})
    with pytest.raises(ParseError, match=r"\bnode 1\b"):
        parse_profile(prof)


@pytest.mark.parametrize("overrides", [
    '{"1": {"a": 0.0}, "1": {"b": 1.0}}',
    '{"1": {"a": 0.0, "a": -1.0}}',
])
def test_load_profile_rejects_repeated_key(tmp_path, overrides):
    # json.load alone keeps the last of two equal keys
    text = json.dumps(dict(VALID, curvature_overrides={}))
    p = tmp_path / "twice.json"
    p.write_text(text.replace('"curvature_overrides": {}',
                              '"curvature_overrides": ' + overrides))
    with pytest.raises(ParseError, match="more than once"):
        load_profile(str(p))


def test_load_profile_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_profile(str(p))


def _load_by_json(path):
    """load_profile as json alone reads the file: json.loads with the
    repeated-key hook, then parse_profile."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text, object_pairs_hook=profile_io._unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError("profile %s is not valid JSON: %s"
                         % (path, exc)) from exc
    return parse_profile(obj)


VALID_TEXT = json.dumps(dict(VALID, curvature_overrides={"2": {"a": 0.0}}))


@pytest.mark.parametrize("old, new", [
    # a key named twice: at the top, in tangents, in the overrides, in an
    # override, and in a dict among the points
    ('"closed": false', '"closed": false, "closed": true'),
    ('"start": 0.0', '"start": 0.0, "start": 1.0'),
    ('{"2": {"a": 0.0}}', '{"2": {"a": 0.0}, "2": {"b": 1.0}}'),
    ('{"a": 0.0}', '{"a": 0.0, "a": -1.0}'),
    ("[1.0, 1.0]]", '[1.0, {"x": 1, "x": 2}]]'),
    # whitespace before the colon, with and without a repeated key
    ('"closed": false', '"closed" \n\t : false'),
    ('"closed": false', '"closed"  : false, "closed"\n: true'),
    # a quote and a colon inside a string, with and without a repeated key
    ('"closed": false', '"closed": "no\\": really"'),
    ('{"a": 0.0}', '{"a": "x\\":", "a": 0.0}'),
    # integers past 64 bits, which orjson reads as floats
    ('"version": 1', '"version": %d' % (2 ** 64 + 1)),
    ('"version": 1', '"version": %d' % (-2 ** 63 - 1)),
    ('"end": 1.5707963267948966', '"end": %d' % (2 ** 64 + 1)),
    ('{"a": 0.0}', '{"a": %d}' % 10 ** 30),
    ('"version": 1', '"version": 1e19'),
    # literals orjson refuses: json reads them as nan and inf
    ('"start": 0.0', '"start": NaN'),
    ('"start": 0.0', '"start": 1e400'),
    ('{"a": 0.0}', '{"a": -Infinity}'),
    ("[1.0, 1.0]]", "[1.0, 1e400]]"),
    # the points, read as json reads them
    ("[1.0, 1.0]]", "[1.0, %d]]" % (2 ** 64 + 1)),
    ("[1.0, 1.0]]", "[1.0, %d]]" % 10 ** 400),
    ("[1.0, 1.0]]", "[1.0, true]]"),
    ("[1.0, 1.0]]", "[1.0, 1.0], 7]"),
    ('"closed": false', '"closed": false,'),
], ids=["top", "tangents", "overrides", "override", "in-points",
        "space", "space-twice", "quote-colon", "quote-colon-twice",
        "version-2^64+1", "version-below-int64", "tangent-2^64+1",
        "override-1e30", "version-1e19", "nan", "1e400", "infinity",
        "point-1e400", "point-2^64+1", "point-10^400", "point-true",
        "point-bare", "trailing-comma"])
def test_load_profile_reads_as_json_does_word_for_word(tmp_path, old, new):
    # orjson reads profiles where it reads them as json does; each text
    # here loads to json's value or fails with json's words
    assert old in VALID_TEXT
    path = tmp_path / "profile.json"
    path.write_text(VALID_TEXT.replace(old, new, 1))
    try:
        want = _load_by_json(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_profile(str(path))
        assert str(got.value) == str(exc)
    else:
        data, overrides = load_profile(str(path))
        assert data.points.tobytes() == want[0].points.tobytes()
        assert (data.tau_start, data.tau_end, data.closed) == (
            want[0].tau_start, want[0].tau_end, want[0].closed)
        assert overrides == want[1]


def test_load_profile_reads_every_golden_profile_as_json_does():
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name.endswith(".expected.json"):
            continue
        data, overrides = load_profile(str(path))
        want, want_overrides = _load_by_json(path)
        assert data.points.tobytes() == want.points.tobytes()
        assert (data.tau_start, data.tau_end) == (want.tau_start,
                                                  want.tau_end)
        assert overrides == want_overrides


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------


def test_samples_text_round_trip(tmp_path):
    pts = np.array([[0.1, -0.2], [1.5, 2.5], [-3.0, 0.125]])
    path = tmp_path / "samples.txt"
    save_columns(str(path), pts)
    npt.assert_allclose(load_samples(str(path)), pts, rtol=1e-15)


@pytest.mark.parametrize("rows", [
    [[0.1, -0.0], [1e300, 5e-324], [math.nan, -math.inf], [3, 2 ** 60]],
    [(1, 0.1), (2, 1 / 3)],
    [0.5, -2.0, math.inf],
    np.zeros((0, 2)),
])
def test_save_columns_writes_as_savetxt(tmp_path, rows):
    ours, theirs = tmp_path / "ours.txt", tmp_path / "theirs.txt"
    save_columns(str(ours), rows)
    np.savetxt(str(theirs), np.asarray(rows, dtype=float), fmt="%.17g")
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("block", [3, profile_io.BLOCK])
@pytest.mark.parametrize("rows", [
    np.random.default_rng(3).normal(size=(10, 2)),
    [[0.1, -0.0], [1e300, 5e-324], [math.nan, -math.inf], [3, 2 ** 60]],
    [0.5, -2.0, math.inf, 7.0],
    np.zeros((0, 2)),
])
def test_save_columns_and_stdout_write_the_same_bytes(tmp_path, capsys,
                                                      monkeypatch, block,
                                                      rows):
    # a file and stdout go through one block writer, in blocks of 3 rows
    # as in one block
    monkeypatch.setattr(profile_io, "BLOCK", block)
    path, want = tmp_path / "ours.txt", tmp_path / "theirs.txt"
    save_columns(str(path), rows)
    write_columns(sys.stdout, rows)
    np.savetxt(str(want), np.asarray(rows, dtype=float), fmt="%.17g")
    assert path.read_bytes() == want.read_bytes()
    assert capsys.readouterr().out.encode() == want.read_bytes()


def test_save_columns_memory_does_not_grow_with_the_rows(tmp_path):
    # one block of rows is formatted at a time, so 64 blocks of rows peak
    # no higher than 4 do; the rows themselves are made before tracing
    def peak(blocks):
        rows = np.random.default_rng(blocks).normal(
            size=(blocks * profile_io.BLOCK, 2))
        tracemalloc.start()
        try:
            save_columns(str(tmp_path / "rows.txt"), rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 1.5 * peak(4)


def test_samples_json_array(tmp_path):
    path = tmp_path / "samples.json"
    path.write_text("[[0.0, 1.0], [2.0, 3.0]]")
    npt.assert_allclose(load_samples(str(path)), [[0, 1], [2, 3]])


def test_samples_text_comments(tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("# header\n0 1\n2 3  # trailing\n\n4 5\n")
    npt.assert_allclose(load_samples(str(path)), [[0, 1], [2, 3], [4, 5]])


@pytest.mark.parametrize("value", ["true", "false", '"0.02"', "null", "[1]"])
def test_samples_json_rejects_non_number_and_names_sample(tmp_path, value):
    path = tmp_path / "samples.json"
    path.write_text("[[0.0, 1.0], [2.0, %s], [4.0, 5.0]]" % value)
    with pytest.raises(ParseError, match=r"\bsample 1\b"):
        load_samples(str(path))


@pytest.mark.parametrize("text", ["[[0.0, 1.0], [2.0, 3.0, 4.0]]",
                                  "[[0.0, 1.0], 2.0]",
                                  "[[0.0, 1.0], [%s, 0.0]]" % (10 ** 400)],
                         ids=["triple", "bare-number", "beyond-float"])
def test_samples_json_rejects_malformed(tmp_path, text):
    path = tmp_path / "samples.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_samples(str(path))


NOT_A_NUMBER = "sample file %s: sample 1 has a coordinate that is not a " \
    "finite number: "


@pytest.mark.parametrize("text,error,message", [
    ("[[0.0, 1.0], [2.0]]", ParseError, "sample file %s must hold [x, y] pairs"),
    ("[[0.0, 1.0], [2.0, 3.0, 4.0]]", ParseError,
     "sample file %s must hold [x, y] pairs"),
    ('[[0.0, 1.0], {"x": 2.0, "y": 3.0}]', ParseError,
     "sample file %s must hold [x, y] pairs"),
    ("[0.0, 1.0]", ParseError, "sample file %s must hold [x, y] pairs"),
    ("[[0.0, 1.0], [2.0, [3.0]]]", ParseError, NOT_A_NUMBER + "[3.0]"),
    ("[[0.0, 1.0], [true, 3.0]]", ParseError, NOT_A_NUMBER + "True"),
    ("[[0.0, 1.0], [2.0, null]]", ParseError, NOT_A_NUMBER + "None"),
    ('[[0.0, 1.0], ["2.0", 3.0]]', ParseError, NOT_A_NUMBER + "'2.0'"),
    ("[[0.0, 1.0], [2, %d]]" % 10 ** 400, ParseError,
     "sample file %s has non-numeric entries: int too large to convert to "
     "float"),
    ("[]", EmptySamplesError, "sample file %s holds no samples"),
    ("0 1\n2 abc\n", ParseError, "sample file %s has non-numeric entries: "
     "could not convert string to float: 'abc'"),
    ("0 1\n2\n", ParseError, "sample file %s line 2: expected 'x y'"),
], ids=["short", "long", "object", "flat", "nested", "true", "null", "string",
        "beyond-float", "empty", "text-word", "text-short"])
def test_samples_errors_word_for_word(tmp_path, text, error, message):
    path = tmp_path / "samples.json"
    path.write_text(text)
    with pytest.raises(error) as exc:
        load_samples(str(path))
    assert str(exc.value) == message % path


def test_samples_keep_every_value(tmp_path):
    rows = [[0.1, -0.0], [1e300, 5e-324], [3, 2 ** 60], [-7, 0.5]]
    for text in (json.dumps(rows), "".join("%r %r\n" % tuple(r) for r in rows)):
        path = tmp_path / "samples"
        path.write_text(text)
        got = load_samples(str(path))
        assert got.shape == (4, 2) and got.dtype == float
        npt.assert_array_equal(got, np.array(rows, dtype=float))
        assert np.signbit(got[0, 1])


# numbers at the edges of what a float holds, and texts json refuses:
# orjson reads the first kind, json reads again what orjson refuses
EDGE_NUMBERS = ["0", "-0", "0.0", "-0.0", "1e-400", "-1e-400", "5e-324",
                "2.4703282292062327e-324", "2.4703282292062328e-324",
                "2.2250738585072011e-308", "1.7976931348623157e308",
                "1.7976931348623158e308", "1e23", "1E+2", "1.0e-5",
                "0.1000000000000000055511151231257827021181583404541015625",
                "9007199254740993", "9007199254740993.0",
                "1." + "0" * 400 + "1", str(2 ** 63), str(-2 ** 63 - 1),
                str(2 ** 64), str(2 ** 64 + 1), str(10 ** 30),
                str(-10 ** 308), "1e400", "-1e400", "NaN", "Infinity",
                "-Infinity"]


@pytest.mark.parametrize("number", EDGE_NUMBERS)
def test_samples_read_numbers_bit_for_bit_as_json_does(tmp_path, number):
    path = tmp_path / "samples.json"
    text = "[[%s, -0.0], [1.5, %s]]" % (number, number)
    path.write_text(text)
    want = np.array(json.loads(text), dtype=float)
    assert load_samples(str(path)).tobytes() == want.tobytes()


@pytest.mark.parametrize("text", [
    "[[0.0, 1.0],]", "[[0.0, 1.0]] x", "[[0.0, 1.0]", "[[0.0, 1.0], [nan, 1]]",
    "[[0.0, 1.0], [-, 1]]", "[[0.0, 1.0], [1.e5, 1]]", "[[01, 1]]",
    "[[0.0, 1.0], [2.0, 3.0]]\x00"])
def test_samples_json_errors_keep_json_words(tmp_path, text):
    path = tmp_path / "samples.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(ParseError) as exc:
        load_samples(str(path))
    assert str(exc.value) == "sample file %s is not valid JSON: %s" % (
        path, want.value)


def test_samples_empty_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    with pytest.raises(EmptySamplesError):
        load_samples(str(path))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_region_report_structure(circle_analysis):
    reg = build_region(circle_analysis)
    rep = region_report(circle_analysis, reg)
    assert rep["version"] == 1
    assert rep["grade"] == "narrowed"
    assert rep["classification"]["kind"] == "spiral"
    assert len(rep["chords"]) == 20
    assert len(rep["nodes"]) == 21
    ch = rep["chords"][0]
    assert {"index", "half_length", "direction", "midpoint",
            "xi", "eta", "width", "width_estimate",
            "lower", "upper"} <= set(ch)
    assert ch["lower"]["type"] in ("arc", "biarc")
    # must serialize cleanly and round-trip through strict JSON
    text = report_json(rep)
    back = json.loads(text)
    assert back["width"] == rep["width"]


def test_region_report_vertices():
    t = np.linspace(0.0, 2 * math.pi, 17)[:-1]
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    from spiralbounds.analysis import SplineInput
    an = analyze(SplineInput(pts, closed=True))
    rep = region_report(an, build_region(an))
    kinds = {v["kind"] for v in rep["classification"]["vertices"]}
    assert kinds == {"min", "max"}
    assert len(rep["classification"]["vertices"]) == 4


def test_compliance_report_dict(sparse_data):
    from spiralbounds.splinefit import cubic_spline_fixture
    an = analyze(sparse_data)
    reg = build_region(an)
    rep = check_containment(reg, cubic_spline_fixture(sparse_data))
    d = compliance_report_dict(rep)
    assert d["verdict"] == "fail"
    assert d["violation_count"] == len(rep.violations)
    assert len(d["violations"]) <= 50
    assert d["worst_margin"] < 0
    json.loads(report_json(d))


def test_compliance_report_no_assigned_samples(circle_analysis):
    reg = build_region(circle_analysis)
    rep = check_containment(reg, np.array([[99.0, 99.0]]))
    d = compliance_report_dict(rep)
    assert d["verdict"] == "pass"
    assert d["worst_margin"] is None  # not a float: nothing was assigned
    json.loads(report_json(d))


# ---------------------------------------------------------------------------
# report_json writes what json.dumps(indent=2) writes
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=True)


# few keys, so that rows share key paths with other key sets and orders
KEYS = st.sampled_from(["", "a", "b", "\u00e9\u2028", 'q"', "%", "%s",
                        "100%%", "0", "1"])
SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([2 ** 64, -(10 ** 30)]),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                     -1e308, np.float64(-0.0), np.float64(math.nan)]),
    st.text(max_size=3), st.sampled_from(["%", "%s", '"\\', "\u00e9\n"]))
TREES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(KEYS, inner, max_size=4)
                   | st.lists(st.dictionaries(KEYS, inner, max_size=3),
                              min_size=2, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(TREES)
@example({"%s": [-0.0, math.nan, math.inf, -math.inf, np.float64(-0.0)],
          "1": [[], {}, [[]], [{}]], "rows": [{"a": 1, "b": [1, 2]},
                                          {"b": [3], "a": True},
                                          {"a": None}, {}, []]})
def test_report_json_is_json_dumps(tree):
    assert report_json(tree) == _dumps(tree)


def _node_rows(n, scale=1.0):
    """A nodes Rows of n rows: 1-based indices and three float columns."""
    values = scale * np.linspace(-1.5, 2.5, n)
    return Rows("nodes", [np.arange(1, n + 1), values, 1e-5 * values,
                          np.full(n, math.nan)])


ROWS = st.builds(_node_rows, st.integers(0, 3), st.floats(-1e300, 1e300))
# the report's items: Rows among values of any kind, null among them
ITEMS = st.lists(st.tuples(KEYS, st.one_of(ROWS, st.none(), TREES)),
                 unique_by=operator.itemgetter(0), max_size=6).map(dict)


@settings(max_examples=150, deadline=None)
@given(ITEMS)
@example({"a": _node_rows(0), "b": _node_rows(3), "%s": {"a": None}})
@example({"0": [1.5, {'q"': -0.0}], "\u00e9\u2028": None,
          'q"': _node_rows(2, 3e16)})
@example({'q"': _node_rows(0), "\u00e9\u2028": _node_rows(1), "": None})
def test_report_json_writes_each_rows_in_its_place(report):
    # empty Rows, and Rows first, last, side by side, beside null and
    # under keys json escapes
    want = _dumps(_plain(report))
    assert report_json(report) == want
    out = io.StringIO()
    write_report(out, report)
    assert out.getvalue() == want


@pytest.mark.parametrize("report", [{"a": {"b": _node_rows(2)}},
                                    {"a": [_node_rows(0)]}, [_node_rows(1)]])
def test_report_json_takes_rows_only_as_report_items(report):
    # region_report and compliance_report_dict put Rows nowhere else
    with pytest.raises(TypeError, match="^Object of type Rows is not JSON"):
        report_json(report)


def test_report_json_raises_json_type_error():
    bad = {"a": [1.0, {2, 3}]}
    with pytest.raises(TypeError) as want:
        _dumps(bad)
    with pytest.raises(TypeError, match="^%s$" % want.value):
        report_json(bad)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_report_json_rejects_key_that_is_not_str(key):
    # every report names its fields by str; json.dumps would write 1 as "1"
    with pytest.raises(TypeError, match=r"\bnot %s$" % type(key).__name__):
        report_json({"rows": [{"a": 0.0}, {key: 0.0}]})


@pytest.mark.parametrize("report", [[[1, ({1: 0.0},)]],
                                    {"a": _node_rows(1),
                                     "b": [{"c": [[{None: 0.0}]]}]}])
def test_report_json_rejects_key_that_is_not_str_in_nested_lists(report):
    with pytest.raises(TypeError,
                       match="^report keys must be str, not (int|NoneType)$"):
        report_json(report)


FLOAT_EDGES = [1e-5, 9.99e-5, 1e-4, 1e15, 1e16, 5e-324, sys.float_info.max]


@settings(max_examples=300)
@given(st.lists(st.floats(), max_size=40))
@example([0.0, -0.0, math.nan, math.inf, -math.inf, *FLOAT_EDGES])
@example([10.00001, -100.0000123, 5.00000e-7, 7e-5, 1.5e16])
def test_floats_are_json_dumps(xs):
    assert profile_io._floats(xs) == [json.dumps(x) for x in xs]


def test_floats_are_json_dumps_on_a_million_bit_patterns():
    rng = np.random.default_rng(20121113)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    edges = np.array(FLOAT_EDGES)
    edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges[:-1], math.inf)])
    # the one-digit exponents, which few bit patterns reach
    spread = 10.0 ** rng.uniform(-12.0, 20.0, 10 ** 4)
    ends = np.concatenate([edges, spread])
    # random bits take either sign already
    for xs in (bits.view(float), np.concatenate([ends, -ends])):
        xs = xs.tolist()
        assert profile_io._floats(xs) == json.dumps(xs)[1:-1].split(", ")


# dense in [1e-5, 1e-4), which orjson writes as 0.0000ddd, and at the
# edges of the ranges where orjson's form differs from repr's
BAND_EDGES = [1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
              np.nextafter(1e-4, 0.0), 1e-4, 3e-5, 1.5e-5, 1e-6,
              np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, math.inf),
              0.0, math.nan, math.inf, 5e-324]
BAND_FLOATS = st.builds(
    operator.mul,
    st.one_of(st.floats(1e-5, 1e-4, exclude_max=True),
              st.sampled_from(BAND_EDGES), st.floats()),
    st.sampled_from([1.0, -1.0]))


@settings(max_examples=300)
@given(st.lists(BAND_FLOATS, max_size=40))
@example([1e-5, -1e-5, 9.9999e-5, -0.0, 2e-5, -3e-5, math.nan, -math.inf])
def test_floats_are_json_dumps_in_the_band(xs):
    want = [json.dumps(x) for x in xs]
    assert profile_io._floats(xs) == want
    assert profile_io._floats(np.array(xs, dtype=float)) == want


def _curve_row(values, biarc):
    c, alpha, beta, a, b, p, jx, jy = values
    if not biarc:
        return {"type": "arc", "c": c, "phi": alpha}
    return {"type": "biarc", "c": c, "alpha": alpha, "beta": beta, "a": a,
            "b": b, "p": p, "join": [jx, jy]}


def _chords_row(values, kind):
    """A row of the "chords" layout as a dict, made without the writer."""
    index, c, mu, mx, my, xi, eta, width, estimate = values[:9]
    return {"index": index, "half_length": c, "direction": mu,
            "midpoint": [mx, my], "xi": xi, "eta": eta, "width": width,
            "width_estimate": estimate,
            "lower": _curve_row(values[9:17], kind >= 2),
            "upper": _curve_row(values[17:], kind % 2)}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), depth=st.integers(0, 3), data=st.data())
def test_rows_of_mixed_kinds_are_json_dumps(n, depth, data):
    # arc and biarc boundaries mixed at random, with values in the band,
    # non-finite and at the edges; the arcs' skipped values too
    kind = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                       max_size=n)))
    index = np.array(data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                        min_size=n, max_size=n)))
    floats = np.array(data.draw(st.lists(BAND_FLOATS, min_size=24 * n,
                                         max_size=24 * n))).reshape(24, n)
    rows = Rows("chords", [index, *floats], kind)
    want = json.dumps([_chords_row([index[i].item(), *floats[:, i].tolist()],
                                   kind[i]) for i in range(n)], indent=2)
    want = want.replace("\n", "\n" + "  " * depth)
    for block in (3, profile_io.BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profile_io, "BLOCK", block)
            assert "".join(rows.json(depth)) == want


def test_report_json_is_json_dumps_on_a_fine_oval():
    # 4000 nodes: every width is about 1e-9, an exponent token
    t = np.linspace(0.0, 2 * math.pi, 4001)[:-1] + 0.1
    pts = np.column_stack([np.cos(t) + 0.22 * np.cos(2 * t), np.sin(t)])
    an = analyze(SplineInput(pts, closed=True))
    region = build_region(an)
    assert region.grade == "vertex" and region.width < 1e-8
    report = region_report(an, region)
    assert report_json(report) == _dumps(_plain(report))


def test_report_json_writes_numpy_floats_as_json_does():
    values = np.array([0.1, -0.0, 1e-9, 3e-5, 1e20, math.nan, -math.inf])
    report = {"q": list(values), "max": values[2], "tail": [values[3]]}
    assert all(type(v) is np.float64 for v in report["q"])
    assert report_json(report) == _dumps(report)


def _plain(report):
    """The report with each Rows made the list of its rows, as json.dumps
    takes it."""
    return {key: list(value) if isinstance(value, Rows) else value
            for key, value in report.items()}


def _golden_reports():
    for profile in sorted(GOLDEN.glob("*.json")):
        if profile.name.endswith(".expected.json"):
            continue
        data, overrides = load_profile(str(profile))
        analysis = analyze(data)
        for grade in ("simple", "vertex", "narrowed"):
            try:
                region = build_region(analysis, grade, overrides)
            except DataError:
                continue
            yield region_report(analysis, region)
            for samples in sorted(GOLDEN.glob(profile.stem + ".*.txt")):
                yield compliance_report_dict(
                    check_containment(region, load_samples(str(samples))))


def _curve_types(report):
    return {(ch["lower"]["type"], ch["upper"]["type"])
            for ch in report.get("chords", [])}


def test_report_json_is_json_dumps_on_golden_reports():
    reports = list(_golden_reports())
    assert len(reports) >= 15
    assert {r.get("grade") for r in reports} >= {"simple", "vertex",
                                                  "narrowed"}
    types = set()
    for report in reports:
        assert report_json(report) == _dumps(_plain(report))
        types |= _curve_types(report)
    # every row template of the narrowed chords: arc or biarc below/above
    assert types == {(lo, up) for lo in ("arc", "biarc")
                     for up in ("arc", "biarc")}


def test_report_json_writes_rows_block_by_block(monkeypatch):
    # blocks of 3 rows split every list, the first row's comma included
    reports = list(_golden_reports())
    want = [report_json(report) for report in reports]
    monkeypatch.setattr(profile_io, "BLOCK", 3)
    assert max(len(r.get("chords", ())) for r in reports) > 3 * 3
    assert [report_json(report) for report in reports] == want


def test_write_report_writes_report_json(monkeypatch):
    reports = list(_golden_reports())
    reports.append({"q": [0.5, -0.0], "rows": [], "empty": {}})
    reports.append([])
    for block in (3, profile_io.BLOCK):
        monkeypatch.setattr(profile_io, "BLOCK", block)
        for report in reports:
            out = io.StringIO()
            write_report(out, report)
            assert out.getvalue() == report_json(report)


class _Sink:
    """A text file that keeps only the length of the largest piece
    written to it."""

    largest = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))


def _write_report_peak(chords):
    """(traced peak, largest piece) of write_report on the narrowed report
    of a log spiral of so many chords; the report is made untraced."""
    sp = LogSpiral(50.0, -0.05)
    theta = np.linspace(0.0, 6.0, chords + 1)
    an = analyze(SplineInput(sp.point(theta), float(sp.tangent_angle(0.0)),
                             float(sp.tangent_angle(6.0))))
    report = region_report(an, build_region(an, "narrowed"))
    sink = _Sink()
    tracemalloc.start()
    try:
        write_report(sink, report)
        return tracemalloc.get_traced_memory()[1], sink.largest
    finally:
        tracemalloc.stop()


def test_write_report_holds_one_block_at_a_time():
    # a block of 1024 chord rows is about 0.6 MB of text, and the report
    # of 10^4 chords 7.6 MB: the writer holds one block's text, tokens
    # and list of pieces at a time, as many at 10^4 chords as at 2048
    peak, block = _write_report_peak(10 ** 4)
    assert block >= 0.5e6
    assert peak <= 8 * block
    assert peak <= 1.2 * _write_report_peak(2 * profile_io.BLOCK)[0]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pieces=st.integers(1, 7),
       n_nodes=st.integers(3, 24), increasing=st.booleans())
def test_report_json_is_json_dumps_on_arc_spline_reports(seed, pieces,
                                                         n_nodes, increasing):
    rng = np.random.default_rng(seed)
    spline = random_arc_spline(rng, pieces, increasing)
    pts, t0, t1, _ = arc_spline_dataset(rng, spline, n_nodes)
    an = analyze(SplineInput(pts, t0, t1))
    assume(an.classification.kind == "spiral")
    report = region_report(an, build_region(an, "narrowed"))
    assert report_json(report) == _dumps(_plain(report))


def _curve_dict(curve):
    if isinstance(curve, Arc):
        return {"type": "arc", "c": curve.c, "phi": curve.phi}
    return {"type": "biarc", "c": curve.c, "alpha": curve.alpha,
            "beta": curve.beta, "a": curve.a, "b": curve.b, "p": curve.p,
            "join": list(curve.join)}


def _chord_dicts(analysis, region):
    """The chord rows made one dict per RegionChord object."""
    ch, ang = analysis.chords, analysis.angles
    return [{"index": reg.index, "half_length": c, "direction": mu,
             "midpoint": mid, "xi": xi, "eta": eta, "width": reg.width,
             "width_estimate": reg.width_estimate,
             "lower": _curve_dict(reg.lower),
             "upper": _curve_dict(reg.upper)}
            for reg, c, mu, mid, xi, eta in zip(
                region.chords, ch.c.tolist(), ch.mu.tolist(),
                ch.mid.tolist(), ang.xi.tolist(), ang.eta.tolist())]


def _unmade(*args):
    raise AssertionError("the region's objects were made")


def _golden_regions():
    for profile in ("circle", "oval", "overrides", "spiral-dec",
                    "spiral-inc"):
        data, overrides = load_profile(str(GOLDEN / (profile + ".json")))
        an = analyze(data)
        for grade in ("simple", "vertex", "narrowed"):
            try:
                yield an, build_region(an, grade, overrides)
            except DataError:
                pass


def test_region_report_of_a_built_region_reads_only_the_kept_arrays(
        monkeypatch):
    cases = list(_golden_regions())
    assert len(cases) == 13
    for an, region in cases:
        with monkeypatch.context() as patch:
            for name in ("instances", "curves"):
                patch.setattr(regions, name, _unmade)
            with pytest.raises(AssertionError):
                list(region.chords)
            text = report_json(region_report(an, region))
        # the objects, once made, report the same
        copy = hand_made(region)
        assert report_json(region_report(an, copy)) == text


def test_region_report_rows_are_the_chord_objects():
    # a copy by dataclasses.replace and a region assembled by hand, with
    # arcs and biarcs mixed on both sides, are read from their chords
    for an, region in _golden_regions():
        want = report_json(region_report(an, region))
        copy = hand_made(region)
        assert copy.chords.members is not region.chords.members
        report = region_report(an, copy)
        assert list(report["chords"]) == _chord_dicts(an, region)
        assert report_json(report) == _dumps(_plain(report)) == want
    an = analyze(load_profile(str(GOLDEN / "spiral-inc.json"))[0])
    narrowed, simple = (build_region(an, g) for g in ("narrowed", "simple"))
    chords = [dataclasses.replace(ch, lower=other.lower) if k % 2 else
              dataclasses.replace(ch, upper=other.upper)
              for k, (ch, other) in enumerate(zip(narrowed.chords,
                                                  simple.chords))]
    by_hand = hand_made(narrowed, chords)
    report = region_report(an, by_hand)
    assert _curve_types(_plain(report)) >= {("biarc", "arc"),
                                            ("arc", "biarc")}
    assert list(report["chords"]) == _chord_dicts(an, by_hand)
    assert report_json(report) == _dumps(_plain(report))


@pytest.mark.parametrize("grade", ["simple", "vertex", "narrowed"])
def test_region_report_of_closed_spiral_data(grade):
    # closed data is a spiral only when cocircular, and no golden profile
    # is: a ring at irregular angles, built and copied
    t = np.sort(np.random.default_rng(3).uniform(0.0, 2 * math.pi, 11))
    an = analyze(SplineInput(3.0 * np.column_stack([np.cos(t), np.sin(t)]),
                             closed=True))
    region = build_region(an, grade)
    report = region_report(an, region)
    assert report["closed"] and len(report["chords"]) == 11
    assert list(report["chords"]) == _chord_dicts(an, region)
    text = report_json(report)
    assert text == _dumps(_plain(report))
    assert report_json(region_report(an, dataclasses.replace(region))) == text


def test_rows_index_like_a_list():
    report = region_report(*next(_golden_regions()))
    rows = report["chords"]
    plain = list(rows)
    assert len(rows) == len(plain) == 20
    assert rows[-1] == plain[-1] and rows[1] == plain[1]
    assert type(rows[0]["index"]) is int
    assert type(rows[0]["width"]) is float
    with pytest.raises(IndexError):
        rows[len(plain)]


@settings(max_examples=50, deadline=None)
@given(st.slices(24))
@example(slice(1, 3))
@example(slice(5, 2))
@example(slice(-100, 100, 3))
def test_rows_slice_like_a_list(at):
    report = region_report(*next(_golden_regions()))
    for rows in (report["chords"], report["nodes"], _node_rows(0)):
        assert rows[at] == list(rows)[at]
