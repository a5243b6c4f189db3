"""Profile parsing, sample files, and report serialization."""

import dataclasses
import json
import math
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
)
from spiralbounds.regions import Region, build_region

from arcspline import arc_spline_dataset, random_arc_spline
from conftest import profile_dict, sparse_dataset, write_profile

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
        copy = dataclasses.replace(region, chords=list(region.chords))
        assert report_json(region_report(an, copy)) == text


def test_region_report_rows_are_the_chord_objects():
    # a copy by dataclasses.replace and a region assembled by hand, with
    # arcs and biarcs mixed on both sides, are read from their chords
    for an, region in _golden_regions():
        want = report_json(region_report(an, region))
        copy = dataclasses.replace(region, chords=list(region.chords))
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
    by_hand = Region(grade="narrowed", closed=False, chords=chords,
                     width=narrowed.width)
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
