"""SVG rendering: structure checks on the generated markup."""

import dataclasses
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import numpy.testing as npt
import pytest

from spiralbounds.analysis import SplineInput, analyze
from spiralbounds.geometry import (Biarc, biarc_from_a, curve_eval,
                                   family_pieces, members)
from spiralbounds import svg as svg_module
from spiralbounds.regions import build_region
from spiralbounds.svg import render_svg

from logspiral import LogSpiral, spiral_dataset


def render(tmp_path, analysis, region):
    path = tmp_path / "out.svg"
    render_svg(analysis, region, str(path))
    return path.read_text()


def test_svg_one_geometry_group(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    assert svg.count("<g transform=") == 1
    assert "scale(" in svg


def test_svg_three_paths_per_chord(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    assert len(re.findall(r'class="chord"', svg)) == 20
    assert len(re.findall(r'class="lower"', svg)) == 20
    assert len(re.findall(r'class="upper"', svg)) == 20


def test_svg_nodes_in_model_coordinates(tmp_path, circle_analysis):
    # geometry lives untransformed inside the single scaling group,
    # so node circles carry the raw data coordinates
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    cx = [float(v) for v in re.findall(r'<circle[^>]*cx="([-\d.e]+)"', svg)]
    pts = circle_analysis.data.points
    assert len(cx) == len(pts)
    np.testing.assert_allclose(sorted(cx), sorted(pts[:, 0]), atol=1e-9)


def test_svg_open_data_tangent_markers(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    assert len(re.findall(r'class="tangent"', svg)) == 2


def test_svg_closed_data_has_no_tangents(tmp_path):
    t = np.linspace(0.0, 2 * math.pi, 17)[:-1]
    pts = np.column_stack([2.0 * np.cos(t), np.sin(t)])
    an = analyze(SplineInput(pts, closed=True))
    reg = build_region(an)
    svg = render(tmp_path, an, reg)
    assert 'class="tangent"' not in svg
    assert len(re.findall(r'class="chord"', svg)) == 16


def test_svg_width_labels(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    assert len(re.findall(r"<text ", svg)) == len(reg.chords)


def test_svg_no_bad_numbers(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    assert "NaN" not in svg
    assert "inf" not in svg


def test_svg_viewbox_and_size(tmp_path, circle_analysis):
    reg = build_region(circle_analysis)
    svg = render(tmp_path, circle_analysis, reg)
    m = re.search(r'viewBox="0 0 ([\d.]+) ([\d.]+)"', svg)
    assert m and float(m.group(1)) == 800.0
    assert float(m.group(2)) > 0


# ---------------------------------------------------------------------------
# The drawing is exact: every boundary is its two circle pieces
# ---------------------------------------------------------------------------

SVG = "{http://www.w3.org/2000/svg}"


def _line_then_arc():
    """Open data along a segment, then along a unit circle: the simple
    lens has straight pieces on the segment and arcs after it."""
    t = np.linspace(0.0, 1.0, 5)[1:]
    pts = np.vstack([[[-3.0, 0.0], [-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                     np.column_stack([np.sin(t), 1.0 - np.cos(t)])])
    return analyze(SplineInput(pts, 0.0, 1.0))


def _spiral(increasing):
    pts, t0, t1, _ = spiral_dataset(np.random.default_rng(7), n_nodes=12,
                                    increasing=increasing)
    return analyze(SplineInput(pts, t0, t1))


def _oval():
    t = np.linspace(0.0, 2 * math.pi, 17)[:-1]
    return analyze(SplineInput(np.column_stack([2.0 * np.cos(t), np.sin(t)]),
                               closed=True))


CASES = {
    "vertex": (_oval, "vertex"),
    "narrowed-increasing": (lambda: _spiral(True), "narrowed"),
    "narrowed-decreasing": (lambda: _spiral(False), "narrowed"),
    "straight": (_line_then_arc, "simple"),
}


def _case(name):
    make, grade = CASES[name]
    an = make()
    return an, build_region(an, grade)


def _commands(d):
    """A path's d attribute as its start point and (command, numbers)."""
    tokens = d.split()
    assert tokens[0] == "M"
    out, i = [], 3
    while i < len(tokens):
        n = {"A": 7, "L": 2}[tokens[i]]
        out.append((tokens[i], [float(v) for v in tokens[i + 1:i + 1 + n]]))
        i += 1 + n
    return np.array([float(tokens[1]), float(tokens[2])]), out


def _arc_centre(p0, p1, r, large, sweep):
    """Centre of an SVG arc with rx = ry = r and no rotation (the
    endpoint-to-centre conversion of the SVG specification)."""
    h = 0.5 * (p0 - p1)
    coef = math.sqrt(max(0.0, (r * r - h @ h) / (h @ h)))
    if large == sweep:
        coef = -coef
    return 0.5 * (p0 + p1) + coef * np.array([h[1], -h[0]])


def _assert_exact(region, text):
    """Each boundary path runs node, join, node along its curve's pieces."""
    paths = ET.fromstring(text).find(SVG + "g").findall(SVG + "path")
    assert len(paths) == 3 * len(region.chords)
    # numbers are printed to 10 digits: 1e-9 of the drawing's extent
    coords = np.abs([ch.frame.origin for ch in region.chords]).max()
    atol = 1e-9 * (coords + max(ch.frame.half_length for ch in region.chords))
    kinds = set()
    for k, ch in enumerate(region.chords):
        frame, c = ch.frame, ch.frame.half_length
        nodes = frame.to_global([[-c, 0.0], [c, 0.0]])
        for path, curve in zip(paths[3 * k + 1:3 * k + 3],
                               (ch.lower, ch.upper)):
            start, cmds = _commands(path.get("d"))
            npt.assert_allclose(start, nodes[0], atol=atol)
            npt.assert_allclose(cmds[-1][1][-2:], nodes[1], atol=atol)
            p = [v[0] for v in family_pieces(members([curve])[0])]
            xj = p[1]
            join = frame.to_global([xj, curve_eval(curve, xj)])
            npt.assert_allclose(cmds[0][1][-2:], join, atol=atol)
            assert len(cmds) == 2
            for (cmd, v), xs, kappa in zip(
                    cmds, (np.linspace(-c, xj, 33), np.linspace(xj, c, 33)),
                    (p[4], p[7])):
                end = np.array(v[-2:])
                on = frame.to_global(np.column_stack(
                    [xs, curve_eval(curve, xs)])) - start
                chord = end - start
                # > 0 left of the command's chord, < 0 right of it
                side = chord[0] * on[:, 1] - chord[1] * on[:, 0]
                kinds.add(cmd)
                if cmd == "L":
                    assert kappa == 0.0
                    npt.assert_allclose(side / math.hypot(*chord), 0.0,
                                        atol=atol)
                else:
                    r, ry, rotation, large, sweep = v[:5]
                    assert r == ry and rotation == large == 0
                    assert sweep == (kappa > 0.0)
                    npt.assert_allclose(r, 1.0 / abs(kappa), rtol=1e-9)
                    centre = _arc_centre(start, end, r, large, sweep)
                    npt.assert_allclose(np.hypot(*(on + start - centre).T),
                                        r, rtol=1e-9, atol=atol)
                    # a minor arc swept to the left lies right of its chord
                    assert np.all((side if sweep else -side)
                                  <= atol * math.hypot(*chord))
                start = end
    return kinds


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_boundaries_are_exact(tmp_path, name):
    an, reg = _case(name)
    if name.startswith("narrowed"):
        assert any(isinstance(ch.lower, Biarc) for ch in reg.chords)
        assert an.classification.direction == name.split("-")[1]
    if name == "vertex":
        assert an.classification.vertices
    kinds = _assert_exact(reg, render(tmp_path, an, reg))
    assert kinds == ({"A", "L"} if name == "straight" else {"A"})


def test_svg_straight_piece_next_to_an_arc(tmp_path):
    # a biarc whose first piece is straight and whose second is not
    an, reg = _case("straight")
    ch = reg.chords[0]
    c = ch.frame.half_length
    lower = biarc_from_a(c, -0.1, 0.5, 0.0)
    lower = dataclasses.replace(lower, a=0.0)
    reg = dataclasses.replace(reg, chords=[dataclasses.replace(
        ch, lower=lower)] + reg.chords[1:])
    svg = render(tmp_path, an, reg)
    first = ET.fromstring(svg).find(SVG + "g").findall(SVG + "path")[1]
    assert [cmd for cmd, _ in _commands(first.get("d"))[1]] == ["L", "A"]
    _assert_exact(reg, svg)


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_boundaries_inside_view_box(tmp_path, name):
    an, reg = _case(name)
    root = ET.fromstring(render(tmp_path, an, reg))
    width, height = (float(root.get(k)) for k in ("width", "height"))
    tx, ty, sx, sy = map(float, re.findall(
        r"-?[\d.]+(?:e[-+]?\d+)?", root.find(SVG + "g").get("transform")))
    for ch in reg.chords:
        c = ch.frame.half_length
        xs = np.linspace(-c, c, 401)
        for curve in (ch.lower, ch.upper):
            x, y = ch.frame.to_global(
                np.column_stack([xs, curve_eval(curve, xs)])).T
            px, py = tx + sx * x, ty + sy * y
            # inside the 5 % margin that render_svg leaves at 800 px
            assert np.all((px > 40.0 - 1e-6) & (px < width - 40.0 + 1e-6))
            assert np.all((py > 40.0 - 1e-6) & (py < height - 40.0 + 1e-6))


def test_svg_byte_stable(tmp_path):
    an, reg = _case("narrowed-increasing")
    assert render(tmp_path, an, reg) == render(tmp_path, an, reg)


# ---------------------------------------------------------------------------
# The file is written block by block
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def long_spiral():
    """A narrowed region of five blocks: the open log spiral
    r = 50 exp(-0.05 t) through nodes at uniform steps of t in [0, 6]."""
    spiral = LogSpiral(scale=50.0, growth=-0.05, center=(0.0, 0.0))
    t = np.linspace(0.0, 6.0, 5 * svg_module.BLOCK + 1)
    an = analyze(SplineInput(spiral.point(t), spiral.tangent_angle(0.0),
                             spiral.tangent_angle(6.0)))
    return an, build_region(an, "narrowed")


@pytest.mark.parametrize("name", sorted(CASES) + ["long-spiral"])
def test_svg_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch,
                                              long_spiral, name):
    an, reg = long_spiral if name == "long-spiral" else _case(name)
    whole = render(tmp_path, an, reg)
    monkeypatch.setattr(svg_module, "BLOCK", 3)
    assert render(tmp_path, an, reg) == whole


def test_svg_memory_is_bounded_by_the_file(tmp_path, long_spiral):
    # the text is formatted a block at a time, so no copy of the whole
    # file is ever held: the peak is the region's columns plus one block
    an, reg = long_spiral
    path = tmp_path / "out.svg"
    tracemalloc.start()
    try:
        render_svg(an, reg, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reg.chords) >= 4 * svg_module.BLOCK
    assert peak < 2 * path.stat().st_size


def test_svg_region_that_cannot_be_drawn_writes_nothing(tmp_path):
    # the last chord's boundary is no curve: the region cannot be made,
    # so there is nothing to draw, and a file already there is kept
    an, reg = _case("narrowed-increasing")
    path = tmp_path / "out.svg"
    path.write_text("before")
    with pytest.raises(AttributeError):
        reg = dataclasses.replace(reg, chords=reg.chords[:-1] + [
            dataclasses.replace(reg.chords[-1], lower=None)])
        render_svg(an, reg, str(path))
    assert path.read_text() == "before"
