"""Discrete spline quantities and the spiral / piecewise-spiral split.

Three-point curvatures are checked against an independent circumcircle
oracle, the tangent angles against their defining sine/cosine pairs and
the transport identity, and the classifier against hand-worked q lists;
the rounding bound that decides ties is checked against 50-digit q.
Invariance under rigid motions, scaling, and traversal reversal pins the
coordinate-free character of every derived quantity.
"""

import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spiralbounds.analysis import (
    Nodes,
    SplineInput,
    analyze,
    build_chords,
    classify,
    discrete_curvature_plot,
    node_data,
    padded,
)
from spiralbounds.errors import (
    AdjacentVerticesError,
    DegenerateNodeError,
    DuplicatePointsError,
    InputError,
    MissingTangentsError,
)
from spiralbounds.geometry import wrap_angle

from logspiral import spiral_dataset

ELBOW = SplineInput(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                    tau_start=0.0, tau_end=math.pi / 2)


def circumcircle_curvature(p0, p1, p2):
    """Signed curvature of the circle through three points (oracle).

    Solved from the two perpendicular-bisector equations; sign follows
    the turning direction of the triple.
    """
    a = np.array([[p1[0] - p0[0], p1[1] - p0[1]],
                  [p2[0] - p1[0], p2[1] - p1[1]]], dtype=float)
    rhs = 0.5 * np.array([p1 @ p1 - p0 @ p0, p2 @ p2 - p1 @ p1])
    center = np.linalg.solve(a, rhs)
    r = np.hypot(*(np.asarray(p1) - center))
    cross = ((p1[0] - p0[0]) * (p2[1] - p1[1])
             - (p1[1] - p0[1]) * (p2[0] - p1[0]))
    return math.copysign(1.0 / r, cross)


def analysis_for(points, tau_start=None, tau_end=None, closed=False):
    return analyze(SplineInput(np.asarray(points, dtype=float),
                               tau_start=tau_start, tau_end=tau_end,
                               closed=closed))


# ---------------------------------------------------------------------------
# Chords
# ---------------------------------------------------------------------------


def test_build_chords_elbow():
    # open data: two real chords, padded by zero-length pseudo-chords
    # that carry the boundary tangents
    chords = build_chords(ELBOW)
    assert len(chords) == 2 and not chords.closed
    npt.assert_allclose(padded(chords.c, chords.closed),
                        [0.0, 0.5, 0.5, 0.0])
    npt.assert_allclose(padded(chords.mu, chords.closed, chords.tangents),
                        [0.0, 0.0, math.pi / 2, math.pi / 2])
    npt.assert_allclose(chords.mid, [[0.5, 0.0], [1.0, 0.5]])


def test_closed_square_chords():
    # closed data: no pseudo-chords, the padding wraps around
    sq = SplineInput(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                               [0.0, 1.0]]), closed=True)
    chords = build_chords(sq)
    assert len(chords) == 4 and chords.closed
    npt.assert_allclose(chords.mu, [0.0, math.pi / 2, math.pi, -math.pi / 2])
    npt.assert_allclose(chords.c, 0.5)
    npt.assert_allclose(padded(chords.mu, chords.closed),
                        [-math.pi / 2, 0.0, math.pi / 2, math.pi,
                         -math.pi / 2, 0.0])


def test_too_few_points_rejected():
    with pytest.raises(InputError):
        build_chords(SplineInput(np.zeros((2, 2)), 0.0, 0.0))


def test_duplicate_points_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(DuplicatePointsError):
        build_chords(SplineInput(pts, 0.0, 0.0))


def test_open_data_requires_both_tangents():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
    with pytest.raises(MissingTangentsError):
        build_chords(SplineInput(pts, tau_start=0.0))


@pytest.mark.parametrize("bad, named", [
    ({"points": [[0, 0], [1, 0], [2, math.nan], [3, 1]]}, r"\bpoint 3\b"),
    ({"points": [[0, 0], [1, 0], [2, 0.5], [math.inf, 1]]}, r"\bpoint 4\b"),
    ({"tau_start": math.nan}, r"\bstart tangent\b"),
    ({"tau_end": -math.inf}, r"\bend tangent\b"),
])
def test_non_finite_input_rejected_and_named(bad, named):
    # numpy comparisons against NaN are quietly False, so a NaN would
    # otherwise travel far and fail (or pass) somewhere unrelated
    kw = {"points": [[0, 0], [1, 0], [2, 0.5], [3, 1.5]],
          "tau_start": 0.0, "tau_end": 1.0}
    kw.update(bad)
    pts = np.array(kw.pop("points"), dtype=float)
    with pytest.raises(InputError, match=named):
        analyze(SplineInput(pts, **kw))


def test_closed_data_forbids_tangents():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(InputError):
        build_chords(SplineInput(pts, tau_start=0.0, tau_end=0.0,
                                 closed=True))


# ---------------------------------------------------------------------------
# Node quantities
# ---------------------------------------------------------------------------


def test_elbow_node_quantities():
    an = analyze(ELBOW)
    npt.assert_allclose(an.nodes.rho[1], math.pi / 2, rtol=1e-15)
    npt.assert_allclose(an.nodes.d[1], math.sqrt(2) / 2, rtol=1e-14)
    npt.assert_allclose(an.nodes.q[1], math.sqrt(2), rtol=1e-14)
    # boundary nodes see the tangents through the pseudo-chords
    npt.assert_allclose(an.nodes.q[0], 0.0, atol=1e-15)
    npt.assert_allclose(an.nodes.q[2], 0.0, atol=1e-15)


def test_interior_curvature_matches_circumcircle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pts, tau0, tau1, _ = spiral_dataset(rng)
        an = analysis_for(pts, tau0, tau1)
        for j in range(2, len(pts)):
            want = circumcircle_curvature(pts[j - 2], pts[j - 1], pts[j])
            npt.assert_allclose(an.nodes.q[j - 1], want, rtol=1e-9)


def test_boundary_curvature_matches_tangent_circle():
    # node 1's three-point circle degenerates to the circle through the
    # first two points tangent to tau at the first: kappa = sin(mu-tau)/c
    rng = np.random.default_rng(4)
    pts, tau0, tau1, _ = spiral_dataset(rng, n_nodes=7)
    an = analysis_for(pts, tau0, tau1)
    mu1, c1 = an.chords.mu[0], an.chords.c[0]
    want = math.sin(wrap_angle(mu1 - tau0)) / c1
    npt.assert_allclose(an.nodes.q[0], want, rtol=1e-12)


def test_degenerate_node_rejected():
    # doubling back makes the half-diagonal vanish
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0 + 1e-15],
                    [1.0, 1.0]])
    with pytest.raises((DegenerateNodeError, DuplicatePointsError)):
        analysis_for(pts, 0.0, math.pi / 2)


# ---------------------------------------------------------------------------
# Tangent half-angles
# ---------------------------------------------------------------------------


def test_elbow_angles():
    an = analyze(ELBOW)
    assert len(an.angles) == 2
    xi, eta = an.angles.xi, an.angles.eta
    npt.assert_allclose(xi[0], 0.0, atol=1e-15)
    npt.assert_allclose(eta[0], math.pi / 4, rtol=1e-14)
    npt.assert_allclose(xi[1], -math.pi / 4, rtol=1e-14)
    npt.assert_allclose(eta[1], 0.0, atol=1e-15)


def test_angle_defining_relations():
    # sine and cosine of each angle against their defining expressions,
    # with the neighbours worked out here one chord at a time
    rng = np.random.default_rng(5)
    for closed, data in _assorted(rng):
        an = analyze(data)
        c, q = an.chords.c, an.nodes.q
        rho, d = an.nodes.rho, an.nodes.d
        m, n = len(c), len(q)
        for k in range(m):
            c_prev = c[k - 1] if closed or k > 0 else 0.0
            c_next = c[(k + 1) % m] if closed or k < m - 1 else 0.0
            end = (k + 1) % n
            xi, eta = an.angles.xi[k], an.angles.eta[k]
            npt.assert_allclose(math.sin(xi), -c[k] * q[k], atol=1e-12)
            npt.assert_allclose(math.cos(xi),
                                (c_prev + c[k] * math.cos(rho[k])) / d[k],
                                atol=1e-12)
            npt.assert_allclose(math.sin(eta), c[k] * q[end], atol=1e-12)
            npt.assert_allclose(math.cos(eta),
                                (c_next + c[k] * math.cos(rho[end])) / d[end],
                                atol=1e-12)


def test_angle_transport_identity():
    # both expressions describe the tangent of the three-point circle at
    # node j, one from each adjacent chord: eta_{j-1} = rho_j + xi_j
    rng = np.random.default_rng(6)
    for closed, data in _assorted(rng):
        an = analyze(data)
        m = len(an.angles)
        rng_j = range(m) if closed else range(1, m)
        for j in rng_j:
            rho = an.nodes.rho[j % len(an.nodes)]
            npt.assert_allclose(an.angles.eta[j - 1],
                                rho + an.angles.xi[j], atol=1e-12)


def _assorted(rng):
    """A few open spiral datasets plus one closed polygon."""
    out = []
    for _ in range(4):
        pts, t0, t1, _ = spiral_dataset(rng)
        out.append((False, SplineInput(pts, t0, t1)))
    t = np.linspace(0.0, 2 * math.pi, 13)[:-1]
    oval = np.column_stack([2.0 * np.cos(t), 1.1 * np.sin(t)])
    out.append((True, SplineInput(oval, closed=True)))
    return out


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def test_half_turn_violation_detected():
    # short chord into a 2-radian turn: 0.2 + cos(2.0) < 0
    p0 = np.array([0.0, 0.0])
    p1 = np.array([0.4, 0.0])
    p2 = p1 + 2.0 * np.array([math.cos(2.0), math.sin(2.0)])
    an = analysis_for([p0, p1, p2], 0.0, 2.0)
    assert an.violations
    assert an.classification.kind == "inadmissible"
    assert an.violations[0].node == 2


def test_right_angle_is_admissible():
    # cos(pi/2) = 0 keeps both sums positive whatever the chord ratio
    an = analyze(ELBOW)
    assert not an.violations


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _nodes(q_list):
    q = np.array(q_list, dtype=float)
    return Nodes(rho=np.zeros_like(q), d=np.ones_like(q), q=q,
                 err=np.zeros_like(q))


def test_classify_monotone_is_spiral():
    cl = classify(_nodes([1, 2, 2, 3, 5]), [])
    assert cl.kind == "spiral" and cl.direction == "increasing"
    cl = classify(_nodes([5, 4, 4, 1]), [])
    assert cl.kind == "spiral" and cl.direction == "decreasing"
    cl = classify(_nodes([2, 2, 2, 2]), [])
    assert cl.kind == "spiral" and cl.direction == "constant"


def test_classify_strict_extrema_become_vertices():
    cl = classify(_nodes([1, 2, 3, 2, 1, 2]), [])
    assert cl.kind == "piecewise"
    assert cl.vertices == ((3, "max"), (5, "min"))


def test_classify_plateau_representative():
    cl = classify(_nodes([1, 3, 3, 3, 2]), [])
    assert cl.vertices == ((2, "max"),)


def test_classify_adjacent_vertices_rejected():
    with pytest.raises(AdjacentVerticesError):
        classify(_nodes([1, 3, 1, 3, 1]), [])


def test_classify_closed_wraps_cyclically():
    cl = classify(_nodes([2, 1, 2, 3]), [], closed=True)
    assert cl.kind == "piecewise"
    assert set(cl.vertices) == {(2, "min"), (4, "max")}


def test_classify_closed_nonconstant_is_never_spiral():
    cl = classify(_nodes([1, 2, 3, 2]), [], closed=True)
    assert cl.kind == "piecewise"
    assert set(cl.vertices) == {(1, "min"), (3, "max")}


def test_classify_closed_monotone_has_seam_vertices():
    # a cyclically increasing list peaks at the seam; max and min land on
    # neighbouring nodes, which the vertex spacing rule rejects
    with pytest.raises(AdjacentVerticesError):
        classify(_nodes([1, 2, 3, 4, 5, 6]), [], closed=True)


def test_classify_closed_constant_is_spiral():
    cl = classify(_nodes([2, 2, 2, 2, 2]), [], closed=True)
    assert cl.kind == "spiral" and cl.direction == "constant"


def test_classify_curvature_ties_use_relative_tolerance():
    eps = 1e-14
    cl = classify(_nodes([1.0, 1.0 + eps, 1.0 - eps, 1.0]), [])
    assert cl.kind == "spiral" and cl.direction == "constant"


# ---------------------------------------------------------------------------
# Invariance properties
# ---------------------------------------------------------------------------


def _transform(pts, angle, shift):
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return pts @ rot.T + shift


def test_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    pts, t0, t1, _ = spiral_dataset(rng, n_nodes=8)
    base = analysis_for(pts, t0, t1)
    ang, shift = 0.73, np.array([5.0, -3.0])
    moved = analysis_for(_transform(pts, ang, shift), t0 + ang, t1 + ang)
    npt.assert_allclose(moved.nodes.q, base.nodes.q, rtol=1e-9, atol=1e-12)
    npt.assert_allclose(moved.angles.xi, base.angles.xi, atol=1e-9)
    npt.assert_allclose(moved.angles.eta, base.angles.eta, atol=1e-9)


def test_scaling_scales_curvature_inversely():
    rng = np.random.default_rng(12)
    pts, t0, t1, _ = spiral_dataset(rng, n_nodes=7)
    base = analysis_for(pts, t0, t1)
    scaled = analysis_for(3.5 * pts, t0, t1)
    npt.assert_allclose(scaled.nodes.q, base.nodes.q / 3.5, rtol=1e-12)
    npt.assert_allclose(scaled.angles.xi, base.angles.xi, atol=1e-12)


def test_reversal_negates_and_reverses_curvatures():
    # traversing backwards turns left turns into right turns; node j of
    # the reversed data is node N+1-j of the original
    rng = np.random.default_rng(13)
    pts, t0, t1, _ = spiral_dataset(rng, n_nodes=8)
    base = analysis_for(pts, t0, t1)
    rev = analysis_for(pts[::-1], wrap_angle(t1 + math.pi),
                       wrap_angle(t0 + math.pi))
    npt.assert_allclose(rev.nodes.q, -base.nodes.q[::-1], rtol=1e-9,
                        atol=1e-12)
    # chord angles swap roles across the flip
    npt.assert_allclose(rev.angles.xi, base.angles.eta[::-1], atol=1e-9)
    npt.assert_allclose(rev.angles.eta, base.angles.xi[::-1], atol=1e-9)


def test_reversal_preserves_spiral_direction():
    # negating and reversing a monotone list leaves its trend unchanged,
    # so a reversed spiral keeps its direction label (the sign of every
    # q flips instead)
    rng = np.random.default_rng(14)
    pts, t0, t1, _ = spiral_dataset(rng, n_nodes=8, increasing=True)
    base = analysis_for(pts, t0, t1)
    rev = analysis_for(pts[::-1], wrap_angle(t1 + math.pi),
                       wrap_angle(t0 + math.pi))
    assert base.classification.kind == rev.classification.kind == "spiral"
    assert base.classification.direction == rev.classification.direction


# ---------------------------------------------------------------------------
# Whole-pipeline checks
# ---------------------------------------------------------------------------


def test_analyze_circle(circle_analysis):
    cl = circle_analysis.classification
    assert cl.kind == "spiral" and cl.direction == "constant"
    npt.assert_allclose(circle_analysis.nodes.q, 0.1, rtol=1e-12)


def test_discrete_curvature_plot_circle():
    t = np.linspace(0.0, 1.5, 400)
    pts = np.column_stack([4.0 * np.cos(t), 4.0 * np.sin(t)])
    plot = discrete_curvature_plot(pts)
    assert plot.shape == (398, 2)
    npt.assert_allclose(plot[:, 1], 0.25, rtol=1e-6)
    assert np.all(np.diff(plot[:, 0]) > 0)  # abscissa is arc length


# ---------------------------------------------------------------------------
# Ties within rounding
# ---------------------------------------------------------------------------


def _arc_data(rng, n=24, radius=10.0, span=1.0):
    """n nodes at random arc lengths on a circle arc, exact end tangents."""
    theta = np.sort(rng.uniform(0.0, span, n))
    pts = radius * np.column_stack([np.sin(theta), 1.0 - np.cos(theta)])
    return SplineInput(pts, tau_start=theta[0], tau_end=theta[-1])


def test_cocircular_nodes_tie_within_rounding():
    # close nodes make q's rounding error far larger than 1e-12 |q|
    rng = np.random.default_rng(20)
    for _ in range(100):
        cl = analyze(_arc_data(rng)).classification
        assert cl.kind == "spiral"


def _mp_q(pts, taus, closed):
    """q at every node from the float points, in 50-digit arithmetic."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    p = [(mp.mpf(x), mp.mpf(y)) for x, y in pts.tolist()]
    m = len(p) if closed else len(p) - 1
    seg = [(p[(k + 1) % len(p)][0] - p[k][0], p[(k + 1) % len(p)][1] - p[k][1])
           for k in range(m)]
    c = [mp.sqrt(dx ** 2 + dy ** 2) / 2 for dx, dy in seg]
    mu = [mp.atan2(dy, dx) for dx, dy in seg]
    if closed:
        c, mu = [c[-1]] + c, [mu[-1]] + mu
    else:
        c, mu = [mp.mpf(0)] + c + [mp.mpf(0)], [taus[0]] + mu + [taus[1]]
    q = []
    for j in range(len(p)):
        rho = mu[j + 1] - mu[j]
        rho -= 2 * mp.pi * mp.floor((rho + mp.pi) / (2 * mp.pi))
        d = mp.sqrt(c[j] ** 2 + 2 * c[j] * c[j + 1] * mp.cos(rho)
                    + c[j + 1] ** 2)
        q.append(mp.sin(rho) / d)
    return q


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_q_rounding_bound_holds(draw):
    n = draw.draw(st.integers(3, 10), label="nodes")
    closed = draw.draw(st.booleans(), label="closed")
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    size = 10.0 ** rng.uniform(-3, 3)
    pts = size * rng.normal(size=(n, 2)) + 10.0 ** rng.uniform(-3, 6)
    # some nodes nearly on top of their predecessor (back = 1) or of the
    # node before it, a sharp turn (back = 2)
    near = draw.draw(st.lists(st.tuples(st.integers(1, n - 1),
                                        st.integers(1, 2)), max_size=3),
                     label="near")
    for k, back in near:
        offset = size * 10.0 ** rng.uniform(-11, -4) * rng.normal(size=2)
        pts[k] = pts[k - back] + offset
    taus = (None, None) if closed else tuple(rng.uniform(-3.0, 3.0, 2))
    data = SplineInput(pts, *taus, closed=closed)
    try:
        nodes = node_data(build_chords(data))
    except (DuplicatePointsError, DegenerateNodeError):
        assume(False)
    exact = _mp_q(pts, taus, closed)
    for j, (q, err) in enumerate(zip(nodes.q.tolist(), nodes.err.tolist())):
        assert abs(q - exact[j]) <= err, (j, q, float(exact[j]), err)
