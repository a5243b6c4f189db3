"""Seeded inputs for the benchmark: profiles, candidate curves and probes.

Plain numpy only.  The benchmark must not lean on the package's own test
oracles (`spiralbounds.logspiral`, `spiralbounds.experiments`), so the
log spiral, the oval and the hairpin are generated here.

Every generated curve turns left (counter-clockwise), so the outward side
of a chord or node is its right-hand side.  A case carries the probes it
was built with and, for each probe, whether it lies inside the region
(`probe_inside`); the self-tests check those truths against the regions
the package builds.

Probe kinds, placed on seeded subsets of chords and nodes:

  curve    a point of the generating curve between two nodes (inside:
           every spiral through the data lies in the region);
  mid_out  on the chord's perpendicular bisector, four sagittas beyond
           the curve, away from the chord (outside);
  mid_in   on the same bisector, one sagitta on the far side of the chord
           from the curve (outside: the lens of a chord between same-sign
           three-point curvatures lies on the curve's side of the chord);

mid_* probes skip chords that touch a curvature extremum, where the vertex
grade widens the lens and may cross the chord.
  wedge    at a node, pushed outward along the bisector of the turning
           angle by a quarter of the shorter neighbouring half-chord
           (outside; it projects past the ends of both neighbouring
           chords, which is where `check` has a hole).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PROBE_KINDS = ("curve", "mid_out", "mid_in", "wedge")


@dataclass
class Case:
    """One profile with everything needed to drive and judge it."""

    name: str
    points: np.ndarray
    closed: bool
    tau_start: float | None
    tau_end: float | None
    expect_kind: str                 # classification kind
    expect_direction: str | None     # spiral direction
    reject_node: int | None = None   # hairpins: node the error must name
    curve: np.ndarray | None = None  # candidate curve samples
    curve_generating: bool = True    # curve is the generating curve
    probes: np.ndarray | None = None
    probe_kind: np.ndarray | None = None  # index into PROBE_KINDS

    @property
    def expect_grade(self):
        if self.expect_kind == "inadmissible":
            return None
        return "narrowed" if self.expect_kind == "spiral" else "vertex"

    @property
    def chords(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

    @property
    def probe_inside(self) -> np.ndarray:
        return self.probe_kind == PROBE_KINDS.index("curve")

    def candidate(self) -> np.ndarray:
        """Candidate samples as written to the sample file: curve, then probes."""
        parts = [p for p in (self.curve, self.probes) if p is not None]
        return np.vstack(parts)

    def profile_dict(self) -> dict:
        prof = {"version": 1,
                "points": self.points.tolist(),
                "closed": self.closed}
        if not self.closed:
            prof["tangents"] = {"start": self.tau_start, "end": self.tau_end}
        return prof


def write_profile(path, case: Case) -> int:
    text = json.dumps(case.profile_dict())
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


def write_samples(path, samples: np.ndarray) -> int:
    text = json.dumps(np.asarray(samples, dtype=float).tolist())
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def log_spiral(theta, scale, growth, center=(0.0, 0.0)):
    """Points of r = scale * exp(growth * theta); curvature rises iff growth < 0."""
    th = np.asarray(theta, dtype=float)
    r = scale * np.exp(growth * th)
    return np.column_stack([center[0] + r * np.cos(th),
                            center[1] + r * np.sin(th)])


def log_spiral_tangent(theta, growth):
    return float(theta) + math.atan2(1.0, growth)


def oval(t):
    """The convex oval (cos t + 0.22 cos 2t, sin t); six curvature extrema."""
    t = np.asarray(t, dtype=float)
    return np.column_stack([np.cos(t) + 0.22 * np.cos(2.0 * t), np.sin(t)])


def _unit(v):
    return v / np.hypot(v[:, 0], v[:, 1])[:, None]


def _right(v):
    return np.column_stack([v[:, 1], -v[:, 0]])


def _rotation(angle):
    co, si = math.cos(angle), math.sin(angle)
    return np.array([[co, -si], [si, co]])


def _closed_curvature(pts):
    """Three-point curvature sin(rho_j) / d_j at every node of closed data."""
    seg = np.roll(pts, -1, axis=0) - pts
    prev = np.roll(seg, 1, axis=0)
    rho = np.arctan2(prev[:, 0] * seg[:, 1] - prev[:, 1] * seg[:, 0],
                     np.einsum("ij,ij->i", prev, seg))
    diag = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    return np.sin(rho) / (0.5 * np.hypot(diag[:, 0], diag[:, 1]))


def _extrema(q):
    """Strict cyclic extrema of q."""
    left, right = np.roll(q, 1), np.roll(q, -1)
    return ((q > left) & (q > right)) | ((q < left) & (q < right))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def make_probes(points, closed, mid_curve, rng, share=1.0, extrema=None):
    """Probes of every kind on a seeded `share` of chords and nodes.

    mid_curve[k] is the generating curve's point between nodes k and k+1;
    extrema flags the nodes (closed data) where curvature peaks or dips.
    """
    pts = np.asarray(points, dtype=float)
    nxt = np.roll(pts, -1, axis=0) if closed else pts[1:]
    start = pts if closed else pts[:-1]
    seg = nxt - start
    half = 0.5 * np.hypot(seg[:, 0], seg[:, 1])
    mid = 0.5 * (start + nxt)
    n_out = _right(_unit(seg))
    sag = np.einsum("ij,ij->i", mid_curve - mid, n_out)

    m = len(seg)
    nodes = np.arange(m) if closed else np.arange(1, m)   # node i joins
    h = np.minimum(half[nodes - 1], half[nodes])          # seg i-1 and i
    bis_out = _right(_unit(_unit(seg[nodes - 1]) + _unit(seg[nodes])))

    plain = np.arange(m)
    if extrema is not None:
        plain = plain[~(extrema | np.roll(extrema, -1))]

    def pick(pool):
        k = min(max(1, int(round(share * len(pool)))), len(pool))
        return np.sort(rng.choice(pool, size=k, replace=False))

    groups = []
    ch = pick(np.arange(m))
    groups.append((mid_curve[ch], 0))
    ch = pick(plain)
    groups.append((mid[ch] + 5.0 * sag[ch, None] * n_out[ch], 1))
    ch = pick(plain)
    groups.append((mid[ch] - sag[ch, None] * n_out[ch], 2))
    nd = pick(np.arange(len(nodes)))
    groups.append((pts[nodes[nd]] + 0.25 * h[nd, None] * bis_out[nd], 3))
    probes = np.vstack([g for g, _ in groups])
    kind = np.concatenate([np.full(len(g), k) for g, k in groups])
    return probes, kind


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def spiral_case(rng, n_nodes, scale, growth, theta0, span, jitter,
                center=(0.0, 0.0), probe_share=1.0, curve_samples=0,
                name="spiral") -> Case:
    """Open log-spiral data with seeded node-spacing jitter."""
    steps = 1.0 + jitter * rng.uniform(-1.0, 1.0, n_nodes - 1)
    steps *= span / steps.sum()
    theta = theta0 + np.concatenate([[0.0], np.cumsum(steps)])
    pts = log_spiral(theta, scale, growth, center)
    mid_curve = log_spiral(0.5 * (theta[1:] + theta[:-1]), scale, growth,
                           center)
    probes, kind = make_probes(pts, False, mid_curve, rng, probe_share)
    curve = None
    if curve_samples:
        curve = log_spiral(np.linspace(theta[0], theta[-1], curve_samples),
                           scale, growth, center)
    return Case(name=name, points=pts, closed=False,
                tau_start=log_spiral_tangent(theta[0], growth),
                tau_end=log_spiral_tangent(theta[-1], growth),
                expect_kind="spiral",
                expect_direction="increasing" if growth < 0 else "decreasing",
                curve=curve, probes=probes, probe_kind=kind)


def oval_case(rng, n_nodes, probe_count=None, curve_samples=0,
              name="oval") -> Case:
    """Closed oval data at a seeded phase; piecewise, so the vertex grade."""
    while True:   # coarse data can put two curvature extrema side by side
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t = phase + 2.0 * math.pi * np.arange(n_nodes) / n_nodes
        pts = oval(t)
        extrema = _extrema(_closed_curvature(pts))
        if not np.any(extrema & np.roll(extrema, -1)):
            break
    mid_curve = oval(t + math.pi / n_nodes)
    share = 1.0 if probe_count is None else probe_count / n_nodes
    probes, kind = make_probes(pts, True, mid_curve, rng, share, extrema)
    curve = None
    if curve_samples:
        curve = oval(phase + 2.0 * math.pi * np.arange(curve_samples)
                     / curve_samples)
    return Case(name=name, points=pts, closed=True, tau_start=None,
                tau_end=None, expect_kind="piecewise", expect_direction=None,
                curve=curve, probes=probes, probe_kind=kind)


def hairpin_case(rng, n_nodes, name="hairpin") -> Case:
    """Open spiral data with one fold that breaks the half-turn condition.

    At node k (1-based) the path turns by about 150 degrees and the next
    chord doubles in length, so c_{k-1} + c_k cos(rho_k) < 0 there and
    nowhere earlier.
    """
    base = small_spiral_case(rng, n_nodes)
    pts = base.points.copy()
    k = int(rng.integers(2, n_nodes))                # fold at node k, 1-based
    step = 2.0 * (_rotation(math.radians(rng.uniform(140.0, 160.0)))
                  @ (pts[k - 1] - pts[k - 2]))
    for j in range(k, n_nodes):
        pts[j] = pts[j - 1] + step
        step = _rotation(0.1) @ (step if j > k else 0.5 * step)
    end = pts[-1] - pts[-2]
    return Case(name=name, points=pts, closed=False,
                tau_start=base.tau_start,
                tau_end=math.atan2(end[1], end[0]),
                expect_kind="inadmissible", expect_direction=None,
                reject_node=k)


def small_spiral_case(rng, n_nodes, curve_samples=0, name="spiral"):
    """A short open spiral of either curvature direction, seeded placement."""
    growth = rng.uniform(0.08, 0.45) * (1.0 if rng.integers(2) else -1.0)
    return spiral_case(rng, n_nodes, scale=math.exp(rng.uniform(-0.5, 1.0)),
                       growth=growth, theta0=rng.uniform(0.0, 2.0 * math.pi),
                       span=0.23 * (n_nodes - 1), jitter=0.6,
                       center=tuple(rng.uniform(-4.0, 4.0, 2)),
                       curve_samples=curve_samples, name=name)


def golden_cases():
    """Small fixed profiles whose widths are pinned in golden.json.

    One per branch the workloads take: narrowed on increasing and on
    decreasing (mirrored) curvature, vertex on closed data, and the
    half-turn rejection.
    """
    rng = np.random.default_rng(20121113)
    return [
        spiral_case(rng, 41, scale=50.0, growth=-0.05, theta0=0.0, span=6.0,
                    jitter=0.2, name="golden-spiral-increasing"),
        spiral_case(rng, 12, scale=2.0, growth=0.3, theta0=1.0, span=2.5,
                    jitter=0.6, curve_samples=64,
                    name="golden-spiral-decreasing"),
        oval_case(rng, 24, curve_samples=64, name="golden-oval"),
        hairpin_case(rng, 9, name="golden-hairpin"),
    ]
