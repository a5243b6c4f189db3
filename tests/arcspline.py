"""Arc splines with monotone curvature: a closed-form source of spirals.

An arc spline is a chain of circle arcs (a straight piece where the
curvature is 0) joined with matching tangents.  Piece i has curvature
k_i and length u_i.  From its start point P_i and start tangent angle
t_i, the point at arc length s in [0, u_i] is

    P_i + s sinc(k_i s / 2) (cos(t_i + k_i s / 2), sin(t_i + k_i s / 2)),

since the chord of an arc of length s and turn k s is s sinc(k s / 2)
long and halves the turn; the tangent there is t_i + k_i s.  With the
k_i monotone the chain is a spiral whose curvature is piecewise
constant, so every region built for spiral data through its points
must hold it.  Unlike log spirals, these curves have curvature jumps,
cross inflections where k changes sign, and follow a boundary circle
exactly wherever one piece holds three neighbouring nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _chord(k, s):
    """Chord length of an arc of curvature k and length s; np.sinc(x)
    is sin(pi x)/(pi x)."""
    return s * np.sinc(k * s / (2.0 * math.pi))


@dataclass(frozen=True)
class ArcSpline:
    kappa: tuple        # curvature per piece
    length: tuple       # arc length per piece
    start: tuple = (0.0, 0.0)
    angle: float = 0.0  # tangent angle at the start

    def __post_init__(self):
        if len(self.kappa) != len(self.length) or not self.kappa:
            raise ValueError("need one length per curvature, at least one")
        if min(self.length) <= 0.0:
            raise ValueError("piece lengths must be positive")

    @property
    def total(self) -> float:
        return float(sum(self.length))

    def _pieces(self):
        """Per piece: curvature, start arc length, start angle, start point."""
        k = np.asarray(self.kappa, dtype=float)
        u = np.asarray(self.length, dtype=float)
        s0 = np.concatenate([[0.0], np.cumsum(u)[:-1]])
        t0 = self.angle + np.concatenate([[0.0], np.cumsum(k * u)[:-1]])
        mid = t0 + 0.5 * k * u
        step = _chord(k, u)[:, None] * np.column_stack([np.cos(mid),
                                                       np.sin(mid)])
        p0 = np.asarray(self.start, dtype=float) + np.concatenate(
            [[[0.0, 0.0]], np.cumsum(step, axis=0)[:-1]])
        return k, s0, t0, p0

    def _locate(self, s):
        k, s0, t0, p0 = self._pieces()
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(s0, s, "right") - 1, 0, len(k) - 1)
        return k[i], s - s0[i], t0[i], p0[i]

    def point(self, s) -> np.ndarray:
        """Points at arc lengths s, in [0, total]."""
        k, t, t0, p0 = self._locate(s)
        mid = t0 + 0.5 * k * t
        return p0 + (_chord(k, t) * np.stack([np.cos(mid), np.sin(mid)])).T

    def tangent_angle(self, s) -> np.ndarray:
        """Unwrapped tangent angle at arc lengths s."""
        k, t, t0, _ = self._locate(s)
        return t0 + k * t


def random_arc_spline(rng, pieces, increasing=True, max_kappa=1.5,
                      max_turn=0.8):
    """Monotone curvatures in [-max_kappa, max_kappa]; each piece turns by
    at most max_turn, and is at most 2 units long."""
    k = np.sort(rng.uniform(-max_kappa, max_kappa, pieces))
    if not increasing:
        k = k[::-1]
    u = rng.uniform(0.05, 1.0, pieces) * np.minimum(
        2.0, max_turn / np.maximum(np.abs(k), 1e-300))
    return ArcSpline(kappa=tuple(k.tolist()), length=tuple(u.tolist()),
                     start=tuple(rng.uniform(-3.0, 3.0, 2).tolist()),
                     angle=float(rng.uniform(-math.pi, math.pi)))


def arc_spline_dataset(rng, spline, n_nodes):
    """Nodes at irregular arc lengths, no gap below a fifth of the largest,
    both ends included, and exact end tangents: (points, tau_start,
    tau_end, node arc lengths)."""
    gaps = np.cumsum(rng.uniform(0.2, 1.0, n_nodes - 1))
    s = spline.total * np.concatenate([[0.0], gaps[:-1] / gaps[-1], [1.0]])
    tau = spline.tangent_angle(s[[0, -1]])
    return spline.point(s), float(tau[0]), float(tau[1]), s
