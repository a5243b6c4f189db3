"""Logarithmic-spiral segments: a closed-form source of spiral test curves.

A logarithmic spiral r(theta) = scale * exp(growth * theta) around a
center has strictly monotone curvature and closed-form tangents, so short
segments of it make trustworthy oracles for properties that hold for
"any spiral".  Traversed with increasing theta the signed curvature is

    kappa(theta) = exp(-growth * theta) / (scale * sqrt(1 + growth^2)),

positive (the spiral turns left) and strictly increasing iff growth < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spiralbounds.geometry import ChordFrame, wrap_angle

FULL_TURN = 2.0 * math.pi


@dataclass(frozen=True)
class LogSpiral:
    scale: float = 1.0
    growth: float = -0.2
    center: tuple[float, float] = (0.0, 0.0)

    def radius(self, theta):
        return self.scale * np.exp(self.growth * np.asarray(theta, dtype=float))

    def point(self, theta):
        th = np.asarray(theta, dtype=float)
        r = self.radius(th)
        return np.stack([self.center[0] + r * np.cos(th),
                         self.center[1] + r * np.sin(th)], axis=-1)

    def velocity(self, theta):
        th = np.asarray(theta, dtype=float)
        r = self.radius(th)
        g = self.growth
        return np.stack([r * (g * np.cos(th) - np.sin(th)),
                         r * (g * np.sin(th) + np.cos(th))], axis=-1)

    def tangent_angle(self, theta):
        """Tangent direction for increasing-theta traversal (unwrapped)."""
        return np.asarray(theta, dtype=float) + math.atan2(1.0, self.growth)

    def curvature(self, theta):
        th = np.asarray(theta, dtype=float)
        return np.exp(-self.growth * th) / (self.scale * math.hypot(1.0, self.growth))

    def arc(self, theta0: float, theta1: float) -> "SpiralArc":
        if not theta1 > theta0:
            raise ValueError("need theta1 > theta0")
        p0 = self.point(theta0)
        p1 = self.point(theta1)
        mid = 0.5 * (p0 + p1)
        mu = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        c = 0.5 * math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        frame = ChordFrame(origin=(float(mid[0]), float(mid[1])),
                           direction=mu, half_length=c)
        alpha = wrap_angle(self.tangent_angle(theta0) - mu)
        beta = wrap_angle(self.tangent_angle(theta1) - mu)
        return SpiralArc(spiral=self, theta0=theta0, theta1=theta1,
                         frame=frame, alpha=float(alpha), beta=float(beta),
                         kappa0=float(self.curvature(theta0)),
                         kappa1=float(self.curvature(theta1)))


@dataclass(frozen=True)
class SpiralArc:
    """A spiral piece seen as a graph y(x) over its own chord."""

    spiral: LogSpiral
    theta0: float
    theta1: float
    frame: ChordFrame
    alpha: float
    beta: float
    kappa0: float
    kappa1: float

    def height(self, x):
        """Height of the spiral over abscissa x, by Newton on theta(x).

        Valid for pieces short enough to project one-to-one onto their
        chord, which is what the generators below produce.
        """
        scalar = np.ndim(x) == 0
        xt = np.atleast_1d(np.asarray(x, dtype=float))
        grid = np.linspace(self.theta0, self.theta1, 129)
        xg = self.frame.to_local(self.spiral.point(grid))[:, 0]
        th = np.interp(xt, xg, grid)
        t_axis = self.frame.axes[:, 0]
        for _ in range(6):
            loc = self.frame.to_local(self.spiral.point(th))
            f = loc[:, 0] - xt
            df = self.spiral.velocity(th) @ t_axis
            th = np.clip(th - f / df, self.theta0, self.theta1)
        y = self.frame.to_local(self.spiral.point(th))[:, 1]
        return float(y[0]) if scalar else y

    def sample_global(self, n: int) -> np.ndarray:
        """n points of the piece in global coordinates, theta-uniform."""
        return self.spiral.point(np.linspace(self.theta0, self.theta1, n))


def random_arc(rng, increasing=True, max_turn=1.2):
    """A random short spiral arc; increasing selects the curvature trend."""
    growth = rng.uniform(0.08, 0.6) * (-1.0 if increasing else 1.0)
    spiral = LogSpiral(scale=math.exp(rng.uniform(-0.7, 0.9)),
                       growth=growth,
                       center=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    theta0 = rng.uniform(0.0, FULL_TURN)
    span = rng.uniform(0.05, max_turn)
    return spiral.arc(theta0, theta0 + span)


def spiral_dataset(rng, n_nodes=None, increasing=None):
    """Random spiral interpolation data plus its generating arc.

    Returns (points, tau_start, tau_end, arc) where arc spans the sampled
    nodes; node spacing is irregular but small enough that the turning
    angles stay far from pi/2.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(6, 15))
    if increasing is None:
        increasing = bool(rng.integers(0, 2))
    growth = rng.uniform(0.08, 0.45) * (-1.0 if increasing else 1.0)
    spiral = LogSpiral(scale=math.exp(rng.uniform(-0.5, 1.0)),
                       growth=growth,
                       center=(rng.uniform(-4, 4), rng.uniform(-4, 4)))
    steps = rng.uniform(0.08, 0.38, size=n_nodes - 1)
    thetas = rng.uniform(0.0, FULL_TURN) + np.concatenate(
        [[0.0], np.cumsum(steps)])
    points = spiral.point(thetas)
    tau_start = float(wrap_angle(spiral.tangent_angle(thetas[0])))
    tau_end = float(wrap_angle(spiral.tangent_angle(thetas[-1])))
    arc = spiral.arc(float(thetas[0]), float(thetas[-1]))
    return points, tau_start, tau_end, arc
