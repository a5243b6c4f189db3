"""Built-in datasets and the coordinate-rounding experiment.

The circle dataset reproduces a classic inspection scenario: 21 points
on a radius-10 circle, 3 degrees apart, with exact boundary tangents.
Its discrete curvature is 0.1 at every node.  Rounding the coordinates
to two decimals (a common export precision) destroys that flat line:
the three-point curvature of near-circular data amplifies coordinate
noise roughly by 6R/c^2 per unit, which here turns a 0.005 coordinate
error budget into curvature beating larger than half the signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import SplineInput, build_chords, node_data


def circle_dataset(n_points: int = 21, radius: float = 10.0,
                   step_deg: float = 3.0) -> SplineInput:
    """Points x = R sin(theta), y = R (1 - cos(theta)) with exact tangents.

    The parameter runs theta_i = i * step, so the start tangent is 0 and
    the end tangent equals the last parameter value.
    """
    theta = np.radians(step_deg) * np.arange(n_points)
    pts = np.column_stack([radius * np.sin(theta),
                           radius * (1.0 - np.cos(theta))])
    return SplineInput(points=pts, tau_start=0.0, tau_end=float(theta[-1]))


def rounded_circle_dataset(decimals: int = 2) -> SplineInput:
    base = circle_dataset()
    return SplineInput(points=np.round(base.points, decimals),
                       tau_start=base.tau_start, tau_end=base.tau_end)


@dataclass(frozen=True, eq=False)
class RoundingExperiment:
    exact: SplineInput
    rounded: SplineInput
    exact_q: np.ndarray
    rounded_q: np.ndarray
    target_q: float

    @property
    def max_deviation(self) -> float:
        """Largest |q - target| over the rounded dataset's nodes."""
        return float(np.max(np.abs(self.rounded_q - self.target_q)))

    @property
    def trend_sign_changes(self) -> int:
        """Sign changes along consecutive differences of the rounded q."""
        d = np.diff(self.rounded_q)
        d = d[d != 0.0]
        return int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))


def rounding_experiment(decimals: int = 2) -> RoundingExperiment:
    """Compare discrete curvature of the circle data before/after rounding.

    Classification is skipped: the rounded dataset typically has curvature
    extrema at adjacent nodes, which the classifier rightly rejects, and
    the experiment only needs the raw q sequence.
    """
    exact = circle_dataset()
    rounded = rounded_circle_dataset(decimals)
    return RoundingExperiment(exact=exact, rounded=rounded,
                              exact_q=node_data(build_chords(exact)).q,
                              rounded_q=node_data(build_chords(rounded)).q,
                              target_q=0.1)
