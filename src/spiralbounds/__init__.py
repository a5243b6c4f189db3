"""Provable bounding regions for planar spiral interpolation data.

Given points (and boundary tangents for open data) the package builds
per-chord regions guaranteed to contain every spiral or piecewise-spiral
curve matching the data, measures the region width as a fairness metric,
and tests sampled candidate curves for containment.
"""

from .analysis import (Analysis, Classification, Lim180Violation,
                       SplineInput, analyze, build_chords, check_lim180,
                       classify, discrete_curvature_plot, node_data, xi_eta)
from .compliance import ComplianceReport, check_containment
from .errors import (AdjacentVerticesError, ClassificationError, DataError,
                     DegenerateNodeError, DomainError, DuplicatePointsError,
                     EmptySamplesError, InfeasibleCurvatureError, InputError,
                     MissingTangentsError, OverrideError, ParseError,
                     SpiralBoundsError)
from .experiments import (RoundingExperiment, circle_dataset,
                          rounded_circle_dataset, rounding_experiment)
from .geometry import (Arc, Biarc, ChordFrame, arc_eval, biarc_eval,
                       biarc_from_a, biarc_from_b, biarc_from_p, curve_eval,
                       wrap_angle)
from .regions import (CurvatureRanges, NarrowedAngles, Region, RegionChord,
                      build_region, curvature_ranges, narrowed_angle_ranges,
                      narrowed_region, simple_region, vertex_region)
from .splinefit import cubic_spline_fixture

__version__ = "0.1.0"

__all__ = [
    "Analysis", "Classification", "Lim180Violation", "SplineInput",
    "analyze", "build_chords", "check_lim180", "classify",
    "discrete_curvature_plot", "node_data", "xi_eta",
    "ComplianceReport", "check_containment",
    "AdjacentVerticesError", "ClassificationError", "DataError",
    "DegenerateNodeError", "DomainError", "DuplicatePointsError",
    "EmptySamplesError", "InfeasibleCurvatureError", "InputError",
    "MissingTangentsError", "OverrideError", "ParseError",
    "SpiralBoundsError",
    "RoundingExperiment", "circle_dataset", "rounded_circle_dataset",
    "rounding_experiment",
    "Arc", "Biarc", "ChordFrame", "arc_eval", "biarc_eval",
    "biarc_from_a", "biarc_from_b", "biarc_from_p", "curve_eval",
    "wrap_angle",
    "CurvatureRanges", "NarrowedAngles", "Region", "RegionChord",
    "build_region", "curvature_ranges", "narrowed_angle_ranges",
    "narrowed_region", "simple_region", "vertex_region",
    "cubic_spline_fixture",
    "__version__",
]
