"""Provable bounding regions for planar spiral interpolation data.

Given points (and boundary tangents for open data) the package builds
per-chord regions guaranteed to contain every spiral or piecewise-spiral
curve matching the data, measures the region width as a fairness metric,
and tests sampled candidate curves for containment.

Only the API that README's Library section documents is exported here;
everything else is imported from its own module, for example
spiralbounds.regions.narrowed_region.
"""

from .analysis import SplineInput, analyze
from .compliance import check_containment
from .errors import (ClassificationError, DataError, InputError,
                     MissingTangentsError, SpiralBoundsError)
from .experiments import rounding_experiment
from .geometry import Arc, Biarc, curve_eval
from .regions import build_region, simple_region

__version__ = "0.1.0"

__all__ = [
    "SplineInput", "analyze", "build_region", "simple_region",
    "check_containment", "rounding_experiment",
    "Arc", "Biarc", "curve_eval",
    "SpiralBoundsError", "InputError", "DataError", "ClassificationError",
    "MissingTangentsError",
    "__version__",
]
