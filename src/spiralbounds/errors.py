"""Exception types shared across the package.

Two families matter for the CLI exit codes: InputError covers anything the
user handed us that cannot be parsed or used (exit 3), DataError covers
geometry that parsed fine but is inadmissible for the requested
construction (exit 2).
"""


class SpiralBoundsError(Exception):
    """Base class for all package-specific errors."""


class InputError(SpiralBoundsError, ValueError):
    """Bad user-supplied input: files, arguments, point sets."""


class ParseError(InputError):
    """Profile or sample file does not match the documented format."""


class DuplicatePointsError(InputError):
    """Consecutive data points coincide; `index` is the first, from 0."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class MissingTangentsError(InputError):
    """Open data supplied without both boundary tangents."""


class EmptySamplesError(InputError):
    """A sample polyline with no points."""


class OverrideError(InputError):
    """User curvature override contradicts the computed bounds."""


class DataError(SpiralBoundsError, ValueError):
    """Geometrically inadmissible data for the requested construction."""


class DomainError(DataError):
    """Argument outside a primitive's domain (abscissa, angle range)."""


class DegenerateNodeError(DataError):
    """A node where the three-point circle is undefined (cusp-like fold);
    `index` is the node, from 0."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class AdjacentVerticesError(DataError):
    """Two curvature-extremum nodes with no node between them."""


class ClassificationError(DataError):
    """Dataset class does not admit the requested construction."""


class InfeasibleCurvatureError(DataError):
    """No biarc satisfies the requested boundary curvature."""
