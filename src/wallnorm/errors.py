"""Domain exceptions shared across the package.

Everything raised on bad input or unattainable requests derives from
WallNormError, so callers (and the CLI) can separate domain failures
from programming errors.
"""


class WallNormError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedInput(WallNormError):
    """Input text or data does not conform to the documented format."""


class DartMultiplicity(WallNormError):
    """A dart id is missing or repeated in the rotations or edge pairs."""


class BadDegree(WallNormError):
    """A vertex rotation does not consist of exactly four darts."""


class BadEuler(WallNormError):
    """Euler characteristic is not that of a closed oriented surface of genus >= 1."""


class TorsionDetected(WallNormError):
    """Integer homology came out non-free; signals an internal inconsistency."""


class OpenWalk(WallNormError):
    """A dual walk does not chain properly or does not close up."""


class NotABasis(WallNormError):
    """Proposed cycles do not form a homology basis (pairing matrix not unimodular)."""


class NotBipartite(WallNormError):
    """The dual graph has no proper two-coloring, so no checkerboard coorientation exists."""


class NotEulerian(WallNormError):
    """The operation is only defined for Eulerian coorientations."""


class ResourceLimit(WallNormError):
    """An enumeration exceeded its configured cap; results would be partial."""


class BoxExceeded(WallNormError):
    """No representative exists inside the truncated cover; enlarge the radius."""


class UnstableTruncation(WallNormError):
    """A truncated minimum kept improving as the radius grew past its cap."""


class NotRealizable(WallNormError):
    """The target class is not the class of any Eulerian coorientation.

    ``certificate`` is the evidence when there is one: for reason
    "outside-ball", a closed dual walk shorter than its pairing with the
    target, which violates the norm inequality.
    """

    def __init__(self, reason, message, certificate=None):
        super().__init__(message)
        self.reason = reason
        self.certificate = certificate


class DegenerateBall(WallNormError):
    """The dual ball is not full-dimensional; signals an upstream inconsistency."""


class WrongGenus(WallNormError):
    """The operation supports genus-one maps only."""


class InternalError(WallNormError):
    """An internal invariant failed; the result would be wrong, so none is given."""
