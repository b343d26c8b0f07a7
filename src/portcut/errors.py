"""Exception types shared across the package.

Every error raised by portcut derives from :class:`PortfolioCutError`, so
callers (and the CLI) can distinguish data/numeric problems from plain bugs.
"""

from __future__ import annotations


class PortfolioCutError(Exception):
    """Base class for all portcut errors.

    The message comes first; each keyword detail is kept as an attribute of
    the same name, so ``type(e)(message, **vars(e))`` rebuilds any error.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.__dict__.update(details)


class InvalidInputError(PortfolioCutError):
    """An argument violates a documented precondition."""


class InsufficientDataError(InvalidInputError):
    """Too few observations for the requested computation."""


class DegenerateAssetError(PortfolioCutError):
    """One or more assets have zero return variance; ``asset_ids`` names them."""


class InvalidPartitionError(PortfolioCutError):
    """A bipartition leaves one side empty or misassigns a vertex."""


class DegenerateVolumeError(PortfolioCutError):
    """A side of the partition has zero volume under the volume objective."""


class DegenerateDegreeError(PortfolioCutError):
    """Zero-degree ``vertices`` make the volume-normalized eigenproblem singular."""


class NumericalFailureError(PortfolioCutError):
    """A numerical routine failed to converge or verify; see ``diagnostics``."""


class SizeLimitError(PortfolioCutError):
    """Exhaustive search refused: ``n_vertices`` exceeds ``limit`` (``candidate_count`` cuts)."""


class SingularCovarianceError(PortfolioCutError):
    """Covariance matrix is numerically singular; see ``condition_estimate``."""


class DegenerateNormalizationError(PortfolioCutError):
    """Weight normalization impossible: raw weights sum to (almost) zero."""
