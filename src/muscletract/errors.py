"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: usage errors exit 2 (argparse), data/format
errors exit 3, numeric/degenerate errors exit 4.
"""


class MuscleTractError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DataError(MuscleTractError):
    """Bad input data, file contents, or incompatible frames."""

    exit_code = 3


class FormatError(DataError):
    """Malformed or truncated binary/CSV/config file."""


class ConfigError(DataError):
    """Unknown key or invalid value in a run-config file."""


class FrameMismatchError(DataError):
    """Two gridded inputs do not share dims, voxel size, and origin."""


class ArityError(DataError):
    """Count mismatch, e.g. k exceeding candidates or unequal point counts."""


class InvalidSpecError(DataError):
    """Non-physical phantom specification."""


class NonUnitError(InvalidSpecError):
    """Field directions off unit norm where fa > 0; carries their norms and the worst."""

    def __init__(self, norms, worst: float):
        super().__init__(f"directions must be unit-norm where fa > 0 (worst deviation {worst:.3g})")
        self.norms, self.worst = norms, worst


class NumericError(MuscleTractError):
    """Degenerate geometry or distribution that has no defined result."""

    exit_code = 4


class InvalidStreamlineError(NumericError):
    """Streamline violates its invariants (too few points, zero length, NaN)."""


class EmptyDomainError(NumericError):
    """Operation requires at least one occupied voxel or nonzero total."""


class InsufficientExtentError(NumericError):
    """Mask has fewer occupied slices than requested."""


class DegenerateGeometryError(NumericError):
    """Coincident points, zero-length chord, or rank-deficient fit."""


class DegenerateDistributionError(NumericError):
    """Zero variance where a spread statistic is required."""

