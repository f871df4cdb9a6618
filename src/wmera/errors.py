"""Exception hierarchy shared across the package.

Each class carries the process exit code the command-line front end maps it
to, so library code can raise precise errors without knowing about the CLI.
"""


class WmeraError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ArgumentError(WmeraError, ValueError):
    """Invalid argument, option, or configuration value."""

    exit_code = 2


class DimensionError(WmeraError, ValueError):
    """Tensor extents or network shapes do not line up."""

    exit_code = 2


class FormatError(WmeraError):
    """Malformed file contents (WAV, CSV, manifests, binary state records)."""

    exit_code = 3


class DataError(WmeraError):
    """Well-formed input with unusable values (non-finite entries, degenerate
    ranges, checksum mismatches)."""

    exit_code = 3


class NumericError(WmeraError):
    """Non-finite intermediate values or a diverging iterative solve."""

    exit_code = 4


class StateError(WmeraError):
    """A required artifact is missing or a pipeline precondition does not hold."""

    exit_code = 5
