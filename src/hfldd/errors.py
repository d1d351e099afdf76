"""Exception taxonomy shared across the package.

Every public operation raises one of these instead of bare ValueError so
callers (and the CLI) can map failures to exit codes without string matching.
"""

from __future__ import annotations


class HflddError(Exception):
    """Base class for all package errors."""


class ShapeError(HflddError):
    """Operand dimensions are incompatible with the operation."""


class DomainError(HflddError):
    """A scalar argument or field is outside its allowed domain."""


class SingularMatrixError(HflddError):
    """A factorization failed because the system is not positive definite."""


class CapacityError(HflddError):
    """A request asked for more items than the source can supply."""


class EmptyInputError(HflddError):
    """An operation received an empty collection where data is required."""


class FormatError(HflddError):
    """A file or byte stream does not follow its declared format."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(HflddError):
    """An experiment configuration is malformed or fails validation."""


class ManifestError(HflddError):
    """A run directory is missing required files or has a bad manifest."""


class StageError(HflddError):
    """A run aborted; carries the name of the failing stage and, for a
    training round, its round index."""

    def __init__(self, stage: str, cause: Exception, round_index: int | None = None):
        where = "" if round_index is None else f" in round {round_index}"
        super().__init__(f"stage '{stage}' failed{where}: {cause}")
        self.stage = stage
        self.cause = cause
        self.round_index = round_index
