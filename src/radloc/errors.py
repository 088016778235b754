"""Exception types shared across the package.

Grouped here so the CLI can map error families to distinct exit codes.
"""

from __future__ import annotations


class RadlocError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(RadlocError):
    """Structurally invalid domain input (empty track, bad quaternion, ...)."""


class InvalidRowError(MalformedInputError):
    """A row of a column batch (a hit, a pair, a pose) breaks its record's contract; carries its index in the batch."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class ParseError(RadlocError):
    """An input file line could not be parsed."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        if path or line:
            message = f"{path}:{line}: {message}"
        super().__init__(message)


class SchemaError(RadlocError):
    """A configuration file violates its schema."""

    def __init__(self, message: str, keys: list[str] | None = None):
        self.keys = keys or []
        if self.keys:
            message = f"{message} (offending keys: {', '.join(self.keys)})"
        super().__init__(message)


class OrderingError(RadlocError):
    """A time-ordered stream contract was violated."""


class PoseExtrapolationError(RadlocError):
    """Requested time lies outside the pose stream."""


class InfeasibleInitError(RadlocError):
    """No feasible initializer solution was found from any start."""
