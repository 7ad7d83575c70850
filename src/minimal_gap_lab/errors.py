"""Exception taxonomy shared across the package."""


class MinimalGapError(Exception):
    """Base class for all package errors."""


class ParseError(MinimalGapError):
    """Malformed immersion spec file; message cites the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(MinimalGapError):
    """Immersion spec rejected: unit-image or minimality residual too large,
    or a declared Euler characteristic that Gauss-Bonnet contradicts."""


class DomainError(MinimalGapError):
    """Input outside the mathematical domain of an operation."""


class FrameError(MinimalGapError):
    """Degenerate chart basis; no orthonormal frame can be built."""


class InvariantViolation(MinimalGapError):
    """A quantity that is a theorem came out false; signals a pipeline bug."""
