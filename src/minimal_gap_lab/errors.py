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
    a declared Euler characteristic that Gauss-Bonnet contradicts, or no
    immersion at some node (`FrameError`)."""


class DomainError(MinimalGapError):
    """Input outside the mathematical domain of an operation."""


class FrameError(ValidationError):
    """Degenerate chart basis: the spec is not an immersion at some node, so
    no orthonormal frame can be built there."""


class InvariantViolation(MinimalGapError):
    """A quantity that is a theorem came out false; signals a pipeline bug."""
