"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ExtLPError",
    "DomainError",
    "DimensionError",
    "PreconditionError",
    "InvalidProgramError",
    "TheoremViolationError",
    "ScaleLimitError",
    "GenerationBudgetError",
    "LPFormatError",
]


class ExtLPError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ExtLPError, ValueError):
    """A value lies outside the domain an operation is defined on.

    Examples: scaling by a negative rational, reading the finite part of an
    endpoint, float input where exact rationals are required.
    """


class DimensionError(ExtLPError, ValueError):
    """Operands have incompatible shapes."""


class PreconditionError(ExtLPError):
    """A named precondition of a solver or audit routine does not hold.

    ``violations`` maps condition names to the offending row/column indices
    (empty tuple when the condition has no index payload).
    """

    def __init__(self, message: str, violations: dict[str, tuple[int, ...]] | None = None):
        super().__init__(message)
        self.violations = dict(violations or {})


class InvalidProgramError(PreconditionError):
    """An extended program fails validity screening.

    Carries the full validity report on ``report``.
    """

    def __init__(self, report):
        failed = report.failed()
        names = ", ".join(sorted(failed))
        super().__init__(f"program is not valid: {names}", failed)
        self.report = report


class TheoremViolationError(ExtLPError):
    """An invariant the theory guarantees was observed broken at runtime.

    This always indicates a bug in the solver (or memory corruption), never
    bad user input; the CLI maps it to its own exit code.
    """


class ScaleLimitError(ExtLPError):
    """Instance exceeds the size the brute-force oracle supports."""


class GenerationBudgetError(ExtLPError):
    """Rejection sampling exhausted its attempt budget.

    The seed is kept on the exception so the failure can be reproduced.
    """

    def __init__(self, message: str, seed: int):
        super().__init__(message)
        self.seed = seed


class LPFormatError(ExtLPError, ValueError):
    """Malformed program file."""
