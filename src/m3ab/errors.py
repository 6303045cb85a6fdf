"""Exception types shared across the package."""

from __future__ import annotations


class M3ABError(Exception):
    """Base class for all package-specific errors."""


class InsufficientBudgetError(M3ABError):
    """A stage budget is too small to give every arm at least one pull.

    Carries the starved arm (0 = control) and, when raised from the
    experiment harness, the (algorithm, budget) cell that failed.
    """

    def __init__(self, message: str, arm: int | None = None, cell: tuple | None = None):
        super().__init__(message)
        self.arm = arm
        self.cell = cell


class TooLargeError(M3ABError):
    """h3's branch and bound refused more than max_enumeration treatments.
    The closed-form h3_prime is no stand-in for h3: it is a lower estimate,
    measured 2.0 to 2.5 times below h3, so error bounds from it are too small."""


class DegenerateVarianceError(M3ABError):
    """A phase-0 variance estimate that is zero or not finite leaves the z
    statistics undefined."""


class SchemaError(M3ABError):
    """An instance file violates the documented JSON schema.

    `field` is the path of the offending entry, e.g. "validation.delta[2]".
    """

    def __init__(self, message: str, field: str):
        super().__init__(f"{field}: {message}")
        self.field = field
