"""Exception hierarchy shared by all toricmult modules."""

from __future__ import annotations


class ToricError(Exception):
    """Base class for every domain error raised by this package."""


class CoordinateOverflowError(ToricError):
    """An input coordinate exceeds the supported magnitude bound."""


class UnboundedRegionError(ToricError):
    """A half-plane intersection has a nontrivial recession cone."""


class EmptyInputError(ToricError):
    """An operation received an empty polygon where a nonempty one is required."""


class PreconditionError(ToricError):
    """A documented precondition of an operation was violated."""


class NoIntegerInIntervalError(PreconditionError):
    """The rational interval handed to the interval splitter contains no integer."""


class DecompositionRangeError(ToricError):
    """The target point lies outside the sum region being decomposed."""


class TheoremViolationError(ToricError):
    """A guaranteed invariant failed, such as a decomposition the theorem
    promises; indicates a bug."""


class FanValidationError(ToricError):
    """Base class for fan validation diagnoses."""


class NonPrimitiveRayError(FanValidationError):
    def __init__(self, index: int, ray: tuple[int, int]):
        self.index = index
        self.ray = ray
        super().__init__(f"ray {index + 1} {ray} is zero or not primitive")


class NonSmoothFanError(FanValidationError):
    def __init__(self, index: int, det: int):
        self.index = index
        self.det = det
        super().__init__(
            f"det(v_{index + 1}, v_{index + 2}) = {det} != 1: fan not smooth/CCW at ray {index + 1}"
        )


class DuplicateRayError(FanValidationError):
    def __init__(self, index: int, ray: tuple[int, int]):
        self.index = index
        self.ray = ray
        super().__init__(f"ray {ray} appears more than once (first repeat at position {index + 1})")


class NonCompleteFanError(FanValidationError):
    def __init__(self, reason: str):
        super().__init__(f"fan is not complete: {reason}")


class FanSizeError(ToricError):
    """A generated fan would exceed the configured maximum ray count."""


class SamplingBudgetError(ToricError):
    """Rejection sampling failed to produce a divisor of the requested class."""


class BudgetExceededError(ToricError):
    """An enumeration exceeded its configured instance or pair budget."""


class ParseError(ToricError):
    """A data file failed to parse; carries a human-readable position."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
