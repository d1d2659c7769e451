"""Exception hierarchy shared by all lrdual modules.

The CLI maps these onto exit codes: validation errors exit 1, domain and
infeasibility errors exit 2, divergence errors exit 3, I/O errors exit 4.
"""

import numbers
from contextlib import contextmanager


class LRDualError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LRDualError):
    """Structurally invalid input (bad field, out-of-range index, bad shape)."""


class DomainError(LRDualError):
    """Input is outside the mathematical domain of an operation."""


class InfiniteTimescaleError(DomainError):
    """Weight decay of zero makes the averaging timescale infinite."""


class InfeasibleTargetError(DomainError):
    """A target coefficient profile has no generating smoothing schedule.

    ``index`` is the 1-based position of the offending coefficient: the
    highest index whose smoothing value exceeds 1 or whose mass is stranded
    behind a full reset.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DivergenceError(LRDualError):
    """Optimizer state became non-finite; ``step`` is the first bad step."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


class NonFiniteGradientError(DivergenceError):
    """A gradient containing NaN or infinity would poison optimizer state."""


def check_count(name: str, value: object, minimum: int = 1) -> None:
    """Refuse ``value`` unless it is an integer of at least ``minimum``.

    Python and numpy integers pass; bools, floats and strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        wanted = {0: "a non-negative integer", 1: "a positive integer"}
        raise ValidationError(
            f"{name} must be {wanted.get(minimum, f'an integer >= {minimum}')}, got {value!r}"
        )


@contextmanager
def allocation_guard(name: str, size: int):
    """Turn numpy's refusal to allocate ``size`` entries into a :class:`DomainError`.

    Wrap only the allocation: numpy reports an oversized shape as a
    ``ValueError`` (or ``MemoryError``), which would otherwise escape as a
    traceback.
    """
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"{name}={size} is too large to allocate: {exc}") from exc
