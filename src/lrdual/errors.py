"""Exception hierarchy shared by all lrdual modules.

The CLI maps these onto exit codes: validation errors exit 1, domain and
infeasibility errors exit 2, divergence errors exit 3, I/O errors exit 4.

An argument outside its documented range is a :class:`ValidationError`;
every count goes through :func:`check_count` and every real scalar through
:func:`check_real`, which refuse bools and strings alike. A
:class:`DomainError` is for what valid inputs lead to: a smoothing value
above 1, an overflow, a non-finite result, an unstable step or an
infeasible target.
"""

import math
import numbers
import reprlib
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

    Python and numpy integers pass; bools, floats, strings and ints past the
    float range (from ``2**1024``) do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        wanted = {0: "a non-negative integer", 1: "a positive integer"}
        raise ValidationError(
            f"{name} must be {wanted.get(minimum, f'an integer >= {minimum}')}, "
            f"got {reprlib.repr(value)}"
        )
    if value >= 2**1024:  # past the float range, and counts are used as doubles
        raise ValidationError(f"{name} must be below 2**1024, got {reprlib.repr(value)}")


def check_real(
    name: str, value: object, low: float = 0.0, high: float = math.inf, bounds: str = "[)"
) -> float:
    """``value`` as a float, refused unless it is a real number in the interval.

    ``bounds`` gives the interval's brackets, ``"[)"`` (the default), ``"()"``,
    ``"(]"`` or ``"[]"``. Python and numpy numbers pass; bools, strings,
    arrays, nan and ints past the float range do not.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.nan
        above = low <= x if bounds[0] == "[" else low < x
        below = x <= high if bounds[1] == "]" else x < high
        if above and below:
            return x
    raise ValidationError(
        f"{name} must be a number in {bounds[0]}{low:g}, {high:g}{bounds[1]}, "
        f"got {reprlib.repr(value)}"
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
