"""Convex-combination ("dual") coefficients implied by a smoothing sequence.

A moving average with time-varying smoothing,

    y_t = (1 - alpha_t) * y_{t-1} + alpha_t * x_t,    alpha_1 = 1,

makes every y_t a convex combination of the inputs:

    y_t = sum_i c_{t,i} x_i,    c_{t,i} = alpha_i * prod_{j=i+1..t} (1 - alpha_j).

For AdamW the inputs are the (rescaled) weight updates and alpha_t is the
product of learning rate and weight decay, so these coefficients are the dual
view of an LR schedule. Coefficients underflow double precision long before
they stop being meaningful, so all products are accumulated as sums of logs
in extended precision, with exact zeros (alpha == 0 inputs, alpha == 1
resets) tracked separately instead of clamped.

The whole lower-triangular table is fixed by two O(n) vectors, ``log(alpha)``
and the prefix sums of ``log(1 - alpha)`` (:class:`LogTables`); every row is
built from them in place. The final row costs about four doubles per input
(two for the ``longdouble`` prefix sums, one each for ``log(alpha)`` and the
row), and each streamed row costs O(t) with no index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, InfiniteTimescaleError, ValidationError, check_count, check_real
from .schedules import alpha_curve

__all__ = [
    "SmoothingSequence",
    "DualCoefficients",
    "LogTables",
    "log_tables",
    "coefficients_at",
    "iter_coefficient_rows",
    "init_coefficient",
    "init_coefficient_approx",
    "timescale",
    "materialize_log_coefficients",
    "LOG_FLUSH_THRESHOLD",
]

# exp() underflows to zero just below -745; anything smaller is flushed.
LOG_FLUSH_THRESHOLD = -745.0


@dataclass(frozen=True, eq=False)
class SmoothingSequence:
    """Per-input smoothing values ``alpha_1..alpha_t`` with ``alpha_1 == 1``.

    Index 1 stands for the initial parameters entering the average as the
    first input. An interior ``alpha_j == 1`` is legal and fully resets the
    average, zeroing every earlier coefficient.
    """

    alphas: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.alphas, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("alphas must be a non-empty 1-D sequence")
        if arr[0] != 1.0:
            raise ValidationError(f"alpha_1 must be exactly 1, got {arr[0]}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("alphas must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            bad = int(np.nonzero((arr < 0.0) | (arr > 1.0))[0][0])
            raise DomainError(f"alpha_{bad + 1}={arr[bad]} outside [0, 1]")
        object.__setattr__(self, "alphas", arr)

    @classmethod
    def from_lrs(cls, lrs: np.ndarray, weight_decay: float) -> "SmoothingSequence":
        """Map T learning rates to inputs 2..T+1, with the initial weights at index 1."""
        return cls(np.concatenate([[1.0], alpha_curve(lrs, weight_decay)]))

    def __len__(self) -> int:
        return len(self.alphas)


@dataclass(eq=False)
class DualCoefficients:
    """Log-space coefficients of the inputs ``x_1..x_t`` at step ``t``."""

    t: int
    log_c: np.ndarray

    @cached_property
    def c(self) -> np.ndarray:
        """Materialized coefficients; entries below the double floor are zero."""
        return materialize_log_coefficients(self.log_c)


def materialize_log_coefficients(log_c: np.ndarray) -> np.ndarray:
    c = np.exp(log_c)
    c[log_c < LOG_FLUSH_THRESHOLD] = 0.0
    return c


_CUMSUM_BLOCK = 64


class LogTables(NamedTuple):
    """The O(n) generators of the whole coefficient table.

    ``log_alpha[k]`` is ``log(alpha_{k+1})`` in float64. ``prefix[k]`` is the
    ``longdouble`` sum of ``log1p(-alpha_j)`` over inputs ``j = 2..k+1``, a
    reset contributing a zero term. ``resets`` holds the sorted 0-based
    positions of the ``alpha == 1`` inputs (those with ``log_alpha == 0``),
    position 0 included. Row ``t`` is then
    ``log c_{t,i} = float64(prefix[t-1] - prefix[i-1]) + log_alpha[i-1]`` for
    ``i`` from the last reset at or before ``t``, and ``-inf`` before it.
    """

    log_alpha: np.ndarray
    prefix: np.ndarray
    resets: np.ndarray


def log_tables(seq: SmoothingSequence) -> LogTables:
    """The generators of ``seq``'s coefficient table (see :class:`LogTables`).

    A reset's zero term in ``prefix`` stands in for ``log(0)``; :func:`_row`
    writes the exact zeros it implies.

    The prefix is summed within 64-term blocks and only block totals are
    carried: plain sequential summation of n terms leaves O(n * ulp(total))
    of rounding in every prefix, and blocking divides that by the block
    length, which matters when prefixes reach hundreds (log-space products
    over thousands of steps). All of it runs in one padded ``longdouble``
    buffer, so the tables cost three doubles per input.
    """
    a = seq.alphas
    n = len(a) - 1
    resets = np.flatnonzero(a >= 1.0)
    buf = np.zeros(1 + n + (-n) % _CUMSUM_BLOCK, dtype=np.longdouble)
    terms = np.negative(a[1:], out=buf[1 : n + 1])
    with np.errstate(divide="ignore"):  # log(0) and log1p(-1) are -inf
        log_alpha = np.log(a)
        np.log1p(terms, out=terms)
    buf[resets] = 0.0
    blocks = buf[1:].reshape(-1, _CUMSUM_BLOCK)
    np.cumsum(blocks, axis=1, out=blocks)
    if len(blocks) > 1:
        blocks[1:] += np.cumsum(blocks[:-1, -1])[:, None]
    return LogTables(log_alpha, buf[: n + 1], resets)


def _row(log_alpha: np.ndarray, prefix: np.ndarray, resets: np.ndarray, t: int) -> np.ndarray:
    """Log-coefficients of inputs 1..t at step ``t``: O(t) memory, no index arrays."""
    row = np.empty(t)
    np.subtract(prefix[t - 1], prefix[:t], out=row, casting="same_kind")
    row += log_alpha[:t]
    # every input before the last reset at or before t carries an exact zero
    row[: resets[np.searchsorted(resets, t) - 1]] = -np.inf
    return row


def coefficients_at(alphas: SmoothingSequence) -> DualCoefficients:
    """Coefficients of every input at the final step ``t = len(alphas)``."""
    t = len(alphas)
    return DualCoefficients(t=t, log_c=_row(*log_tables(alphas), t))


def iter_coefficient_rows(alphas: Union[SmoothingSequence, LogTables]):
    """Yield the log-coefficient row of every step ``t = 1..len(alphas)``.

    ``alphas`` is a smoothing sequence or the :class:`LogTables` it generates,
    such as :func:`lrdual.fileio.read_coefficient_matrix` decodes from a file.
    Row ``t`` has length ``t`` and is a fresh array; streaming keeps memory
    O(t) per row. The last row is bit-identical to
    ``coefficients_at(alphas).log_c``.
    """
    tables = alphas if isinstance(alphas, LogTables) else log_tables(alphas)
    for t in range(1, len(tables.log_alpha) + 1):
        yield _row(*tables, t)


def init_coefficient(alphas: SmoothingSequence) -> float:
    """Exact weight of the initial parameters, ``prod_{j=2..t} (1 - alpha_j)``."""
    return float(coefficients_at(alphas).c[0])


def init_coefficient_approx(avg_alpha: float, t: int) -> float:
    """Approximate initial-weights coefficient ``(1 - avg_alpha)**(t - 1)``.

    Exact when the smoothing is constant; for small, slowly varying alphas
    the relative error is second order in their spread.
    """
    check_count("t", t)
    return (1.0 - check_real("avg_alpha", avg_alpha, 0.0, 1.0)) ** (t - 1)


def timescale(lr: float, weight_decay: float) -> float:
    """Averaging window ``1 / (lr * weight_decay)`` in steps.

    A product ``lr * weight_decay`` that underflows to zero or overflows, or
    whose reciprocal overflows, raises :class:`DomainError`: no double holds
    the window.
    """
    weight_decay = check_real("weight_decay", weight_decay)
    if weight_decay == 0:
        raise InfiniteTimescaleError(
            "weight_decay is zero: the averaging timescale is infinite"
        )
    rate = check_real("lr", lr, bounds="()") * weight_decay
    if not 0.0 < rate < math.inf or 1.0 / rate == math.inf:
        raise DomainError(
            f"lr * weight_decay = {rate!r}: its reciprocal, the timescale, "
            "is outside the float range"
        )
    return 1.0 / rate
