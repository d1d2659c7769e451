"""Learning-rate schedule families as pure functions of the step index.

Every schedule shares the same linear warmup (``lr = peak * t / W`` for
``t <= W``) and differs only in its decay profile on ``t in (W, T]``. Peak
learning rates are expressed as a base value times a width-ratio factor
``rho`` so that hyperparameters tuned on a small proxy model transfer to
wider models (``lr = rho * base_lr``).

Step indices are 1-based. ``warmup_steps == 0`` is allowed and behaves like
a warmup of one step: the first step already runs at the peak rate.

A :class:`ScheduleSpec` checks its shape parameters once, when it is built,
filling in the defaults of :data:`KIND_PARAMS`, and keeps what its decay
shape needs; changing the ``kind_params`` mapping afterwards changes nothing.
:func:`lr_curve` is the one evaluator: it turns a spec into its LR array.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DomainError, ValidationError, allocation_guard, check_count, check_real

__all__ = [
    "ScheduleKind",
    "ScheduleSpec",
    "KIND_PARAMS",
    "lr_curve",
    "mup_scale",
    "alpha_curve",
    "average_alpha",
]


class ScheduleKind(str, Enum):
    """Supported decay shapes."""

    CONSTANT = "constant"
    LINEAR = "linear"
    COSINE = "cosine"
    INVSQRT = "invsqrt"
    STEP = "step"
    WSD = "wsd"
    CYCLIC = "cyclic"
    RATIONAL = "rational"
    PIECEWISE = "piecewise"


# The kind_params each kind reads, with their defaults; None marks a required
# parameter. ScheduleSpec refuses any other key, so a misspelt parameter
# cannot fall back to its default unnoticed.
KIND_PARAMS = {
    ScheduleKind.STEP: {"milestone_fraction": 0.9, "drop_fraction": 0.001},
    ScheduleKind.WSD: {"cooldown_fraction": 0.225},
    ScheduleKind.CYCLIC: {"period_steps": None},
    ScheduleKind.RATIONAL: {"weight_decay": None},
    ScheduleKind.PIECEWISE: {"multipliers": None},
}

# Fraction-of-total-steps arithmetic (0.225 * 1000 and friends) must not be
# derailed by float representation noise; snap within 1e-9 of an integer.
_FRACTION_EPS = 1e-9


def _snap_floor(x: float) -> int:
    return int(math.floor(x + _FRACTION_EPS))


def _snap_ceil(x: float) -> int:
    return int(math.ceil(x - _FRACTION_EPS))


def steps_from_fraction(fraction: float, total_steps: int) -> int:
    """Convert a fraction of the run (e.g. warmup 0.1) into a step count."""
    fraction = check_real("fraction", fraction, 0.0, 1.0)
    check_count("total_steps", total_steps)
    return _snap_floor(fraction * total_steps)


def step_array(total_steps: int) -> np.ndarray:
    """The step indices ``1.0, 2.0, ..., total_steps`` as float64.

    A step count too large to allocate raises :class:`DomainError` instead
    of numpy's ``ValueError`` or ``MemoryError``.
    """
    with allocation_guard("total_steps", total_steps):
        steps = np.arange(1, total_steps + 1, dtype=np.float64)
    # numpy wraps lengths from 2**63 - 2 to 2**64 - 2 to an empty array
    if len(steps) != total_steps:
        raise DomainError(f"total_steps={total_steps} is too large to allocate")
    return steps


@dataclass(frozen=True, eq=False)
class ScheduleSpec:
    """Complete description of a learning-rate schedule.

    Attributes:
        kind: decay shape, one of :class:`ScheduleKind`.
        total_steps: number of optimizer steps ``T``.
        peak_base_lr: peak learning rate before the width-ratio scaling.
        warmup_steps: linear warmup length ``W`` (``0 <= W < T``).
        mup_factor: width ratio ``rho`` in ``(0, 1]``; the realized peak
            learning rate is ``rho * peak_base_lr``.
        decay_ratio: final LR as a fraction of the peak for the decaying
            shapes (0 means decay to zero, 0.1 means a 10x decay). Constant,
            invsqrt, step, wsd, rational and piecewise shapes ignore it.
        kind_params: shape-specific parameters, with the defaults of
            :data:`KIND_PARAMS`:
            step: ``milestone_fraction``, the run fraction after which the
                rate drops, and ``drop_fraction``, the rate after the drop
                as a fraction of the peak;
            wsd: ``cooldown_fraction`` of the post-warmup steps;
            cyclic: ``period_steps`` (required);
            rational: ``weight_decay`` (required) used in the LR recurrence;
            piecewise: ``multipliers`` (required) covering the post-warmup
                steps.
            Any other key is refused. They are checked and resolved once,
            when the spec is built.
    """

    kind: ScheduleKind
    total_steps: int
    peak_base_lr: float
    warmup_steps: int = 0
    mup_factor: float = 1.0
    decay_ratio: float = 0.0
    kind_params: Mapping[str, object] = field(default_factory=dict)
    # What _decay_shape reads, resolved from kind_params by __post_init__.
    _decay: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", ScheduleKind(self.kind))
        except ValueError:
            raise ValidationError(f"unknown schedule kind {self.kind!r}") from None
        check_count("total_steps", self.total_steps)
        check_count("warmup_steps", self.warmup_steps, minimum=0)
        if self.warmup_steps >= self.total_steps:
            raise ValidationError(
                f"warmup_steps={self.warmup_steps} must be smaller than "
                f"total_steps={self.total_steps}"
            )
        mup_scale(self.peak_base_lr, self.mup_factor)
        check_real("decay_ratio", self.decay_ratio, 0.0, 1.0, "[]")
        object.__setattr__(self, "_decay", self._resolve_kind_params())

    def _resolve_kind_params(self):
        """Check ``kind_params`` once and return what the decay shape reads:
        step's milestone offset past warmup and drop value, wsd's cooldown
        start, cyclic's period, rational's weight decay, piecewise's multipliers.
        """
        kind, T, w_eff = self.kind, self.total_steps, self.effective_warmup
        defaults = KIND_PARAMS.get(kind, {})
        for name in self.kind_params:
            if name not in defaults:
                raise ValidationError(
                    f"kind_params.{name} is not a parameter of kind={kind.value}; "
                    f"it reads {', '.join(defaults) or 'none'}"
                )
        params = {**defaults, **self.kind_params}
        for name, value in params.items():
            if value is None:
                raise ValidationError(f"kind_params.{name} is required for kind={kind.value}")

        def number(name: str, low: float, high: float, bounds: str) -> float:
            return check_real(f"kind_params.{name}", params[name], low, high, bounds)

        if kind is ScheduleKind.STEP:
            milestone = _snap_ceil(number("milestone_fraction", 0.0, 1.0, "(]") * T)
            drop = number("drop_fraction", 0.0, 1.0, "[]")
            if milestone < w_eff:
                raise ValidationError(
                    "kind_params.milestone_fraction places the drop inside warmup"
                )
            return milestone - w_eff, drop
        if kind is ScheduleKind.WSD:
            fraction = number("cooldown_fraction", 0.0, 1.0, "(]")
            start = T - _snap_ceil(fraction * (T - self.warmup_steps))
            if start < w_eff:
                raise ValidationError(
                    "kind_params.cooldown_fraction leaves no stable phase after warmup"
                )
            return start
        if kind is ScheduleKind.CYCLIC:
            check_count("kind_params.period_steps", params["period_steps"])
            return float(params["period_steps"])
        if kind is ScheduleKind.RATIONAL:
            return number("weight_decay", 0.0, math.inf, "()")
        if kind is ScheduleKind.PIECEWISE:
            value = params["multipliers"]
            try:
                mult = np.asarray(value)
                numeric = mult.dtype.kind in "iuf"
            except ValueError:  # ragged nesting
                numeric = False
            if not numeric:
                raise ValidationError(
                    f"kind_params.multipliers must be numbers, got {reprlib.repr(value)}"
                )
            # A private read-only copy: every curve copies it, none converts again.
            mult = mult.astype(np.float64)
            mult.flags.writeable = False
            if mult.ndim != 1 or len(mult) != T - w_eff:
                raise ValidationError(
                    f"kind_params.multipliers must hold {T - w_eff} values covering "
                    f"the post-warmup steps, got {mult.shape}"
                )
            if T > w_eff and (not np.all(np.isfinite(mult)) or mult.min() < 0 or mult.max() > 1):
                raise ValidationError("kind_params.multipliers must lie in [0, 1]")
            return mult
        return None

    # -- derived quantities --------------------------------------------------------

    @property
    def effective_warmup(self) -> int:
        """Warmup length used by the shape; a zero warmup acts like one step."""
        return max(self.warmup_steps, 1)

    @property
    def peak_lr(self) -> float:
        """Realized peak learning rate ``rho * peak_base_lr``."""
        return mup_scale(self.peak_base_lr, self.mup_factor)


def mup_scale(peak_base_lr: float, mup_factor: float) -> float:
    """Scale a base learning rate by the width ratio ``rho``."""
    peak_base_lr = check_real("peak_base_lr", peak_base_lr, bounds="()")
    return check_real("mup_factor", mup_factor, 0.0, 1.0, "(]") * peak_base_lr


def _decay_shape(spec: ScheduleSpec, t: np.ndarray, w_eff: int) -> None:
    """Overwrite ``t``, the steps ``w_eff + 1 .. T`` after warmup, with the decay multiplier."""
    T = spec.total_steps
    r = spec.decay_ratio
    kind = spec.kind
    if kind is ScheduleKind.CONSTANT:
        t[...] = 1.0
    elif kind is ScheduleKind.LINEAR:
        t -= w_eff
        t /= T - w_eff
        t *= 1.0 - r
        np.subtract(1.0, t, out=t)
    elif kind is ScheduleKind.COSINE:
        t -= w_eff
        t /= T - w_eff
        t *= np.pi
        np.cos(t, out=t)
        t += 1.0
        t *= 1.0 - r
        t /= 2.0
        t += r
    elif kind is ScheduleKind.INVSQRT:
        np.divide(w_eff, t, out=t)
        np.sqrt(t, out=t)
    elif kind is ScheduleKind.STEP:
        k, drop = spec._decay
        t[:k] = 1.0
        t[k:] = drop
    elif kind is ScheduleKind.WSD:
        start = spec._decay
        t[: start - w_eff] = 1.0
        cooldown = t[start - w_eff :]
        np.subtract(T, cooldown, out=cooldown)
        cooldown /= T - start
    elif kind is ScheduleKind.CYCLIC:
        period = spec._decay
        t -= w_eff
        np.mod(t, period, out=t)
        t /= period
        # triangle wave: 2 * phase up to half a period, 2 * (1 - phase) after
        np.subtract(1.0, t, out=t, where=t > 0.5)
        t *= 2.0
        t *= 1.0 - r
        np.subtract(1.0, t, out=t)
    elif kind is ScheduleKind.RATIONAL:
        # Harmonic closed form 1 / (1 + rate * k), k = t - W, of the recurrence
        # lr' = lr / (1 + lr * wd), seeded at the realized peak when warmup ends.
        rate = spec._decay * spec.peak_lr
        t -= w_eff
        with np.errstate(over="ignore"):
            t *= rate
        # Where rate * k passes the float range, (1 / k) / rate keeps the value.
        n = np.searchsorted(t, np.inf)
        t += 1.0
        np.divide(1.0, t, out=t)
        t[n:] = 1.0 / np.arange(n + 1, len(t) + 1) / rate
    elif kind is ScheduleKind.PIECEWISE:
        t[...] = spec._decay
    else:  # pragma: no cover
        raise AssertionError(f"unhandled kind {kind}")


def lr_curve(spec: ScheduleSpec) -> np.ndarray:
    """All ``total_steps`` learning rates; index ``t - 1`` holds step ``t``."""
    t = step_array(spec.total_steps)
    w_eff = spec.effective_warmup
    t[:w_eff] /= w_eff
    _decay_shape(spec, t[w_eff:], w_eff)
    t *= spec.peak_base_lr
    t *= spec.mup_factor
    return t


def _lr_array(lrs) -> np.ndarray:
    """``lrs`` as a float64 array, refused unless non-empty, 1-D, finite and >= 0."""
    try:
        arr = np.asarray(lrs, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"learning rates must be numbers, got {reprlib.repr(lrs)}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(
            f"learning rates must be a non-empty 1-D array, got shape {arr.shape}"
        )
    # min and max propagate nan, so this needs no boolean temporary
    if not (arr.min() >= 0.0 and arr.max() < math.inf):
        bad = int(np.argmin((arr >= 0.0) & (arr < math.inf)))
        raise ValidationError(
            f"learning rate {arr[bad]} at step {bad + 1}; learning rates must be "
            f"finite and non-negative"
        )
    return arr


def alpha_curve(lrs: np.ndarray, weight_decay: float) -> np.ndarray:
    """Per-step smoothing values ``alpha_t = lrs[t - 1] * weight_decay``, in a new array.

    Raises :class:`DomainError` if any alpha exceeds 1, the rule
    :class:`~lrdual.dual.SmoothingSequence` applies: alpha = 1 is an exact
    reset, where a single update overwrites the parameter average.
    """
    alphas = _lr_array(lrs) * check_real("weight_decay", weight_decay)
    if alphas.max() > 1.0:
        bad = int(np.argmax(alphas > 1.0))
        raise DomainError(
            f"smoothing alpha={alphas[bad]} > 1 at step {bad + 1}; "
            f"lower the learning rate or weight decay"
        )
    return alphas


def average_alpha(lrs: np.ndarray, weight_decay: float) -> float:
    """Arithmetic mean of the smoothing values over steps 2..T."""
    alphas = alpha_curve(lrs, weight_decay)[1:]
    if not alphas.size:
        raise ValidationError("average_alpha needs a schedule of at least 2 steps")
    return float(np.mean(alphas))
