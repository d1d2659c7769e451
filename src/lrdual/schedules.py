"""Learning-rate schedule families as pure functions of the step index.

Every schedule shares the same linear warmup (``lr = peak * t / W`` for
``t <= W``) and differs only in its decay profile on ``t in (W, T]``. Peak
learning rates are expressed as a base value times a width-ratio factor
``rho`` so that hyperparameters tuned on a small proxy model transfer to
wider models (``lr = rho * base_lr``).

Step indices are 1-based. ``warmup_steps == 0`` is allowed and behaves like
a warmup of one step: the first step already runs at the peak rate.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DomainError, ValidationError, allocation_guard, check_count

__all__ = [
    "ScheduleKind",
    "ScheduleSpec",
    "lr_at",
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


# The kind_params keys each kind reads; ScheduleSpec refuses any other key,
# so a misspelt parameter cannot fall back to its default unnoticed.
_KIND_PARAMS = {
    ScheduleKind.STEP: ("milestone_fraction", "drop_fraction"),
    ScheduleKind.WSD: ("cooldown_fraction",),
    ScheduleKind.CYCLIC: ("period_steps",),
    ScheduleKind.RATIONAL: ("weight_decay",),
    ScheduleKind.PIECEWISE: ("multipliers",),
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
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"fraction must be in [0, 1), got {fraction}")
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
            invsqrt, step, wsd and piecewise shapes ignore it.
        kind_params: shape-specific parameters:
            step: ``milestone_fraction`` (default 0.9), ``drop_fraction``
                (default 0.001);
            wsd: ``cooldown_fraction`` (default 0.225) of the post-warmup
                steps;
            cyclic: ``period_steps`` (required);
            rational: ``weight_decay`` (required) used in the LR recurrence;
            piecewise: ``multipliers`` covering the post-warmup steps.
            Any other key is refused.
    """

    kind: ScheduleKind
    total_steps: int
    peak_base_lr: float
    warmup_steps: int = 0
    mup_factor: float = 1.0
    decay_ratio: float = 0.0
    kind_params: Mapping[str, object] = field(default_factory=dict)

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
        if not (0.0 <= self.decay_ratio <= 1.0):
            raise ValidationError(f"decay_ratio must be in [0, 1], got {self.decay_ratio}")
        self._validate_kind_params()

    # -- kind parameter handling -------------------------------------------------

    def _param(self, name: str, default=None):
        value = self.kind_params.get(name, default)
        if value is None:
            raise ValidationError(
                f"kind_params.{name} is required for kind={self.kind.value}"
            )
        return value

    def _number(self, name: str, default=None) -> float:
        """A numeric kind parameter as a float; bools and strings are refused."""
        value = self._param(name, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"kind_params.{name} must be a number, got {value!r}")
        return float(value)

    def _validate_kind_params(self) -> None:
        kind = self.kind
        known = _KIND_PARAMS.get(kind, ())
        for name in self.kind_params:
            if name not in known:
                raise ValidationError(
                    f"kind_params.{name} is not a parameter of kind={kind.value}; "
                    f"it reads {', '.join(known) or 'none'}"
                )
        if kind is ScheduleKind.STEP:
            mf = self._number("milestone_fraction", 0.9)
            df = self._number("drop_fraction", 0.001)
            if not 0.0 < mf <= 1.0:
                raise ValidationError(
                    f"kind_params.milestone_fraction must be in (0, 1], got {mf}"
                )
            if not 0.0 <= df <= 1.0:
                raise ValidationError(
                    f"kind_params.drop_fraction must be in [0, 1], got {df}"
                )
            if _snap_ceil(mf * self.total_steps) < self.effective_warmup:
                raise ValidationError(
                    "kind_params.milestone_fraction places the drop inside warmup"
                )
        elif kind is ScheduleKind.WSD:
            cf = self._number("cooldown_fraction", 0.225)
            if not 0.0 < cf <= 1.0:
                raise ValidationError(
                    f"kind_params.cooldown_fraction must be in (0, 1], got {cf}"
                )
            if self._wsd_cooldown_start() < self.effective_warmup:
                raise ValidationError(
                    "kind_params.cooldown_fraction leaves no stable phase after warmup"
                )
        elif kind is ScheduleKind.CYCLIC:
            check_count("kind_params.period_steps", self._param("period_steps"))
        elif kind is ScheduleKind.RATIONAL:
            wd = self._number("weight_decay")
            if not (wd > 0 and math.isfinite(wd)):
                raise ValidationError(
                    f"kind_params.weight_decay must be positive for the rational "
                    f"recurrence, got {wd}"
                )
        elif kind is ScheduleKind.PIECEWISE:
            value = self._param("multipliers")
            try:
                mult = np.asarray(value)
                numeric = mult.dtype.kind in "iuf"
            except ValueError:  # ragged nesting
                numeric = False
            if not numeric:
                raise ValidationError(
                    f"kind_params.multipliers must be numbers, got {reprlib.repr(value)}"
                )
            # A private read-only copy: every curve slices it, none converts again.
            mult = mult.astype(np.float64)
            mult.flags.writeable = False
            expected = self.total_steps - self.effective_warmup
            if mult.ndim != 1 or len(mult) != expected:
                raise ValidationError(
                    f"kind_params.multipliers must hold {expected} values covering "
                    f"the post-warmup steps, got {mult.shape}"
                )
            if expected and (not np.all(np.isfinite(mult)) or mult.min() < 0 or mult.max() > 1):
                raise ValidationError("kind_params.multipliers must lie in [0, 1]")
            object.__setattr__(self, "_multipliers", mult)

    # -- derived quantities --------------------------------------------------------

    @property
    def effective_warmup(self) -> int:
        """Warmup length used by the shape; a zero warmup acts like one step."""
        return max(self.warmup_steps, 1)

    @property
    def peak_lr(self) -> float:
        """Realized peak learning rate ``rho * peak_base_lr``."""
        return mup_scale(self.peak_base_lr, self.mup_factor)

    def _wsd_cooldown_start(self) -> int:
        cf = self._number("cooldown_fraction", 0.225)
        cooldown = _snap_ceil(cf * (self.total_steps - self.warmup_steps))
        return self.total_steps - cooldown


def mup_scale(peak_base_lr: float, mup_factor: float) -> float:
    """Scale a base learning rate by the width ratio ``rho``."""
    if not (peak_base_lr > 0 and math.isfinite(peak_base_lr)):
        raise ValidationError(f"peak_base_lr must be positive, got {peak_base_lr}")
    if not (0.0 < mup_factor <= 1.0):
        raise ValidationError(f"mup_factor must be in (0, 1], got {mup_factor}")
    return mup_factor * peak_base_lr


def _decay_shape(spec: ScheduleSpec, t: np.ndarray, w_eff: float) -> None:
    """Overwrite ``t``, consecutive step indices > w_eff, with the decay multiplier."""
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
        milestone = _snap_ceil(spec._number("milestone_fraction", 0.9) * T)
        k = np.searchsorted(t, milestone, side="right")
        t[:k] = 1.0
        t[k:] = spec._number("drop_fraction", 0.001)
    elif kind is ScheduleKind.WSD:
        start = spec._wsd_cooldown_start()
        k = np.searchsorted(t, start, side="right")
        t[:k] = 1.0
        cooldown = t[k:]
        np.subtract(T, cooldown, out=cooldown)
        cooldown /= T - start
    elif kind is ScheduleKind.CYCLIC:
        period = float(spec._param("period_steps"))
        t -= w_eff
        np.mod(t, period, out=t)
        t /= period
        # triangle wave: 2 * phase up to half a period, 2 * (1 - phase) after
        np.subtract(1.0, t, out=t, where=t > 0.5)
        t *= 2.0
        t *= 1.0 - r
        np.subtract(1.0, t, out=t)
    elif kind is ScheduleKind.RATIONAL:
        # Harmonic closed form of the recurrence lr' = lr / (1 + lr * wd),
        # seeded at the realized peak when warmup ends.
        t -= w_eff
        # Past the float range the shape rounds to 1 / (1 + inf) = 0. Only a
        # peak alpha = peak_lr * weight_decay far above 1 gets there, and every
        # command refuses such a schedule at its first step.
        with np.errstate(over="ignore"):
            t *= spec._number("weight_decay") * spec.peak_lr
        t += 1.0
        np.divide(1.0, t, out=t)
    elif kind is ScheduleKind.PIECEWISE:
        first = int(t[0] - w_eff) - 1
        t[...] = spec._multipliers[first : first + len(t)]
    else:  # pragma: no cover
        raise AssertionError(f"unhandled kind {kind}")


def _lrs(spec: ScheduleSpec, t: np.ndarray) -> np.ndarray:
    """Overwrite ``t``, ascending consecutive step indices, with their learning rates."""
    w_eff = float(spec.effective_warmup)
    k = np.searchsorted(t, w_eff, side="right")
    t[:k] /= w_eff
    if k < len(t):
        _decay_shape(spec, t[k:], w_eff)
    t *= spec.peak_base_lr
    t *= spec.mup_factor
    return t


def lr_at(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at step ``t`` (1-based, ``1 <= t <= total_steps``)."""
    check_count("step index t", t)
    if not 1 <= t <= spec.total_steps:
        raise ValidationError(
            f"step index t={t} outside the schedule range 1..{spec.total_steps}"
        )
    return float(_lrs(spec, np.array([float(t)]))[0])


def lr_curve(spec: ScheduleSpec) -> np.ndarray:
    """All ``total_steps`` learning rates; index ``t - 1`` equals ``lr_at(spec, t)``."""
    return _lrs(spec, step_array(spec.total_steps))


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
    lrs = _lr_array(lrs)
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ValidationError(f"weight_decay must be non-negative, got {weight_decay}")
    alphas = lrs * weight_decay
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
