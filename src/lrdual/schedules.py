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
        return np.arange(1, total_steps + 1, dtype=np.float64)


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

    def _multipliers(self) -> np.ndarray:
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
        return mult.astype(np.float64)

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
            mult = self._multipliers()
            expected = self.total_steps - self.effective_warmup
            if mult.ndim != 1 or len(mult) != expected:
                raise ValidationError(
                    f"kind_params.multipliers must hold {expected} values covering "
                    f"the post-warmup steps, got {mult.shape}"
                )
            if expected and (not np.all(np.isfinite(mult)) or mult.min() < 0 or mult.max() > 1):
                raise ValidationError("kind_params.multipliers must lie in [0, 1]")

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


def _decay_shape(spec: ScheduleSpec, t: np.ndarray, w_eff: float) -> np.ndarray:
    """Shape multiplier on the decay phase; ``t`` holds indices > w_eff."""
    T = spec.total_steps
    r = spec.decay_ratio
    kind = spec.kind
    if kind is ScheduleKind.CONSTANT:
        return np.ones_like(t)
    if kind is ScheduleKind.LINEAR:
        s = (t - w_eff) / (T - w_eff)
        return 1.0 - (1.0 - r) * s
    if kind is ScheduleKind.COSINE:
        s = (t - w_eff) / (T - w_eff)
        return r + (1.0 - r) * (1.0 + np.cos(np.pi * s)) / 2.0
    if kind is ScheduleKind.INVSQRT:
        return np.sqrt(w_eff / t)
    if kind is ScheduleKind.STEP:
        milestone = _snap_ceil(spec._number("milestone_fraction", 0.9) * T)
        drop = spec._number("drop_fraction", 0.001)
        return np.where(t <= milestone, 1.0, drop)
    if kind is ScheduleKind.WSD:
        start = spec._wsd_cooldown_start()
        return np.where(t <= start, 1.0, (T - t) / (T - start))
    if kind is ScheduleKind.CYCLIC:
        period = float(spec._param("period_steps"))
        phase = np.mod(t - w_eff, period) / period
        tri = np.where(phase <= 0.5, 2.0 * phase, 2.0 * (1.0 - phase))
        return 1.0 - (1.0 - r) * tri
    if kind is ScheduleKind.RATIONAL:
        # Harmonic closed form of the recurrence lr' = lr / (1 + lr * wd),
        # seeded at the realized peak when warmup ends.
        wd = spec._number("weight_decay")
        return 1.0 / (1.0 + wd * spec.peak_lr * (t - w_eff))
    if kind is ScheduleKind.PIECEWISE:
        mult = spec._multipliers()
        return mult[(t - w_eff - 1.0).astype(np.intp)]
    raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover


def _shape(spec: ScheduleSpec, t: np.ndarray) -> np.ndarray:
    w_eff = float(spec.effective_warmup)
    shape = np.empty_like(t)
    warm = t <= w_eff
    shape[warm] = t[warm] / w_eff
    decay = ~warm
    if decay.any():
        shape[decay] = _decay_shape(spec, t[decay], w_eff)
    return shape


def lr_at(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at step ``t`` (1-based, ``1 <= t <= total_steps``)."""
    check_count("step index t", t)
    if not 1 <= t <= spec.total_steps:
        raise ValidationError(
            f"step index t={t} outside the schedule range 1..{spec.total_steps}"
        )
    base = spec.peak_base_lr * _shape(spec, np.array([float(t)]))
    return float(spec.mup_factor * base[0])


def lr_curve(spec: ScheduleSpec) -> np.ndarray:
    """All ``total_steps`` learning rates; index ``t - 1`` equals ``lr_at(spec, t)``."""
    base = spec.peak_base_lr * _shape(spec, step_array(spec.total_steps))
    return spec.mup_factor * base


def alpha_curve(spec: ScheduleSpec, weight_decay: float) -> np.ndarray:
    """Per-step smoothing values ``alpha_t = lr_t * weight_decay``.

    Raises :class:`DomainError` if any alpha exceeds 1, the rule
    :class:`~lrdual.dual.SmoothingSequence` applies: alpha = 1 is an exact
    reset, where a single update overwrites the parameter average.
    """
    if not (weight_decay >= 0 and math.isfinite(weight_decay)):
        raise ValidationError(f"weight_decay must be non-negative, got {weight_decay}")
    alphas = lr_curve(spec) * weight_decay
    bad = np.nonzero(alphas > 1.0)[0]
    if bad.size:
        raise DomainError(
            f"smoothing alpha={alphas[bad[0]]} > 1 at step {bad[0] + 1}; "
            f"lower the learning rate or weight decay"
        )
    return alphas


def average_alpha(spec: ScheduleSpec, weight_decay: float) -> float:
    """Arithmetic mean of the smoothing values over steps 2..T."""
    if spec.total_steps < 2:
        raise ValidationError("average_alpha needs a schedule of at least 2 steps")
    return float(np.mean(alpha_curve(spec, weight_decay)[1:]))
