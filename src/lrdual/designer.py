"""Schedule design: the rational schedule and the inverse coefficient problem.

Uniform dual coefficients require the coefficient ratio

    c_{t,i+1} / c_{t,i} = alpha_{i+1} / ((1 - alpha_{i+1}) * alpha_i)

to equal one, which pins the smoothing recurrence alpha' = alpha / (1 + alpha)
and hence the learning-rate recurrence lr' = lr / (1 + lr * wd). More
generally, any convex combination of inputs has a generating smoothing
schedule, recovered here by backward substitution against the profile's
remaining mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleTargetError, ValidationError, check_real
from .schedules import ScheduleKind, ScheduleSpec, lr_curve

__all__ = [
    "TargetProfile",
    "DesignedSchedule",
    "rational_schedule",
    "schedule_from_coefficients",
]

_SUM_TOL = 1e-12
# Slack for the recovered smoothing values: float rounding may push a
# feasible alpha a hair past its bound, but anything further is a genuine
# infeasibility and is reported, never clamped.
_FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class TargetProfile:
    """Desired coefficients of every input at the final step."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
            raise ValidationError("weights must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"weights must sum to 1 within {_SUM_TOL}, got {total!r}"
            )
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class DesignedSchedule:
    """Result of inverting a target profile.

    ``alphas`` is the full smoothing sequence (index 1 is the initial-weights
    pseudo-input, always 1). ``lrs`` is ``alphas / weight_decay``, the ``lr``
    column of ``designed_schedule.csv``, pseudo-step first.
    """

    alphas: np.ndarray
    lrs: np.ndarray


def rational_schedule(
    peak_lr: float,
    weight_decay: float,
    total_steps: int,
    warmup_steps: int = 0,
) -> np.ndarray:
    """Learning rates whose dual coefficients stay uniform after warmup.

    Linear warmup reaches ``peak_lr`` at step ``warmup_steps`` (step 1 when
    there is no warmup); from there each step applies
    ``lr' = lr / (1 + lr * weight_decay)``, evaluated in closed form as
    ``peak_lr / (1 + peak_lr * weight_decay * k)`` after ``k`` recurrence
    steps (``ScheduleKind.RATIONAL``). With weight decay 1 and no warmup this
    is the harmonic sequence 1, 1/2, 1/3, ... The smoothing values are not
    checked here: ``alpha_curve(lrs, weight_decay)`` refuses a peak with
    ``peak_lr * weight_decay > 1``.
    """
    return lr_curve(ScheduleSpec(
        kind=ScheduleKind.RATIONAL,
        total_steps=total_steps,
        peak_base_lr=peak_lr,
        warmup_steps=warmup_steps,
        kind_params={"weight_decay": weight_decay},
    ))


def schedule_from_coefficients(target: TargetProfile, weight_decay: float) -> DesignedSchedule:
    """Recover the smoothing schedule that realizes ``target``.

    Backward substitution in closed form: each alpha divides its coefficient
    by the product of the ``(1 - alpha)`` factors after it, which telescopes
    to the profile's mass up to the index. Every alpha is therefore one
    division by the extended-precision prefix sums (0 where that mass is 0);
    feeding recovered values back into later denominators would compound
    their rounding. Two index searches settle the rest. The last index
    ``k >= 2`` whose alpha is at least ``1 - 1e-9`` is infeasible if its
    alpha exceeds ``1 + 1e-9`` and is a full reset otherwise. Indices behind
    a reset carry no realizable mass, so their alphas are zero, and the
    highest of them with a coefficient above 1e-9 is stranded mass. Every
    infeasibility raises :class:`InfeasibleTargetError` naming its index,
    never clamps.
    """
    weight_decay = check_real("weight_decay", weight_decay, bounds="()")
    # no alpha exceeds the pseudo-step's 1, so its LR 1 / weight_decay is the largest
    if not math.isfinite(1.0 / weight_decay):
        raise DomainError(f"learning rate 1 / weight_decay overflows at {weight_decay}")
    c = target.weights
    prefix = np.cumsum(c.astype(np.longdouble))
    ratio = np.zeros(len(c), dtype=np.longdouble)
    np.divide(c, prefix, out=ratio, where=prefix != 0.0)
    alphas = ratio.astype(np.float64)

    near_one = np.flatnonzero(alphas[1:] >= 1.0 - _FEASIBILITY_SLACK)
    if near_one.size:
        k = int(near_one[-1]) + 1
        if alphas[k] > 1.0 + _FEASIBILITY_SLACK:
            raise InfeasibleTargetError(
                k + 1,
                f"recovered alpha={float(alphas[k])} at index {k + 1} exceeds 1; "
                f"the profile is not realizable with the initial-weights convention",
            )
        stranded = np.flatnonzero(c[:k] > _FEASIBILITY_SLACK)
        if stranded.size:
            i = int(stranded[-1])
            if i == 0:
                raise InfeasibleTargetError(
                    1,
                    f"initial-weights coefficient {c[0]} is unreachable behind a "
                    f"full reset",
                )
            raise InfeasibleTargetError(
                i + 1,
                f"coefficient {c[i]} at index {i + 1} is unreachable behind a "
                f"full reset (alpha = 1) at a later index",
            )
        alphas[1:k] = 0.0
        alphas[k] = 1.0
    alphas[0] = 1.0
    return DesignedSchedule(alphas=alphas, lrs=alphas / weight_decay)
