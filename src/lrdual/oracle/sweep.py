"""Grid sweeps of schedules against noise levels on the analytic quadratic.

Cells are the cross product of schedules, peak learning rates, noise
variances, step counts and batch sizes. Every cell is independent: its seed
derives from the base seed and the cell's enumeration index, so results
depend only on the grid and the seed. Making a grid builds the schedule of
every cell, so a bad entry is refused before any cell runs. Cells run one
after another; unstable cells are flagged in the output rather than dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping, Optional, Sequence, Tuple

from ..errors import ValidationError, check_count
from ..schedules import ScheduleSpec, lr_curve, steps_from_fraction
from .quadratic import sgd_monte_carlo_gap, sgd_quadratic_expected_gap
from .rng import derive_seed

__all__ = ["SweepSchedule", "SweepGrid", "SweepCellResult", "run_noise_sweep"]

_MODES = ("analytic", "monte-carlo")


def _number(value: object, name: str) -> float:
    """A JSON number as a float; bools and strings are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"sweep grid {name}: expected a number, got {value!r}")
    return float(value)


def _integer(value: object) -> object:
    """A float with an integral value as an int; the grid checks the rest."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class SweepSchedule:
    """One schedule shape entering the grid."""

    kind: str
    decay_ratio: float = 0.0
    kind_params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepGrid:
    """Sweep definition; axis order fixes the cell enumeration."""

    schedules: Tuple[SweepSchedule, ...]
    peak_lrs: Tuple[float, ...]
    sigma2s: Tuple[float, ...]
    steps: Tuple[int, ...]
    batches: Tuple[int, ...]
    mu: float = 1.0
    d0: float = 1.0
    warmup_frac: float = 0.1
    trials: int = 1000

    def __post_init__(self) -> None:
        for name in ("schedules", "peak_lrs", "sigma2s", "steps", "batches"):
            if not getattr(self, name):
                raise ValidationError(f"sweep grid axis {name} must be non-empty")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValidationError(f"mu must be positive, got {self.mu}")
        if not (self.d0 >= 0 and math.isfinite(self.d0)):
            raise ValidationError(f"d0 must be non-negative and finite, got {self.d0}")
        for sigma2 in self.sigma2s:
            if not (sigma2 >= 0 and math.isfinite(sigma2)):
                raise ValidationError(f"sigma2s must be non-negative and finite, got {sigma2}")
        for name in ("steps", "batches"):
            for count in getattr(self, name):
                check_count(name, count)
        if not (0.0 <= self.warmup_frac < 1.0):
            raise ValidationError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        check_count("trials", self.trials, minimum=2)
        # One spec per (schedule, peak, steps); not a field, so equality and
        # dataclasses.asdict (the sweep_config.json echo) ignore it.
        specs = {
            (k, peak, total): ScheduleSpec(
                kind=sched.kind,
                total_steps=total,
                peak_base_lr=peak,
                warmup_steps=steps_from_fraction(self.warmup_frac, total),
                decay_ratio=sched.decay_ratio,
                kind_params=dict(sched.kind_params),
            )
            for (k, sched), peak, total in product(
                enumerate(self.schedules), self.peak_lrs, self.steps
            )
        }
        object.__setattr__(self, "_specs", specs)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "SweepGrid":
        """Build a grid from a parsed JSON document."""
        try:
            schedules = tuple(
                SweepSchedule(
                    kind=str(entry["kind"]),
                    decay_ratio=_number(entry.get("decay_ratio", 0.0), "decay_ratio"),
                    kind_params=dict(entry.get("kind_params", {})),
                )
                for entry in data["schedules"]
            )
            return cls(
                schedules=schedules,
                peak_lrs=tuple(_number(v, "peak_lrs") for v in data["peak_lrs"]),
                sigma2s=tuple(_number(v, "sigma2s") for v in data["sigma2s"]),
                steps=tuple(_integer(v) for v in data["steps"]),
                batches=tuple(_integer(v) for v in data["batches"]),
                mu=_number(data.get("mu", 1.0), "mu"),
                d0=_number(data.get("d0", 1.0), "d0"),
                warmup_frac=_number(data.get("warmup_frac", 0.1), "warmup_frac"),
                trials=_integer(data.get("trials", 1000)),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sweep grid: {exc}") from exc


@dataclass(eq=False)
class SweepCellResult:
    """Final gap of one grid cell; gaps are None when the cell is unstable
    or the mode did not compute them."""

    index: int
    schedule: str
    peak_lr: float
    decay_ratio: float
    sigma2: float
    batch: int
    steps: int
    stable: bool
    gap_analytic: Optional[float] = None
    gap_mc_mean: Optional[float] = None
    gap_mc_stderr: Optional[float] = None

    def sort_key(self):
        return (
            self.schedule,
            self.peak_lr,
            self.decay_ratio,
            self.sigma2,
            self.batch,
            self.steps,
        )


def _run_cell(
    index: int,
    spec: ScheduleSpec,
    sigma2: float,
    batch: int,
    grid: SweepGrid,
    mode: str,
    base_seed: int,
) -> SweepCellResult:
    lrs = lr_curve(spec)
    result = SweepCellResult(
        index=index,
        schedule=spec.kind.value,
        peak_lr=spec.peak_base_lr,
        decay_ratio=spec.decay_ratio,
        sigma2=sigma2,
        batch=batch,
        steps=spec.total_steps,
        stable=bool((lrs * grid.mu < 2.0).all()),
    )
    if not result.stable:
        return result
    sigma2_eff = sigma2 / batch
    result.gap_analytic = float(
        sgd_quadratic_expected_gap(lrs, grid.mu, sigma2_eff, grid.d0)[-1]
    )
    if mode == "monte-carlo":
        mean, stderr = sgd_monte_carlo_gap(
            lrs,
            grid.mu,
            sigma2_eff,
            grid.d0,
            trials=grid.trials,
            seed=derive_seed(base_seed, index),
        )
        result.gap_mc_mean = mean
        result.gap_mc_stderr = stderr
    return result


def run_noise_sweep(
    grid: SweepGrid,
    mode: str = "analytic",
    seed: int = 0,
) -> Sequence[SweepCellResult]:
    """Evaluate every grid cell; output is sorted by cell key, not run order."""
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    cells = product(
        range(len(grid.schedules)), grid.peak_lrs, grid.sigma2s, grid.steps, grid.batches
    )
    results = [
        _run_cell(index, grid._specs[k, peak, total], sigma2, batch, grid, mode, seed)
        for index, (k, peak, sigma2, total, batch) in enumerate(cells)
    ]
    return sorted(results, key=SweepCellResult.sort_key)
