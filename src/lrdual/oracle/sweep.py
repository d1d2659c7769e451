"""Grid sweeps of schedules against noise levels on the analytic quadratic.

Cells are the cross product of schedules, peak learning rates, noise
variances, step counts and batch sizes. Making a grid builds the schedule of
every cell, so a bad entry is refused before any cell runs; unstable cells
are flagged in the output rather than dropped.

The Monte Carlo mode uses common random numbers: every cell reads the same
noise field at each step, keyed by one grid seed derived from the base seed,
and the stable cells of one step count advance together as one chain array.
A cell's result therefore depends only on its own schedule, noise level and
the base seed, not on the other cells or its place in the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import DomainError, ValidationError, check_count, check_real
from ..schedules import ScheduleSpec, lr_curve, steps_from_fraction
from .quadratic import _first_unstable_step, sgd_monte_carlo_gap, sgd_quadratic_expected_gap
from .rng import derive_seed

__all__ = ["SweepSchedule", "SweepGrid", "SweepCellResult", "run_noise_sweep"]

_MODES = ("analytic", "monte-carlo")


def _integer(value: object) -> object:
    """A float with an integral value as an int; the grid checks the rest."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class SweepSchedule:
    """One schedule shape entering the grid."""

    kind: str
    decay_ratio: float = 0.0
    kind_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ratio = check_real("decay_ratio", self.decay_ratio, 0.0, 1.0, "[]")
        object.__setattr__(self, "decay_ratio", ratio)


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
        # Reals are stored as floats, so sweep_config.json echoes a JSON 1 as 1.0.
        reals = {
            "mu": check_real("mu", self.mu, bounds="()"),
            "d0": check_real("d0", self.d0),
            "warmup_frac": check_real("warmup_frac", self.warmup_frac, 0.0, 1.0),
            "peak_lrs": tuple(check_real("peak_lrs", v, bounds="()") for v in self.peak_lrs),
            "sigma2s": tuple(check_real("sigma2s", v) for v in self.sigma2s),
        }
        for name, value in reals.items():
            object.__setattr__(self, name, value)
        for name in ("steps", "batches"):
            for count in getattr(self, name):
                check_count(name, count)
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
                    decay_ratio=entry.get("decay_ratio", 0.0),
                    kind_params=dict(entry.get("kind_params", {})),
                )
                for entry in data["schedules"]
            )
            return cls(
                schedules=schedules,
                peak_lrs=tuple(data["peak_lrs"]),
                sigma2s=tuple(data["sigma2s"]),
                steps=tuple(_integer(v) for v in data["steps"]),
                batches=tuple(_integer(v) for v in data["batches"]),
                mu=data.get("mu", 1.0),
                d0=data.get("d0", 1.0),
                warmup_frac=data.get("warmup_frac", 0.1),
                trials=_integer(data.get("trials", 1000)),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sweep grid: {exc}") from exc


@dataclass(eq=False)
class SweepCellResult:
    """Final gap of one grid cell; gaps are None when the cell is unstable
    or the mode did not compute them. ``schedule_index`` is the position of
    the cell's entry in the grid's ``schedules``."""

    index: int
    schedule: str
    schedule_index: int
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
            self.schedule_index,
        )


def _run_cell(
    index: int,
    spec: ScheduleSpec,
    schedule_index: int,
    lrs: Optional[np.ndarray],
    sigma2: float,
    batch: int,
    grid: SweepGrid,
    mc_gap: Optional[Tuple[float, float]],
) -> SweepCellResult:
    """The result of one cell; ``lrs`` is None when the schedule is unstable."""
    result = SweepCellResult(
        index=index,
        schedule=spec.kind.value,
        schedule_index=schedule_index,
        peak_lr=spec.peak_base_lr,
        decay_ratio=spec.decay_ratio,
        sigma2=sigma2,
        batch=batch,
        steps=spec.total_steps,
        stable=lrs is not None,
    )
    if result.stable:
        result.gap_analytic = float(
            sgd_quadratic_expected_gap(lrs, grid.mu, sigma2 / batch, grid.d0)[-1]
        )
        if mc_gap is not None:
            result.gap_mc_mean, result.gap_mc_stderr = mc_gap
    for name in ("gap_analytic", "gap_mc_mean", "gap_mc_stderr"):
        value = getattr(result, name)
        if value is not None and not math.isfinite(value):
            raise DomainError(
                f"sweep cell {index} ({result.schedule}, peak_lr={result.peak_lr!r}, "
                f"sigma2={sigma2!r}, batch={batch}, steps={result.steps}): "
                f"{name} is {value!r}"
            )
    return result


def _monte_carlo_gaps(grid: SweepGrid, cells, curves, base_seed: int) -> dict:
    """Monte Carlo gaps of the stable cells by cell index: one chain array per
    step count, every chain reading the noise keyed by the grid seed."""
    seed = derive_seed(base_seed, 0)
    chains = {}  # step count -> (index, LR column, noise variance) of each stable cell
    for index, (k, peak, sigma2, total, batch) in cells:
        if curves[k, peak, total] is not None:
            chains.setdefault(total, []).append((index, curves[k, peak, total], sigma2 / batch))
    gaps = {}
    for members in chains.values():
        indices, columns, variances = zip(*members)
        means, stderrs = sgd_monte_carlo_gap(
            np.column_stack(columns), grid.mu, variances, grid.d0,
            trials=grid.trials, seed=seed,
        )
        gaps.update(zip(indices, zip(means.tolist(), stderrs.tolist())))
    return gaps


def run_noise_sweep(
    grid: SweepGrid,
    mode: str = "analytic",
    seed: int = 0,
) -> Sequence[SweepCellResult]:
    """Evaluate every grid cell; output is sorted by cell key, not run order."""
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    cells = list(enumerate(product(
        range(len(grid.schedules)), grid.peak_lrs, grid.sigma2s, grid.steps, grid.batches
    )))
    # Finite grid values can still overflow; a cell whose gap does is
    # refused by _run_cell instead of warned about and written as inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        curves = {}  # None for an unstable schedule
        for key, spec in grid._specs.items():
            lrs = lr_curve(spec)
            curves[key] = lrs if _first_unstable_step(lrs, grid.mu) is None else None
        mc_gaps = _monte_carlo_gaps(grid, cells, curves, seed) if mode == "monte-carlo" else {}
        results = [
            _run_cell(
                index, grid._specs[k, peak, total], k, curves[k, peak, total], sigma2, batch,
                grid, mc_gaps.get(index),
            )
            for index, (k, peak, sigma2, total, batch) in cells
        ]
    return sorted(results, key=SweepCellResult.sort_key)
