"""Grid sweeps of schedules against noise levels on the analytic quadratic.

Cells are the cross product of schedules, peak learning rates, noise
variances, step counts and batch sizes. Making a grid builds the schedule of
every cell, so a bad entry is refused before any cell runs; unstable cells
are flagged in the output rather than dropped.

The sweep runs one chain per stable LR curve (schedule, peak, step count):
the noise axes enter only through ``s2 = sigma2 / batch``, and a cell's exact
gap is ``A * d0 + B * s2`` and its Monte Carlo trials end at ``P * sqrt(d0) -
sqrt(s2) * W``, with factors of the curve (see :mod:`lrdual.oracle.quadratic`).
The curves of one step count are the LR columns of one exact-gap call and,
in Monte Carlo mode, one simulation, each at every ``s2``. The simulation
uses common random numbers: each curve reads the same noise field at each
step, keyed by one grid seed derived from the base seed. A cell's result
therefore depends only on its own LR curve, ``s2`` and the base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def _known_keys(entry: object, cls: type, where: str) -> Mapping[str, Any]:
    """``entry`` once it is a mapping whose every key names a field of
    ``cls``: a misspelt key is refused, not left at its default."""
    if not isinstance(entry, Mapping):
        raise ValidationError(f"malformed sweep grid: {where} is a {type(entry).__name__}")
    accepted = [f.name for f in fields(cls)]
    for key in entry:
        if key not in accepted:
            raise ValidationError(
                f"sweep grid: unknown key {key!r} in {where}; it accepts {', '.join(accepted)}"
            )
    return entry


@dataclass(frozen=True)
class SweepSchedule:
    """One schedule shape entering the grid."""

    kind: str
    decay_ratio: float = 0.0
    # left out of the hash, so a grid stays hashable; equality still compares it
    kind_params: Mapping[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        ratio = check_real("decay_ratio", self.decay_ratio, 0.0, 1.0, "[]")
        object.__setattr__(self, "decay_ratio", ratio)
        object.__setattr__(self, "kind_params", dict(self.kind_params))


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
        # Axes are stored as tuples, so a grid made from lists or arrays is hashable.
        for name in ("schedules", "peak_lrs", "sigma2s", "steps", "batches"):
            axis = tuple(getattr(self, name))
            if not axis:
                raise ValidationError(f"sweep grid axis {name} must be non-empty")
            object.__setattr__(self, name, axis)
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
        """Build a grid from a parsed JSON document, whose keys are the field
        names of the grid and of its schedule entries."""
        try:
            kwargs = dict(_known_keys(data, cls, "the grid"))
            kwargs["schedules"] = [
                SweepSchedule(**_known_keys(entry, SweepSchedule, f"schedule {k}"))
                for k, entry in enumerate(data["schedules"])
            ]
            for name in ("steps", "batches"):
                kwargs[name] = [_integer(v) for v in data[name]]
            if "trials" in data:
                kwargs["trials"] = _integer(data["trials"])
            return cls(**kwargs)
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
    sigma2: float,
    batch: int,
    gaps: Optional[Tuple[float, ...]],
) -> SweepCellResult:
    """The result of one cell from its analytic gap and, in Monte Carlo mode,
    mean and standard error; ``gaps`` is None when the schedule is unstable."""
    result = SweepCellResult(
        index=index,
        schedule=spec.kind.value,
        schedule_index=schedule_index,
        peak_lr=spec.peak_base_lr,
        decay_ratio=spec.decay_ratio,
        sigma2=sigma2,
        batch=batch,
        steps=spec.total_steps,
        stable=gaps is not None,
    )
    for name, value in zip(("gap_analytic", "gap_mc_mean", "gap_mc_stderr"), gaps or ()):
        if not math.isfinite(value):
            raise DomainError(
                f"sweep cell {index} ({result.schedule}, peak_lr={result.peak_lr!r}, "
                f"sigma2={sigma2!r}, batch={batch}, steps={result.steps}): "
                f"{name} is {value!r}"
            )
        setattr(result, name, value)
    return result


def _curve_gaps(grid: SweepGrid, mode: str, base_seed: int) -> dict:
    """The gaps of each stable LR curve (schedule, peak, steps) at each ``s2``
    of the grid, as ``_run_cell`` takes them, from one exact-gap call and, in
    Monte Carlo mode, one simulation per step count."""
    curves = {}  # step count -> the LR curve of each stable (schedule, peak)
    for (k, peak, total), spec in grid._specs.items():
        lrs = lr_curve(spec)
        if _first_unstable_step(lrs, grid.mu) is None:
            curves.setdefault(total, {})[k, peak] = lrs
    ratios = list(dict.fromkeys(s / b for s, b in product(grid.sigma2s, grid.batches)))
    # deriving the seed imports numpy.random, which analytic sweeps do without
    seed = derive_seed(base_seed, 0) if mode == "monte-carlo" else None
    gaps = {}
    for total, stable in curves.items():
        keys = list(stable)
        table = np.column_stack([stable.pop(key) for key in keys])  # now the curves' one copy
        # the exact gaps and the Monte Carlo means and standard errors by curve and s2
        results = [sgd_quadratic_expected_gap(table, grid.mu, ratios, grid.d0)]
        if seed is not None:
            results += sgd_monte_carlo_gap(table, grid.mu, ratios, grid.d0, trials=grid.trials,
                                           seed=seed)
        for c, (k, peak) in enumerate(keys):
            for r, s2 in enumerate(ratios):
                gaps[k, peak, total, s2] = tuple(float(values[c, r]) for values in results)
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
        gaps = _curve_gaps(grid, mode, seed)
        results = [
            _run_cell(index, grid._specs[k, peak, total], k, sigma2, batch,
                      gaps.get((k, peak, total, sigma2 / batch)))
            for index, (k, peak, sigma2, total, batch) in cells
        ]
    return sorted(results, key=SweepCellResult.sort_key)
