"""Reference optimizer runs and bias/variance experiments on noisy quadratics."""

from .adamw import (
    AdamWConfig,
    AdamWTrace,
    reconstruct,
    reconstruct_from_updates,
    stream,
    train,
)
from .probe import order_fit_probe
from .quadratic import QuadraticProblem, sgd_monte_carlo_gap, sgd_quadratic_expected_gap
from .rng import derive_seed, normal_field
from .sweep import SweepCellResult, SweepGrid, SweepSchedule, run_noise_sweep

__all__ = [
    "AdamWConfig",
    "AdamWTrace",
    "stream",
    "train",
    "reconstruct",
    "reconstruct_from_updates",
    "QuadraticProblem",
    "sgd_quadratic_expected_gap",
    "sgd_monte_carlo_gap",
    "order_fit_probe",
    "SweepGrid",
    "SweepSchedule",
    "SweepCellResult",
    "run_noise_sweep",
    "normal_field",
    "derive_seed",
]
