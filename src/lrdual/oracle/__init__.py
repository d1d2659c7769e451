"""Reference optimizer runs and bias/variance experiments on noisy quadratics."""

from .adamw import (
    AdamWConfig,
    AdamWState,
    AdamWTrace,
    adamw_step,
    reconstruct,
    reconstruct_from_updates,
    stream,
    train,
)
from .probe import order_fit_probe
from .quadratic import (
    GapBound,
    QuadraticProblem,
    check_sgd_stability,
    sgd_gap_bound,
    sgd_monte_carlo_gap,
    sgd_quadratic_expected_gap,
)
from .rng import derive_seed, normal_field
from .sweep import SweepCellResult, SweepGrid, SweepSchedule, run_noise_sweep

__all__ = [
    "AdamWConfig",
    "AdamWState",
    "AdamWTrace",
    "adamw_step",
    "stream",
    "train",
    "reconstruct",
    "reconstruct_from_updates",
    "QuadraticProblem",
    "GapBound",
    "sgd_gap_bound",
    "sgd_quadratic_expected_gap",
    "sgd_monte_carlo_gap",
    "check_sgd_stability",
    "order_fit_probe",
    "SweepGrid",
    "SweepSchedule",
    "SweepCellResult",
    "run_noise_sweep",
    "normal_field",
    "derive_seed",
]
