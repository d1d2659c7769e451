"""Learning-rate schedules for AdamW and their dual coefficient view.

The package covers five areas: schedule shapes as pure functions of the
step index (:mod:`lrdual.schedules`), the convex-combination coefficients a
schedule implies for AdamW's weight updates (:mod:`lrdual.dual`), schedule
design from target coefficient profiles (:mod:`lrdual.designer`), a
reference AdamW plus bias/variance experiments on noisy quadratics
(:mod:`lrdual.oracle`), and power-law scaling fits (:mod:`lrdual.scaling`).
"""

from .designer import (
    DesignedSchedule,
    TargetProfile,
    rational_schedule,
    schedule_from_coefficients,
)
from .dual import (
    DualCoefficients,
    SmoothingSequence,
    coefficients_at,
    init_coefficient,
    init_coefficient_approx,
    iter_coefficient_rows,
    timescale,
)
from .errors import (
    DivergenceError,
    DomainError,
    InfeasibleTargetError,
    InfiniteTimescaleError,
    LRDualError,
    NonFiniteGradientError,
    ValidationError,
)
from .scaling import PowerLawFit, fit_power_law, slope_gap
from .schedules import (
    ScheduleKind,
    ScheduleSpec,
    alpha_curve,
    average_alpha,
    lr_at,
    lr_curve,
    mup_scale,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ScheduleKind",
    "ScheduleSpec",
    "lr_at",
    "lr_curve",
    "mup_scale",
    "alpha_curve",
    "average_alpha",
    "SmoothingSequence",
    "DualCoefficients",
    "coefficients_at",
    "iter_coefficient_rows",
    "init_coefficient",
    "init_coefficient_approx",
    "timescale",
    "TargetProfile",
    "DesignedSchedule",
    "rational_schedule",
    "schedule_from_coefficients",
    "PowerLawFit",
    "fit_power_law",
    "slope_gap",
    "LRDualError",
    "ValidationError",
    "DomainError",
    "InfiniteTimescaleError",
    "InfeasibleTargetError",
    "DivergenceError",
    "NonFiniteGradientError",
]
