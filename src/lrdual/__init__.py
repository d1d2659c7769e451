"""Learning-rate schedules for AdamW and their dual coefficient view.

The package covers five areas: schedule shapes as pure functions of the
step index (:mod:`lrdual.schedules`), the convex-combination coefficients a
schedule implies for AdamW's weight updates (:mod:`lrdual.dual`), schedule
design from target coefficient profiles (:mod:`lrdual.designer`), a
reference AdamW plus bias/variance experiments on noisy quadratics
(:mod:`lrdual.oracle`), and power-law scaling fits (:mod:`lrdual.scaling`).

The names in ``__all__`` and the submodules resolve on first use (PEP 562),
so ``import lrdual`` alone loads neither them nor numpy. :mod:`lrdual.cli`
relies on this to choose numpy's BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.5.0"

# The public names each submodule defines, the reverse lookup and ``__all__``.
_EXPORTS = {
    "designer": (
        "DesignedSchedule", "TargetProfile", "rational_schedule", "schedule_from_coefficients",
    ),
    "dual": (
        "DualCoefficients", "SmoothingSequence", "coefficients_at", "init_coefficient",
        "init_coefficient_approx", "iter_coefficient_rows", "timescale",
    ),
    "errors": (
        "DivergenceError", "DomainError", "InfeasibleTargetError", "InfiniteTimescaleError",
        "LRDualError", "NonFiniteGradientError", "ValidationError",
    ),
    "scaling": ("PowerLawFit", "fit_power_law", "slope_gap"),
    "schedules": (
        "ScheduleKind", "ScheduleSpec", "alpha_curve", "average_alpha", "lr_curve",
        "mup_scale",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]

_SUBMODULES = ("cli", "designer", "dual", "errors", "fileio", "oracle", "scaling", "schedules")


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_SUBMODULES))
