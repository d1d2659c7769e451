"""Power-law fits of loss versus compute by least squares on log-log data."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["PowerLawFit", "fit_power_law", "slope_gap"]


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted ``y = coefficient * x ** exponent`` with its quality."""

    coefficient: float
    exponent: float
    r_squared: float


def fit_power_law(points: Iterable[Sequence[float]]) -> PowerLawFit:
    """Ordinary least squares on ``log y = log c + m log x``.

    ``points`` is a sequence of (x, y) pairs with strictly positive
    coordinates and at least two distinct x values. Internals run in
    extended precision so noiseless power-law data is recovered to within
    rounding of the inputs.
    """
    arr = np.asarray(list(points), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("points must be a sequence of (x, y) pairs")
    n = arr.shape[0]
    if n < 2:
        raise ValidationError(f"need at least 2 points, got {n}")
    if not np.all(np.isfinite(arr)) or arr.min() <= 0.0:
        raise DomainError("all coordinates must be finite and strictly positive")
    x = arr[:, 0]
    y = arr[:, 1]
    if x.min() == x.max():
        raise DomainError("need at least two distinct x values to fit a slope")

    lx = np.log(x.astype(np.longdouble))
    ly = np.log(y.astype(np.longdouble))
    mx = lx.mean()
    my = ly.mean()
    dx = lx - mx
    dy = ly - my
    slope = float((dx * dy).sum() / (dx * dx).sum())
    with np.errstate(over="ignore"):
        coefficient = float(np.exp(my - np.longdouble(slope) * mx))
    if not np.isfinite(coefficient):
        raise DomainError(
            f"fitted coefficient is {coefficient!r}: exp(log c) overflows at slope {slope!r}"
        )

    residual = dy - np.longdouble(slope) * dx
    ss_res = float((residual * residual).sum())
    ss_tot = float((dy * dy).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r_squared = min(max(r_squared, 0.0), 1.0)

    return PowerLawFit(coefficient=coefficient, exponent=slope, r_squared=r_squared)


def slope_gap(fit_a: PowerLawFit, fit_b: PowerLawFit) -> float:
    """Relative exponent difference ``(m_a - m_b) / |m_b|``.

    Negative when ``fit_a`` is steeper (more negative exponent) than the
    baseline ``fit_b``.
    """
    if fit_b.exponent == 0.0:
        raise DomainError("baseline exponent is zero; relative gap undefined")
    return (fit_a.exponent - fit_b.exponent) / abs(fit_b.exponent)
