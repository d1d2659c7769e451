"""Analytic and Monte Carlo gap curves for SGD on noisy quadratics.

For a 1-D quadratic with curvature ``mu``, additive gradient noise of
variance ``s2`` and squared start distance ``d0``, SGD with step sizes
``lr_t`` has an exact expected-squared-distance recursion

    e_t = (1 - lr_t * mu)^2 * e_{t-1} + lr_t^2 * s2,    e_0 = d0,

and a constant learning rate admits the classical two-term bound
``(1 - lr*mu)^t * d0 + lr * s2``: a bias term shrinking geometrically and a
variance floor proportional to the learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

import numpy as np

from ..errors import DomainError, ValidationError, allocation_guard
from .rng import normal_field

__all__ = [
    "QuadraticProblem",
    "GapBound",
    "sgd_gap_bound",
    "sgd_quadratic_expected_gap",
    "sgd_monte_carlo_gap",
    "check_sgd_stability",
]


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Noisy quadratic with optimum at the origin.

    ``curvature`` is a scalar or per-coordinate positive vector, ``noise_var``
    the per-coordinate gradient-noise variance before batching, and
    ``batch_size`` divides it (effective variance ``noise_var / batch_size``).
    The optimum sits at the all-ones point (away from the origin, so weight
    decay is a real force) and the deterministic start point is offset with
    alternating signs so that its squared distance to the optimum equals
    ``theta0_dist_sq``.
    """

    dim: int
    curvature: Union[float, np.ndarray] = 1.0
    noise_var: float = 0.0
    theta0_dist_sq: float = 1.0
    batch_size: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {self.dim!r}")
        with allocation_guard("dim", self.dim):
            curv = np.empty(self.dim)
        curv[...] = np.broadcast_to(np.asarray(self.curvature, dtype=np.float64), (self.dim,))
        if not np.all(np.isfinite(curv)) or curv.min() <= 0:
            raise ValidationError("curvature must be positive in every coordinate")
        object.__setattr__(self, "curvature", curv)
        if not (self.noise_var >= 0 and math.isfinite(self.noise_var)):
            raise ValidationError(f"noise_var must be >= 0, got {self.noise_var}")
        if not (self.theta0_dist_sq >= 0 and math.isfinite(self.theta0_dist_sq)):
            raise ValidationError(
                f"theta0_dist_sq must be >= 0, got {self.theta0_dist_sq}"
            )
        if not isinstance(self.batch_size, (int, np.integer)) or self.batch_size < 1:
            raise ValidationError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )

    @property
    def curvature_vector(self) -> np.ndarray:
        return self.curvature  # type: ignore[return-value]

    @property
    def effective_noise_var(self) -> float:
        return self.noise_var / self.batch_size

    def theta_star(self) -> np.ndarray:
        return np.ones(self.dim)

    def theta0(self) -> np.ndarray:
        offset = math.sqrt(self.theta0_dist_sq / self.dim)
        signs = np.where(np.arange(self.dim) % 2 == 0, 1.0, -1.0)
        return self.theta_star() + offset * signs


class GapBound(NamedTuple):
    """Two-term gap bound with its bias and variance parts."""

    total: float
    bias: float
    variance: float


def sgd_gap_bound(lr: float, mu: float, noise_var: float, d0: float, t: int) -> GapBound:
    """Constant-LR bound ``(1 - lr*mu)^t * d0 + lr * noise_var``."""
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise ValidationError(f"t must be a non-negative integer, got {t!r}")
    if not (mu > 0 and math.isfinite(mu)):
        raise DomainError(f"mu must be positive, got {mu}")
    if not (noise_var >= 0 and d0 >= 0):
        raise DomainError("noise_var and d0 must be non-negative")
    if not 0.0 < lr * mu < 1.0:
        raise DomainError(f"lr*mu={lr * mu} must be in (0, 1) for the bound to hold")
    bias = (1.0 - lr * mu) ** t * d0
    variance = lr * noise_var
    return GapBound(total=bias + variance, bias=bias, variance=variance)


def check_sgd_stability(lrs: np.ndarray, mu: float) -> None:
    """Raise unless ``lr_t * mu`` stays in [0, 2) for every step."""
    lrs = np.asarray(lrs, dtype=np.float64)
    prod = lrs * mu
    bad = np.nonzero((prod >= 2.0) | (prod < 0.0))[0]
    if bad.size:
        raise DomainError(
            f"unstable step size at step {bad[0] + 1}: lr*mu={prod[bad[0]]} "
            f"outside [0, 2)"
        )


def sgd_quadratic_expected_gap(
    lr_curve: np.ndarray,
    mu: float,
    noise_var_eff: float,
    d0: float,
) -> np.ndarray:
    """Exact expected squared distances ``e_1..e_T`` for 1-D SGD."""
    if not (mu > 0 and math.isfinite(mu)):
        raise DomainError(f"mu must be positive, got {mu}")
    if not (noise_var_eff >= 0 and d0 >= 0):
        raise DomainError("noise_var_eff and d0 must be non-negative")
    lrs = np.asarray(lr_curve, dtype=np.float64)
    check_sgd_stability(lrs, mu)
    contractions = (1.0 - lrs * mu) ** 2
    injections = lrs * lrs * noise_var_eff
    gaps = np.empty(len(lrs))
    e = d0
    for i in range(len(lrs)):
        e = contractions[i] * e + injections[i]
        gaps[i] = e
    return gaps


def sgd_monte_carlo_gap(
    lr_curve: np.ndarray,
    mu: float,
    noise_var_eff: float,
    d0: float,
    trials: int,
    seed: int,
) -> Tuple[float, float]:
    """Simulated mean final squared distance and its standard error.

    Runs ``trials`` independent 1-D SGD chains with the shared noise stream
    keyed by ``(seed, step)``; trial ``k`` reads coordinate ``k`` of each
    step's noise field.
    """
    if not isinstance(trials, (int, np.integer)) or trials < 2:
        raise ValidationError(f"trials must be an integer >= 2, got {trials!r}")
    lrs = np.asarray(lr_curve, dtype=np.float64)
    check_sgd_stability(lrs, mu)
    noise_std = math.sqrt(noise_var_eff)
    with allocation_guard("trials", trials):
        theta = np.full(trials, math.sqrt(d0))
    for t in range(1, len(lrs) + 1):
        lr = lrs[t - 1]
        # theta = (1 - lr * mu) * theta - (lr * noise_std) * z, in place
        theta *= 1.0 - lr * mu
        if noise_std > 0:
            noise = normal_field(seed, t, trials)
            noise *= lr * noise_std
            theta -= noise
    final_sq = theta * theta
    mean = float(final_sq.mean())
    stderr = float(final_sq.std(ddof=1) / math.sqrt(trials))
    return mean, stderr
