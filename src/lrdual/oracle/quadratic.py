"""Analytic and Monte Carlo gap curves for SGD on noisy quadratics.

For a 1-D quadratic with curvature ``mu``, additive gradient noise of
variance ``s2`` and squared start distance ``d0``, SGD with step sizes
``lr_t`` has an exact expected-squared-distance recursion

    e_t = (1 - lr_t * mu)^2 * e_{t-1} + lr_t^2 * s2,    e_0 = d0,

which is stable while every ``lr_t * mu`` stays in [0, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import DomainError, ValidationError, allocation_guard, check_count, check_real
from ..schedules import _lr_array
from .rng import normal_field

__all__ = [
    "QuadraticProblem",
    "sgd_quadratic_expected_gap",
    "sgd_monte_carlo_gap",
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
        check_count("dim", self.dim)
        with allocation_guard("dim", self.dim):
            curv = np.empty(self.dim)
        curv[...] = np.broadcast_to(np.asarray(self.curvature, dtype=np.float64), (self.dim,))
        if not np.all(np.isfinite(curv)) or curv.min() <= 0:
            raise ValidationError("curvature must be positive in every coordinate")
        object.__setattr__(self, "curvature", curv)
        check_real("noise_var", self.noise_var)
        check_real("theta0_dist_sq", self.theta0_dist_sq)
        check_count("batch_size", self.batch_size)

    @property
    def effective_noise_var(self) -> float:
        return self.noise_var / self.batch_size

    def theta_star(self) -> np.ndarray:
        return np.ones(self.dim)

    def theta0(self) -> np.ndarray:
        offset = math.sqrt(self.theta0_dist_sq / self.dim)
        signs = np.where(np.arange(self.dim) % 2 == 0, 1.0, -1.0)
        return self.theta_star() + offset * signs


def _first_unstable_step(lrs: np.ndarray, mu: float) -> Optional[int]:
    """The 1-based first step whose ``lr * mu`` leaves [0, 2), or None."""
    prod = lrs * mu
    bad = np.flatnonzero(~((prod >= 0.0) & (prod < 2.0)))
    return int(bad[0]) + 1 if bad.size else None


def _check_chain(
    lrs: np.ndarray, mu: float, noise_var_eff: float, d0: float
) -> np.ndarray:
    """Validate a 1-D SGD chain's inputs; return the step sizes as float64."""
    check_real("mu", mu, bounds="()")
    check_real("noise_var_eff", noise_var_eff)
    check_real("d0", d0)
    lrs = _lr_array(lrs)
    step = _first_unstable_step(lrs, mu)
    if step is not None:
        raise DomainError(
            f"unstable step size at step {step}: lr*mu={lrs[step - 1] * mu} "
            f"outside [0, 2)"
        )
    return lrs


def sgd_quadratic_expected_gap(
    lrs: np.ndarray,
    mu: float,
    noise_var_eff: float,
    d0: float,
) -> np.ndarray:
    """Exact expected squared distances ``e_1..e_T`` for 1-D SGD."""
    lrs = _check_chain(lrs, mu, noise_var_eff, d0)
    contractions = (1.0 - lrs * mu) ** 2
    injections = lrs * lrs * noise_var_eff
    gaps = np.empty(len(lrs))
    e = d0
    for i in range(len(lrs)):
        e = contractions[i] * e + injections[i]
        gaps[i] = e
    return gaps


def sgd_monte_carlo_gap(
    lrs: np.ndarray,
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
    check_count("trials", trials, minimum=2)
    lrs = _check_chain(lrs, mu, noise_var_eff, d0)
    noise_std = math.sqrt(noise_var_eff)
    start = math.sqrt(d0)
    with allocation_guard("trials", trials):
        theta = np.full(trials, start)
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
