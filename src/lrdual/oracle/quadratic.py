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
from typing import Optional, Sequence, Tuple, Union

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


def _check_chains(
    lrs: np.ndarray, mu: float, noise_var_eff: Union[float, Sequence[float]], d0: float
) -> Tuple[np.ndarray, Union[float, np.ndarray], float]:
    """Validate one chain (1-D ``lrs``, scalar variance) or time-major LR
    columns ``(T, chains)`` with one variance per chain; return the step
    sizes as float64 in the shape given, the variance as a float or one per
    chain, and ``d0`` as a float. A column's fault names its chain."""
    mu = check_real("mu", mu, bounds="()")
    d0 = check_real("d0", d0)
    one = np.ndim(noise_var_eff) == 0
    variances = [noise_var_eff] if one else list(noise_var_eff)
    table = lrs if one else np.asarray(lrs)
    if not one and (table.ndim != 2 or table.shape[1] != len(variances) or not variances):
        raise ValidationError(
            f"LR columns must have shape (T, {len(variances)}), one per noise variance, "
            f"got shape {table.shape}"
        )
    for c, var in enumerate(variances):
        try:
            variances[c] = check_real("noise_var_eff", var)
            column = _lr_array(table if one else table[:, c])
            step = _first_unstable_step(column, mu)
            if step is not None:
                raise DomainError(
                    f"unstable step size at step {step}: lr*mu={column[step - 1] * mu} "
                    f"outside [0, 2)"
                )
        except (DomainError, ValidationError) as exc:
            raise exc if one else type(exc)(f"chain {c}: {exc}") from None
    if one:
        return column, variances[0], d0
    return table.astype(np.float64, copy=False), np.array(variances), d0


def sgd_quadratic_expected_gap(
    lrs: np.ndarray,
    mu: float,
    noise_var_eff: Union[float, Sequence[float]],
    d0: float,
) -> np.ndarray:
    """Exact expected squared distances ``e_1..e_T`` for 1-D SGD.

    Takes what :func:`sgd_monte_carlo_gap` takes: one chain gives its ``T``
    gaps, LR columns ``(T, chains)`` a ``(T, chains)`` array whose column
    ``c`` equals the one-chain result for ``lrs[:, c]`` bit for bit.
    """
    lrs, noise_var_eff, e = _check_chains(lrs, mu, noise_var_eff, d0)
    contractions = np.square(1.0 - lrs * mu)
    gaps = lrs * lrs  # the noise injections, each overwritten by its gap
    gaps *= noise_var_eff
    for t in range(len(lrs)):
        e = contractions[t] * e + gaps[t]
        gaps[t] = e
    return gaps


# A chunk of chains holds about this many bytes of LR rows and trial rows
# (the chain values and one noise product), so the Monte Carlo memory stays
# flat in the number of chains.
_CHUNK_BYTES = 1 << 20


def _final_gaps(
    lrs: np.ndarray, stds: np.ndarray, mu: float, start: float, trials: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean final squared distance and its standard error of each column of
    ``lrs``; the chains are all noisy or all noiseless."""
    with allocation_guard("trials", trials):
        final_sq = np.empty((lrs.shape[1], trials))
    noisy = bool(stds[0] > 0)
    # every trial of a noiseless chain is the same, so one column stands for all
    theta = final_sq if noisy else np.empty((lrs.shape[1], 1))
    theta[...] = start
    noise = np.empty_like(theta) if noisy else None
    for t, lr in enumerate(lrs, 1):
        # theta = (1 - lr * mu) * theta - (lr * std) * z, in place
        theta *= (1.0 - lr * mu)[:, None]
        if noisy:
            np.multiply(normal_field(seed, t, trials), (lr * stds)[:, None], out=noise)
            theta -= noise
    np.multiply(theta, theta, out=final_sq)
    return final_sq.mean(axis=1), final_sq.std(axis=1, ddof=1) / math.sqrt(trials)


def sgd_monte_carlo_gap(
    lrs: np.ndarray,
    mu: float,
    noise_var_eff: Union[float, Sequence[float]],
    d0: float,
    trials: int,
    seed: int,
) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray]]:
    """Simulated mean final squared distance and its standard error.

    Runs ``trials`` 1-D SGD chains; trial ``k`` reads coordinate ``k`` of
    the noise field keyed by ``(seed, step)``. A 1-D ``lrs`` with a scalar
    ``noise_var_eff`` returns two floats. Time-major LR columns ``(T, chains)``
    with one noise variance per chain return two arrays of length ``chains``:
    every chain reads the same fields (common random numbers), so column
    ``c`` equals the 1-D run of ``lrs[:, c]`` on the same seed, bit for bit.
    Noiseless chains draw nothing. Chains advance in chunks of about
    ``_CHUNK_BYTES``; each chunk draws the fields again, so the results do
    not depend on the chunking.
    """
    check_count("trials", trials, minimum=2)
    lrs, variances, d0 = _check_chains(lrs, mu, noise_var_eff, d0)
    table, stds = lrs.reshape(len(lrs), -1), np.sqrt(np.reshape(variances, -1))
    steps, chains = table.shape
    per_chunk = max(1, _CHUNK_BYTES // (8 * (steps + 2 * trials)))
    means, stderrs = np.empty(chains), np.empty(chains)
    for group in (np.flatnonzero(stds > 0), np.flatnonzero(stds == 0)):
        for lo in range(0, group.size, per_chunk):
            cols = group[lo : lo + per_chunk]
            means[cols], stderrs[cols] = _final_gaps(
                table[:, cols], stds[cols], mu, math.sqrt(d0), trials, seed
            )
    if np.ndim(noise_var_eff) == 0:
        return float(means[0]), float(stderrs[0])
    return means, stderrs
