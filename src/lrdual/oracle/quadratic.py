"""Analytic and Monte Carlo final gaps for SGD on noisy quadratics.

For a 1-D quadratic with curvature ``mu``, additive gradient noise of
variance ``s2`` and squared start distance ``d0``, SGD with step sizes
``lr_t`` has an exact expected-squared-distance recursion

    e_t = (1 - lr_t * mu)^2 * e_{t-1} + lr_t^2 * s2,    e_0 = d0,

which is stable while every ``lr_t * mu`` stays in [0, 2). Both gaps split
into factors of the LR curve, computed once for every variance asked:
``e_T = A * d0 + B * s2``, and a trial ends at
``theta_T - theta* = P * sqrt(d0) - sqrt(s2) * W``, where, with ``c_t = 1 -
lr_t * mu``, ``A = prod c_t^2``, ``B = sum_i lr_i^2 prod_{j>i} c_j^2``, ``P =
prod c_t`` and ``W = sum_i lr_i prod_{j>i} c_j z_i`` (a trial at unit noise).
"""

from __future__ import annotations

import math
import reprlib
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
        try:
            curv[...] = np.broadcast_to(np.asarray(self.curvature, dtype=np.float64), (self.dim,))
        except (TypeError, ValueError):  # a wrong length, a ragged nesting or a string
            shape = np.array(self.curvature, dtype=object).shape
            raise ValidationError(f"curvature must be a positive number or {self.dim} of them, "
                                  f"got {reprlib.repr(self.curvature)} of shape {shape}") from None
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


def _check_chains(lrs: np.ndarray, mu: float, d0: float) -> Tuple[np.ndarray, float]:
    """Validate one chain (a 1-D ``lrs``) or time-major LR columns
    ``(T, chains)``; return the step sizes as float64 in the shape given and
    ``d0`` as a float. A column's fault names its chain."""
    mu = check_real("mu", mu, bounds="()")
    d0 = check_real("d0", d0)
    try:
        one = np.ndim(lrs) < 2
    except ValueError:  # a ragged nesting, which _lr_array refuses
        one = True
    table = lrs if one else np.asarray(lrs)
    if not one and (table.ndim != 2 or not table.shape[1]):
        raise ValidationError(f"LR columns must have shape (T, chains), got shape {table.shape}")
    for c, column in enumerate([table] if one else table.T):
        try:
            column = _lr_array(column)
            step = _first_unstable_step(column, mu)
            if step is not None:
                raise DomainError(
                    f"unstable step size at step {step}: lr*mu={column[step - 1] * mu} "
                    f"outside [0, 2)"
                )
        except (DomainError, ValidationError) as exc:
            raise exc if one else type(exc)(f"chain {c}: {exc}") from None
    return (column if one else table.astype(np.float64, copy=False)), d0


def _variances(noise_var_eff: object, lrs: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Checked variances, and the shape ``lrs.shape[1:] + np.shape(noise_var_eff)``."""
    variances = np.array(noise_var_eff, dtype=object)
    if variances.ndim > 1 or not variances.size:
        raise ValidationError(f"noise_var_eff must be a number or a non-empty 1-D sequence of "
                              f"them, got shape {variances.shape}")
    checked = np.array([check_real("noise_var_eff", var) for var in variances.flat])
    return checked, lrs.shape[1:] + variances.shape


def sgd_quadratic_expected_gap(
    lrs: np.ndarray,
    mu: float,
    noise_var_eff: Union[float, Sequence[float]],
    d0: float,
) -> Union[float, np.ndarray]:
    """Exact expected final squared distance ``A * d0 + B * s2``, in the
    shapes of :func:`sgd_monte_carlo_gap`. One loop advances ``A * d0`` and
    ``B`` of every column; an entry at ``s2 = 0`` is ``A * d0`` alone."""
    lrs, d0 = _check_chains(lrs, mu, d0)
    variances, shape = _variances(noise_var_eff, lrs)
    table = lrs.reshape(len(lrs), -1)
    bias, unit = np.full(table.shape[1], d0), np.zeros(table.shape[1])  # A * d0 and B
    contractions = np.square(1.0 - table * mu)
    # lr * lr can overflow, and B is read only at a non-zero variance
    injections = table * table if variances.any() else np.zeros_like(table)
    for contraction, injection in zip(contractions, injections):
        bias, unit = bias * contraction, unit * contraction + injection
    gaps = np.column_stack([bias + unit * s2 if s2 else bias for s2 in variances])
    return gaps.reshape(shape) if shape else float(gaps[0, 0])


# Bytes of trial rows (W, a noise product and the final distances at one
# variance) per chunk of chains, so memory stays flat in the number of chains.
_CHUNK_BYTES = 1 << 20


def _final_gaps(
    table: np.ndarray, stds: np.ndarray, mu: float, start: float, trials: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean final squared distance and its standard error of each column of
    ``table`` at each noise standard deviation, as ``(columns, stds)`` arrays."""
    means, stderrs = np.empty((2, table.shape[1], stds.size))
    noisy = bool(stds.max() > 0)
    per_chunk = max(1, _CHUNK_BYTES // (24 * trials))
    for lo in range(0, table.shape[1], per_chunk):
        chunk = slice(lo, lo + per_chunk)
        lrs = table[:, chunk]
        with allocation_guard("trials", trials):
            theta = np.empty((lrs.shape[1], trials))  # the final distances at one variance
            w, noise = (np.zeros_like(theta), np.empty_like(theta)) if noisy else (None, None)
        p = np.full(lrs.shape[1], start)
        for t, lr in enumerate(lrs, 1):
            contraction = 1.0 - lr * mu
            p *= contraction
            if noisy:
                w *= contraction[:, None]
                w += np.multiply(normal_field(seed, t, trials), lr[:, None], out=noise)
        for v, std in enumerate(stds):
            theta[...] = p[:, None]
            if std > 0:
                theta -= np.multiply(w, std, out=noise)
            theta *= theta
            means[chunk, v] = theta.mean(axis=1)
            stderrs[chunk, v] = theta.std(axis=1, ddof=1) / math.sqrt(trials)
    return means, stderrs


def sgd_monte_carlo_gap(
    lrs: np.ndarray,
    mu: float,
    noise_var_eff: Union[float, Sequence[float]],
    d0: float,
    trials: int,
    seed: int,
) -> Tuple[Union[float, np.ndarray], Union[float, np.ndarray]]:
    """Simulated mean final squared distance and its standard error.

    Runs ``trials`` 1-D SGD chains per LR column, trial ``k`` reading
    coordinate ``k`` of the noise field keyed by ``(seed, step)`` and ending
    at ``P * sqrt(d0) - sqrt(s2) * W`` for each variance ``s2``. A 1-D ``lrs``
    at one variance gives two floats, LR columns ``(T, chains)`` or a 1-D
    sequence of variances two arrays of shape ``lrs.shape[1:] +
    np.shape(noise_var_eff)``. All columns read the same fields (common random
    numbers), so each entry equals the 1-D run of its column at its variance
    bit for bit, whatever the chunks of about ``_CHUNK_BYTES`` the columns
    advance in. Nothing is drawn when every variance is 0.
    """
    check_count("trials", trials, minimum=2)
    lrs, d0 = _check_chains(lrs, mu, d0)
    variances, shape = _variances(noise_var_eff, lrs)
    means, stderrs = _final_gaps(lrs.reshape(len(lrs), -1), np.sqrt(variances), mu,
                                 math.sqrt(d0), trials, seed)
    return tuple(x.reshape(shape) if shape else float(x[0, 0]) for x in (means, stderrs))
