"""Reference AdamW and the reconstruction of its iterates from dual coefficients.

A step of AdamW with decoupled weight decay,

    theta_t = (1 - lr * wd) * theta_{t-1} - lr * mhat_t / (sqrt(vhat_t) + eps),

is a moving average ``theta_t = (1 - a_t) theta_{t-1} + a_t x_t`` with
``a_t = lr_t * wd`` and ``x_t = -mhat_t / ((sqrt(vhat_t) + eps) * wd)``. A
recorded trace therefore satisfies ``theta_T = sum_i c_{T,i} X_i`` exactly,
where ``X`` is the update list shifted by one so the initial parameters sit
at index 1 with smoothing 1, and ``c`` are the dual coefficients of the
realized smoothing sequence.

The update formula lives in one place, the loop of :func:`stream`, which
yields each step from a two-row ring. The coefficients depend only on the
schedule, so they are known before training starts: the ``simulate``
command feeds the streamed rows to :func:`reconstruct` for the online sum
in O(T + dim) memory, and :func:`train` copies every yielded row into a
recorded :class:`AdamWTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..dual import DualCoefficients, SmoothingSequence
from ..errors import (
    DivergenceError,
    DomainError,
    NonFiniteGradientError,
    ValidationError,
    check_real,
)
from ..schedules import _lr_array
from .quadratic import QuadraticProblem
from .rng import normal_field

__all__ = [
    "AdamWConfig",
    "AdamWTrace",
    "stream",
    "train",
    "reconstruct",
    "reconstruct_from_updates",
]


@dataclass(frozen=True)
class AdamWConfig:
    """Optimizer hyperparameters; defaults follow common LLM practice."""

    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.95
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        check_real("weight_decay", self.weight_decay)
        check_real("beta1", self.beta1, 0.0, 1.0)
        check_real("beta2", self.beta2, 0.0, 1.0)
        check_real("epsilon", self.epsilon, bounds="()")


@dataclass(eq=False)
class AdamWTrace:
    """Recorded trajectory of a training run.

    ``thetas[k]`` is the parameter vector after k steps (``thetas[0]`` is the
    initialization). ``updates`` holds the moving-average inputs shifted by
    one: ``updates[0]`` is the initialization itself and ``updates[k]`` the
    rescaled update of step k; it is ``None`` when weight decay is zero,
    because the rescaling divides by it. ``lrs[k-1]`` is the realized
    learning rate of step k.
    """

    thetas: np.ndarray
    updates: Optional[np.ndarray]
    lrs: np.ndarray
    weight_decay: float

    @property
    def steps(self) -> int:
        return len(self.lrs)

    def smoothing(self) -> SmoothingSequence:
        """Realized smoothing sequence [1, lr_1*wd, ..., lr_T*wd]."""
        if self.weight_decay == 0:
            raise DomainError(
                "the moving-average view needs weight_decay > 0; this trace has 0"
            )
        return SmoothingSequence.from_lrs(self.lrs, self.weight_decay)


Problem = Union[QuadraticProblem, Callable[[int, np.ndarray], np.ndarray]]


def stream(
    problem: Problem,
    lrs: np.ndarray,
    config: AdamWConfig,
    seed: int = 0,
    theta0: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Run AdamW at learning rate ``lrs[t - 1]`` on step t, yielding each step.

    ``problem`` is a :class:`QuadraticProblem` (noisy quadratic gradients,
    deterministic in ``seed``, starting from ``problem.theta0()`` unless
    ``theta0`` is given) or a gradient callable ``(step, theta) -> g``
    called with the 1-based step and the current parameters, which requires
    ``theta0``, must not write to the parameters and must return their
    shape; anything else raises :class:`ValidationError`.

    Yields ``(t, theta_t, x_t)`` for t = 0..T: the parameters after step t
    and the moving-average input of step t (``x_0 = theta_0``; ``x_t`` is
    ``None`` when weight decay is zero). Both are rows of a two-row ring, so
    the yielded arrays, and the parameters a gradient callable is handed,
    are overwritten two steps later; copy what must outlive that. Memory is
    O(dim) whatever T is. Raises :class:`DivergenceError` naming the first
    step at which the parameters became non-finite.
    """
    lrs = _lr_array(lrs)
    if isinstance(problem, QuadraticProblem):
        start = problem.theta0() if theta0 is None else theta0
        dim = problem.dim
        noise_std = math.sqrt(problem.effective_noise_var)
        optimum = problem.theta_star()
        curvature = problem.curvature
        g = np.empty(dim)

        def gradient_at(step: int, theta: np.ndarray) -> np.ndarray:
            # g = curvature * (theta - optimum) + noise_std * z, in place
            np.subtract(theta, optimum, out=g)
            np.multiply(g, curvature, out=g)
            if noise_std > 0:
                noise = normal_field(seed, step, dim)
                noise *= noise_std
                np.add(g, noise, out=g)
            return g

    elif callable(problem):
        if theta0 is None:
            raise ValidationError("a gradient callable needs an explicit theta0")
        start = theta0
        gradient_at = problem

    else:
        raise ValidationError(
            "problem must be a QuadraticProblem or a gradient callable "
            f"(step, theta) -> g, got {type(problem).__name__}"
        )

    start = np.asarray(start, dtype=np.float64)
    if start.ndim != 1:
        raise ValidationError(f"theta0 must be a vector, got shape {start.shape}")
    if isinstance(problem, QuadraticProblem) and start.shape != (problem.dim,):
        raise ValidationError(
            f"theta0 has shape {start.shape} but the problem has dim={problem.dim}"
        )
    dim = len(start)
    # with weight decay 0 there is no moving-average input: the update rows are scratch
    keep = config.weight_decay > 0
    thetas = np.empty((2, dim))
    updates = np.empty((2, dim))
    thetas[0] = updates[0] = start
    theta = thetas[0]
    yield 0, theta, updates[0] if keep else None

    beta1, beta2, eps, wd = config.beta1, config.beta2, config.epsilon, config.weight_decay
    m = np.zeros(dim)
    v = np.zeros(dim)
    scratch = np.empty(dim)
    for t in range(1, len(lrs) + 1):
        theta_new, direction = thetas[t % 2], updates[t % 2]
        lr = lrs[t - 1]
        # overflow is deliberate here: divergence is detected from the iterate;
        # the state is set per step, so a suspended generator never leaks it
        with np.errstate(over="ignore", invalid="ignore"):
            gradient = np.asarray(gradient_at(t, theta), dtype=np.float64)
            if gradient.shape != theta.shape:
                raise ValidationError(
                    f"gradient at step {t} has shape {gradient.shape}, "
                    f"the parameters {theta.shape}"
                )
            if not np.isfinite(gradient).all():
                raise NonFiniteGradientError(t, f"non-finite gradient at step {t}")
            # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + ((1 - beta2) * g) * g
            np.multiply(gradient, 1.0 - beta1, out=scratch)
            m *= beta1
            m += scratch
            np.multiply(gradient, 1.0 - beta2, out=scratch)
            scratch *= gradient
            v *= beta2
            v += scratch
            # direction = (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
            np.divide(v, 1.0 - beta2**t, out=direction)
            np.sqrt(direction, out=direction)
            direction += eps
            np.divide(m, 1.0 - beta1**t, out=scratch)
            np.divide(scratch, direction, out=direction)
            # theta = (1 - lr * wd) * theta - lr * direction
            np.multiply(direction, lr, out=scratch)
            np.multiply(theta, 1.0 - lr * wd, out=theta_new)
            theta_new -= scratch
            if not np.isfinite(theta_new).all():
                raise DivergenceError(t, f"parameters became non-finite at step {t}")
            if keep:
                # the moving-average input -direction / wd
                np.negative(direction, out=direction)
                direction /= wd
        theta = theta_new
        yield t, theta, direction if keep else None


def train(
    problem: Problem,
    lrs: np.ndarray,
    config: AdamWConfig,
    seed: int = 0,
    theta0: Optional[np.ndarray] = None,
) -> AdamWTrace:
    """Run :func:`stream` and record every step it yields in an :class:`AdamWTrace`.

    The arguments and errors are :func:`stream`'s. A gradient callable is
    handed the recorded row ``thetas[step - 1]`` rather than a ring row, so
    the parameters it is handed stay valid for the whole run. The tables
    take O(T * dim) memory.
    """
    lrs = _lr_array(lrs)
    thetas = updates = None
    if callable(problem):
        gradient = problem
        problem = lambda step, theta: gradient(step, thetas[step - 1])
    for t, theta, x in stream(problem, lrs, config, seed, theta0):
        if t == 0:
            thetas = np.empty((len(lrs) + 1, len(theta)))
            updates = None if x is None else np.empty_like(thetas)
        thetas[t] = theta
        if updates is not None:
            updates[t] = x
    return AdamWTrace(
        thetas=thetas,
        updates=updates,
        lrs=lrs,
        weight_decay=config.weight_decay,
    )


def reconstruct(
    c: np.ndarray, rows: Iterable[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, float]:
    """Accumulate ``theta_hat = sum_i c[i] x_i`` online, in input order.

    ``rows`` yields ``(theta_t, x_t)`` for t = 0..T, as :func:`stream` does
    (recorded rows work as well), and must yield exactly ``len(c)`` rows.
    Each row is read once, as it arrives. Returns ``(theta_hat,
    relative_error)``, the error comparing against the last ``theta_t``.
    Raises :class:`DomainError` if the sum is not finite, which happens when
    weight decay is so close to 0 that ``x_t = -update / wd`` overflows.
    """
    theta_hat = scratch = theta = None
    n, inputs = 0, len(c)
    # an overflowed input makes the sum inf or nan; that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (theta, x) in enumerate(rows, start=1):
            if n > inputs:  # the first surplus row
                break
            if theta_hat is None:
                theta_hat = np.zeros_like(x)
                scratch = np.empty_like(x)
            np.multiply(x, c[n - 1], out=scratch)
            theta_hat += scratch
    if n != inputs:
        raise ValidationError(f"coefficients cover {inputs} inputs but {n} rows arrived")
    if not np.isfinite(theta_hat).all():
        raise DomainError(
            "the reconstructed parameters are not finite: the moving-average "
            "inputs update / weight_decay overflow; raise the weight decay"
        )
    norm = float(np.linalg.norm(theta))
    err = float(np.linalg.norm(theta_hat - theta))
    relative_error = err if norm == 0.0 else err / norm
    return theta_hat, relative_error


def reconstruct_from_updates(
    trace: AdamWTrace,
    coeffs: DualCoefficients,
) -> Tuple[np.ndarray, float]:
    """Rebuild the final parameters as the coefficient-weighted update sum.

    ``coeffs`` must come from the trace's realized smoothing sequence.
    Returns ``(theta_hat, relative_error)`` where the error compares against
    the recorded final parameters. The sum is :func:`reconstruct` run over
    the recorded rows, so it matches a streamed run bit for bit.
    """
    if trace.updates is None:
        raise DomainError(
            "reconstruction requires weight_decay > 0 (updates are scaled by 1/wd)"
        )
    return reconstruct(coeffs.c, zip(trace.thetas, trace.updates))
