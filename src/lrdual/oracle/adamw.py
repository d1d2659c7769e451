"""Reference AdamW and the reconstruction of its iterates from dual coefficients.

A step of AdamW with decoupled weight decay,

    theta_t = (1 - lr * wd) * theta_{t-1} - lr * mhat_t / (sqrt(vhat_t) + eps),

is a moving average ``theta_t = (1 - a_t) theta_{t-1} + a_t x_t`` with
``a_t = lr_t * wd`` and ``x_t = -mhat_t / ((sqrt(vhat_t) + eps) * wd)``. A
recorded trace therefore satisfies ``theta_T = sum_i c_{T,i} X_i`` exactly,
where ``X`` is the update list shifted by one so the initial parameters sit
at index 1 with smoothing 1, and ``c`` are the dual coefficients of the
realized smoothing sequence.

The coefficients depend only on the schedule, so they are known before
training starts and the sum can be built as training runs. One loop serves
three consumers: :func:`train` records every iterate and update (the test
reference, O(T * dim) memory); :func:`stream` yields each step from a
two-row ring, which the ``simulate`` command feeds to :func:`reconstruct`
for the online sum in O(T + dim) memory; the order probe keeps only the
final parameters. A gradient callable is handed the previous parameters as
a row of the loop's own table and must not write to it.
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
)
from ..schedules import ScheduleSpec, lr_curve
from .quadratic import QuadraticProblem
from .rng import normal_field

__all__ = [
    "AdamWConfig",
    "AdamWState",
    "AdamWTrace",
    "adamw_step",
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
        if not (0.0 <= self.weight_decay and math.isfinite(self.weight_decay)):
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValidationError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not (0.0 <= self.beta2 < 1.0):
            raise ValidationError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not (self.epsilon > 0.0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class AdamWState:
    """Parameters plus first/second moment accumulators after ``step`` steps."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, theta0: np.ndarray) -> "AdamWState":
        theta0 = np.asarray(theta0, dtype=np.float64)
        return cls(
            theta=theta0.copy(),
            m=np.zeros_like(theta0),
            v=np.zeros_like(theta0),
            step=0,
        )


def _apply(
    state: AdamWState,
    gradient: np.ndarray,
    lr: float,
    config: AdamWConfig,
    theta_out: np.ndarray,
    direction: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """One AdamW step in place, the only place the update formula lives.

    Advances ``state.m``, ``state.v`` and ``state.step``, writes the new
    parameters to ``theta_out`` (which may be ``state.theta``) and points
    ``state.theta`` at it, and writes the normalized update
    ``mhat / (sqrt(vhat) + eps)`` to ``direction``. ``scratch`` is workspace
    of the parameters' shape. Overflow is deliberate (divergence is detected
    from the iterate), so callers hold ``np.errstate(over=..., invalid=...)``.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != state.theta.shape:
        raise ValidationError(
            f"gradient at step {state.step + 1} has shape {gradient.shape}, "
            f"the parameters {state.theta.shape}"
        )
    if not np.isfinite(gradient).all():
        raise NonFiniteGradientError(
            state.step + 1, f"non-finite gradient at step {state.step + 1}"
        )
    if lr < 0:
        raise DomainError(f"learning rate must be non-negative, got {lr}")
    t = state.step + 1
    beta1, beta2 = config.beta1, config.beta2
    m, v = state.m, state.v
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
    direction += config.epsilon
    np.divide(m, 1.0 - beta1**t, out=scratch)
    np.divide(scratch, direction, out=direction)
    # theta = (1 - lr * wd) * theta - lr * direction
    np.multiply(direction, lr, out=scratch)
    np.multiply(state.theta, 1.0 - lr * config.weight_decay, out=theta_out)
    theta_out -= scratch
    state.theta = theta_out
    state.step = t


def adamw_step(
    state: AdamWState,
    gradient: np.ndarray,
    lr: float,
    config: AdamWConfig,
) -> AdamWState:
    """Functional AdamW step with bias-corrected moments; ``state`` is left
    unchanged."""
    new = AdamWState(
        theta=np.array(state.theta, dtype=np.float64),
        m=np.array(state.m, dtype=np.float64),
        v=np.array(state.v, dtype=np.float64),
        step=state.step,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _apply(
            new, gradient, lr, config, new.theta, np.empty_like(new.theta),
            np.empty_like(new.theta),
        )
    return new


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
        return SmoothingSequence(
            np.concatenate([[1.0], self.lrs * self.weight_decay])
        )


Problem = Union[QuadraticProblem, np.ndarray, Callable[[int, np.ndarray], np.ndarray]]


def _steps(
    problem: Problem,
    lrs: np.ndarray,
    config: AdamWConfig,
    seed: int,
    theta0: Optional[np.ndarray],
    rows: int,
) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """The AdamW loop, shared by every consumer.

    Yields ``(t, thetas, updates)`` for t = 0..T. The tables have ``rows``
    rows used as a ring: after step t, ``thetas[t % rows]`` holds the
    parameters and ``updates[t % rows]`` the moving-average input (both the
    initialization at t = 0); ``updates`` is ``None`` when weight decay is
    zero. ``rows = T + 1`` records the whole run, ``rows = 2`` only the last
    two steps. The gradient is handed the row ``thetas[(t - 1) % rows]``.
    """
    steps = len(lrs)
    if isinstance(problem, QuadraticProblem):
        start = problem.theta0() if theta0 is None else theta0
        dim = problem.dim
        noise_std = math.sqrt(problem.effective_noise_var)
        optimum = problem.theta_star()
        curvature = problem.curvature_vector
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
        scripted = np.asarray(problem, dtype=np.float64)
        if scripted.ndim != 2 or scripted.shape[0] != steps:
            raise ValidationError(
                f"scripted gradients must have shape ({steps}, dim), got {scripted.shape}"
            )
        start = np.zeros(scripted.shape[1]) if theta0 is None else theta0

        def gradient_at(step: int, theta: np.ndarray) -> np.ndarray:
            return scripted[step - 1]

    start = np.asarray(start, dtype=np.float64)
    if start.ndim != 1:
        raise ValidationError(f"theta0 must be a vector, got shape {start.shape}")
    if isinstance(problem, QuadraticProblem) and start.shape != (problem.dim,):
        raise ValidationError(
            f"theta0 has shape {start.shape} but the problem has dim={problem.dim}"
        )
    dim = len(start)
    thetas = np.empty((rows, dim))
    thetas[0] = start
    updates = None
    direction = np.empty(dim)
    if config.weight_decay > 0:
        updates = np.empty((rows, dim))
        updates[0] = start
    yield 0, thetas, updates

    state = AdamWState(theta=thetas[0], m=np.zeros(dim), v=np.zeros(dim))
    scratch = np.empty(dim)
    for t in range(1, steps + 1):
        row = t % rows
        if updates is not None:
            direction = updates[row]
        # overflow is deliberate here: divergence is detected from the iterate
        with np.errstate(over="ignore", invalid="ignore"):
            _apply(
                state, gradient_at(t, state.theta), lrs[t - 1], config, thetas[row],
                direction, scratch,
            )
            if not np.isfinite(state.theta).all():
                raise DivergenceError(t, f"parameters became non-finite at step {t}")
            if updates is not None:
                # the moving-average input -direction / wd
                np.negative(direction, out=direction)
                direction /= config.weight_decay
        yield t, thetas, updates


def stream(
    problem: Problem,
    spec: ScheduleSpec,
    config: AdamWConfig,
    seed: int = 0,
    theta0: Optional[np.ndarray] = None,
) -> Iterator[Tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Run AdamW like :func:`train` but yield each step instead of recording it.

    Yields ``(t, theta_t, x_t)`` for t = 0..T: the parameters after step t
    and the moving-average input of step t (``x_0 = theta_0``; ``x_t`` is
    ``None`` when weight decay is zero). Only two rows of each are held, so
    the yielded arrays, and the parameters a gradient callable is handed,
    are overwritten two steps later; copy what must outlive that. Memory is
    O(dim) whatever T is.
    """
    for t, thetas, updates in _steps(problem, lr_curve(spec), config, seed, theta0, 2):
        yield t, thetas[t % 2], None if updates is None else updates[t % 2]


def train(
    problem: Problem,
    spec: ScheduleSpec,
    config: AdamWConfig,
    seed: int = 0,
    theta0: Optional[np.ndarray] = None,
) -> AdamWTrace:
    """Run AdamW for ``spec.total_steps`` steps and record the trajectory.

    ``problem`` is a :class:`QuadraticProblem` (noisy quadratic gradients,
    deterministic in ``seed``), a scripted gradient stream of shape
    (total_steps, dim), or a gradient callable ``(step, theta) -> g`` called
    with the 1-based step and the current parameters, which requires
    ``theta0``. The parameters it is handed are the recorded row
    ``thetas[step - 1]``, so it must not write to them, and its gradient
    must have their shape. Raises :class:`DivergenceError` naming the first
    step at which parameters became non-finite.

    :func:`stream` runs the same loop without recording; this is the
    reference it is tested against, bit for bit.
    """
    lrs = lr_curve(spec)
    for _, thetas, updates in _steps(problem, lrs, config, seed, theta0, len(lrs) + 1):
        pass
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
    """
    theta_hat = scratch = theta = None
    n = 0
    for n, (theta, x) in enumerate(rows, start=1):
        if theta_hat is None:
            theta_hat = np.zeros_like(x)
            scratch = np.empty_like(x)
        np.multiply(x, c[n - 1], out=scratch)
        theta_hat += scratch
    if n != len(c):
        raise ValidationError(f"coefficients cover {len(c)} inputs but {n} rows arrived")
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
    if trace.weight_decay == 0:
        raise DomainError(
            "reconstruction requires weight_decay > 0 (updates are scaled by 1/wd)"
        )
    if trace.updates is None:
        raise DomainError("trace has no recorded updates")
    n_inputs = len(trace.updates)
    if coeffs.t != n_inputs:
        raise ValidationError(
            f"coefficients cover {coeffs.t} inputs but the trace has {n_inputs}"
        )
    return reconstruct(coeffs.c, zip(trace.thetas, trace.updates))
