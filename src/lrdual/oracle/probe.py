"""Training-order probe: which part of the data stream does the model fit best?

Trains a small linear regressor with AdamW over a stream of noisy batches
split into contiguous segments, each with its own independent noise draws,
then evaluates the final parameters on every segment's own batches. A
constant learning rate leaves the strongest imprint of the most recent
batches; a decay-to-zero schedule damps the very last updates, so its best-
fit segment sits before the end of the stream.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..schedules import ScheduleSpec
from .adamw import AdamWConfig, stream
from .rng import derive_seed

__all__ = ["order_fit_probe"]


def order_fit_probe(
    num_segments: int,
    spec: ScheduleSpec,
    config: AdamWConfig,
    seed: int = 0,
    *,
    dim: int = 8,
    batch_size: int = 4,
    noise_std: float = 1.0,
) -> np.ndarray:
    """Per-segment mean squared loss of the final model on its training batches.

    The stream holds ``spec.total_steps`` batches (one optimizer step each)
    split evenly into ``num_segments`` segments; ``total_steps`` must be a
    multiple of ``num_segments``. Labels are a fixed random linear map of the
    inputs plus per-batch Gaussian noise, drawn once and reused for the final
    evaluation, so fitting a segment means fitting its noise.
    """
    if not isinstance(num_segments, (int, np.integer)) or num_segments < 4:
        raise ValidationError(f"num_segments must be an integer >= 4, got {num_segments!r}")
    total = spec.total_steps
    if total % num_segments != 0:
        raise ValidationError(
            f"total_steps={total} must be a multiple of num_segments={num_segments}"
        )
    if noise_std < 0:
        raise ValidationError(f"noise_std must be >= 0, got {noise_std}")
    per_segment = total // num_segments

    gen = np.random.Generator(
        np.random.Philox(key=np.array([derive_seed(seed, 0), 0], dtype=np.uint64))
    )
    w_true = gen.standard_normal(dim)
    x = gen.standard_normal((total, batch_size, dim))
    y = x @ w_true + noise_std * gen.standard_normal((total, batch_size))

    def gradient(step: int, theta: np.ndarray) -> np.ndarray:
        residual = x[step - 1] @ theta - y[step - 1]
        return 2.0 * (x[step - 1].T @ residual) / batch_size

    for _, theta, _ in stream(gradient, spec, config, theta0=np.zeros(dim)):
        pass

    losses = np.empty(num_segments)
    for k in range(num_segments):
        rows = slice(k * per_segment, (k + 1) * per_segment)
        residual = x[rows].reshape(-1, dim) @ theta - y[rows].reshape(-1)
        losses[k] = float(np.mean(residual * residual))
    return losses
