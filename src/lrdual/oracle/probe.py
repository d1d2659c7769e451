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

from ..errors import ValidationError, check_count, check_real
from ..schedules import _lr_array
from .adamw import AdamWConfig, stream
from .rng import derive_seed

__all__ = ["order_fit_probe"]


def order_fit_probe(
    num_segments: int,
    lrs: np.ndarray,
    config: AdamWConfig,
    seed: int = 0,
    *,
    dim: int = 8,
    batch_size: int = 4,
    noise_std: float = 1.0,
) -> np.ndarray:
    """Per-segment mean squared loss of the final model on its training batches.

    The stream holds ``len(lrs)`` batches (step t at learning rate ``lrs[t - 1]``)
    split evenly into ``num_segments`` segments; ``len(lrs)`` must be a
    multiple of ``num_segments``. Labels are a fixed random linear map of the
    inputs plus per-batch Gaussian noise, drawn once and reused for the final
    evaluation, so fitting a segment means fitting its noise.
    """
    check_count("num_segments", num_segments, minimum=4)
    lrs = _lr_array(lrs)
    total = len(lrs)
    if total % num_segments != 0:
        raise ValidationError(
            f"len(lrs)={total} must be a multiple of num_segments={num_segments}"
        )
    check_count("dim", dim)
    check_count("batch_size", batch_size)
    check_real("noise_std", noise_std)
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

    for _, theta, _ in stream(gradient, lrs, config, theta0=np.zeros(dim)):
        pass

    losses = np.empty(num_segments)
    for k in range(num_segments):
        rows = slice(k * per_segment, (k + 1) * per_segment)
        residual = x[rows].reshape(-1, dim) @ theta - y[rows].reshape(-1)
        losses[k] = float(np.mean(residual * residual))
    return losses
