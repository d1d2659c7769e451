"""Training-order probe basics; the qualitative ordering claim lives in acceptance."""

import numpy as np
import pytest

from lrdual import ScheduleKind, ScheduleSpec, ValidationError, lr_curve
from lrdual.oracle import AdamWConfig, order_fit_probe


def probe_lrs(kind, total=400):
    return lr_curve(ScheduleSpec(
        kind=ScheduleKind(kind),
        total_steps=total,
        peak_base_lr=0.05,
        warmup_steps=total // 10,
        decay_ratio=1.0 if kind == "constant" else 0.0,
    ))


class TestOrderFitProbe:
    def test_returns_one_loss_per_segment(self):
        losses = order_fit_probe(8, probe_lrs("linear"), AdamWConfig(), seed=0)
        assert losses.shape == (8,)
        assert np.all(np.isfinite(losses)) and np.all(losses >= 0)

    def test_deterministic(self):
        a = order_fit_probe(8, probe_lrs("constant"), AdamWConfig(), seed=4)
        b = order_fit_probe(8, probe_lrs("constant"), AdamWConfig(), seed=4)
        assert np.array_equal(a, b)
        c = order_fit_probe(8, probe_lrs("constant"), AdamWConfig(), seed=5)
        assert not np.array_equal(a, c)

    def test_zero_noise_leaves_nothing_to_overfit(self):
        # decay-to-zero anneals onto the exact solution: every segment fits
        losses = order_fit_probe(
            8, probe_lrs("linear"), AdamWConfig(), seed=1, noise_std=0.0
        )
        assert losses.max() < 1e-4
        assert losses.max() - losses.min() < 1e-4
        # constant LR limit-cycles around the optimum; segments differ only
        # by input sampling, not by any systematic recency preference
        losses = order_fit_probe(
            8, probe_lrs("constant"), AdamWConfig(), seed=1, noise_std=0.0
        )
        assert losses.max() - losses.min() <= 0.3 * losses.mean()

    def test_validation(self):
        with pytest.raises(ValidationError):
            order_fit_probe(3, probe_lrs("linear"), AdamWConfig())
        with pytest.raises(ValidationError):
            order_fit_probe(7, probe_lrs("linear", total=400), AdamWConfig())
        with pytest.raises(ValidationError):
            order_fit_probe(8, probe_lrs("linear"), AdamWConfig(), noise_std=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"dim": 0},
            {"dim": -1},
            {"batch_size": 2.5},
            {"noise_std": float("nan")},
            {"noise_std": float("inf")},
        ],
    )
    def test_sizes_and_noise_validated(self, kwargs):
        with pytest.raises(ValidationError):
            order_fit_probe(8, probe_lrs("linear"), AdamWConfig(), **kwargs)
