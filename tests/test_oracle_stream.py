"""The streamed AdamW run against the full-recording reference.

``simulate`` streams through a two-row ring and reconstructs online; these
tests hold it to ``train`` plus ``reconstruct_from_updates`` bit for bit,
and bound the memory it takes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from lrdual import ScheduleKind, ScheduleSpec, ValidationError, coefficients_at, lr_curve
from lrdual.cli import main
from lrdual.oracle import (
    AdamWConfig,
    QuadraticProblem,
    reconstruct,
    reconstruct_from_updates,
    stream,
    train,
)


def simulate(tmp_path, steps, dim, wd="0.1"):
    """Run the CLI and return its reference inputs and its outputs."""
    argv = [
        "simulate", "--kind", "linear", "--steps", str(steps), "--warmup", str(steps // 10),
        "--peak-base", "0.1", "--wd", wd, "--dim", str(dim), "--sigma2", "0.5",
        "--seed", "7", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    lrs = lr_curve(ScheduleSpec(
        kind=ScheduleKind.LINEAR, total_steps=steps, peak_base_lr=0.1,
        warmup_steps=steps // 10,
    ))
    problem = QuadraticProblem(dim=dim, curvature=1.0, noise_var=0.5, theta0_dist_sq=1.0)
    config = AdamWConfig(weight_decay=float(wd))
    summary = json.loads((tmp_path / "summary.json").read_text())
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    dist_sq = np.array([float(line.split(",")[3]) for line in lines])
    return problem, lrs, config, summary, dist_sq


class TestSimulateMatchesTrain:
    @pytest.mark.parametrize("dim", [1, 10, 4097])
    def test_dist_sq_is_the_recorded_axis_sum(self, tmp_path, dim):
        problem, lrs, config, summary, dist_sq = simulate(tmp_path, 300, dim)
        trace = train(problem, lrs, config, seed=7)
        expected = np.sum((trace.thetas[1:] - problem.theta_star()) ** 2, axis=1)
        assert np.array_equal(dist_sq, expected)
        assert summary["final_dist_sq"] == expected[-1]

    @pytest.mark.parametrize("dim", [1, 10, 4097])
    def test_reconstruction_error_is_the_recorded_one(self, tmp_path, dim):
        problem, lrs, config, summary, _ = simulate(tmp_path, 300, dim)
        trace = train(problem, lrs, config, seed=7)
        _, expected = reconstruct_from_updates(trace, coefficients_at(trace.smoothing()))
        assert summary["reconstruction_relative_error"] == expected
        assert expected <= 1e-9

    def test_reconstruction_error_is_null_without_weight_decay(self, tmp_path):
        _, _, _, summary, _ = simulate(tmp_path, 300, 10, wd="0")
        assert summary["reconstruction_relative_error"] is None


class TestStream:
    LRS = lr_curve(ScheduleSpec(
        kind=ScheduleKind.COSINE, total_steps=120, peak_base_lr=0.1, warmup_steps=12
    ))

    @pytest.mark.parametrize("wd", [0.1, 0.0])
    def test_yields_the_recorded_rows(self, wd):
        problem = QuadraticProblem(dim=4, noise_var=0.3)
        config = AdamWConfig(weight_decay=wd)
        trace = train(problem, self.LRS, config, seed=2)
        seen = 0
        for t, theta, x in stream(problem, self.LRS, config, seed=2):
            assert np.array_equal(theta, trace.thetas[t])
            if wd == 0:
                assert x is None
            else:
                assert np.array_equal(x, trace.updates[t])
            seen += 1
        assert seen == len(self.LRS) + 1

    def test_online_sum_equals_the_recorded_one(self):
        problem = QuadraticProblem(dim=6, noise_var=0.3)
        config = AdamWConfig(weight_decay=0.1)
        trace = train(problem, self.LRS, config, seed=2)
        coeffs = coefficients_at(trace.smoothing())
        streamed = reconstruct(coeffs.c, ((th, x) for _, th, x in
                                          stream(problem, self.LRS, config, seed=2)))
        recorded = reconstruct_from_updates(trace, coeffs)
        assert np.array_equal(streamed[0], recorded[0])
        assert streamed[1] == recorded[1]

    def test_online_sum_counts_its_rows(self):
        rows = [(np.ones(2), np.ones(2))] * 3
        with pytest.raises(ValidationError):
            reconstruct(np.full(4, 0.25), rows)

    def test_online_sum_refuses_surplus_rows(self):
        rows = [(np.ones(2), np.ones(2))] * 3
        with pytest.raises(ValidationError, match="cover 2 inputs but 3 rows arrived"):
            reconstruct(np.full(2, 0.5), rows)


def test_simulate_memory_is_independent_of_steps_times_dim(tmp_path):
    # one (T+1) x dim table is 32 MB here; a recording run holds three
    argv = [
        "simulate", "--steps", "2000", "--dim", "2000", "--sigma2", "0.5",
        "--peak-base", "0.01", "--out", str(tmp_path),
    ]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
