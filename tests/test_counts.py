"""Every count and seed the library takes follows one integer rule: no bools, no floats."""

import numpy as np
import pytest

from lrdual import ScheduleSpec, ValidationError, init_coefficient_approx, lr_curve
from lrdual.errors import check_count
from lrdual.oracle import (
    AdamWConfig,
    QuadraticProblem,
    SweepGrid,
    SweepSchedule,
    derive_seed,
    normal_field,
    order_fit_probe,
    sgd_monte_carlo_gap,
    stream,
)


def linear(**fields):
    return ScheduleSpec(**{"kind": "linear", "total_steps": 40, "peak_base_lr": 0.05, **fields})


def grid(**fields):
    axes = dict(schedules=(SweepSchedule(kind="linear"),), peak_lrs=(0.1,), sigma2s=(1.0,),
                steps=(20,), batches=(1,), trials=10)
    return SweepGrid(**{**axes, **fields})


# Each count with a call that takes it and a valid numpy value for it.
COUNTS = {
    "ScheduleSpec.total_steps": (lambda n: linear(total_steps=n), 10),
    "ScheduleSpec.warmup_steps": (lambda n: linear(warmup_steps=n), 2),
    "ScheduleSpec.period_steps": (
        lambda n: linear(kind="cyclic", kind_params={"period_steps": n}), 3),
    "QuadraticProblem.dim": (lambda n: QuadraticProblem(dim=n), 3),
    "QuadraticProblem.batch_size": (lambda n: QuadraticProblem(dim=2, batch_size=n), 2),
    "sgd_monte_carlo_gap.trials": (
        lambda n: sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=n, seed=0), 4),
    "order_fit_probe.num_segments": (
        lambda n: order_fit_probe(n, lr_curve(linear()), AdamWConfig()), 4),
    "order_fit_probe.dim": (
        lambda n: order_fit_probe(4, lr_curve(linear()), AdamWConfig(), dim=n), 2),
    "order_fit_probe.batch_size": (
        lambda n: order_fit_probe(4, lr_curve(linear()), AdamWConfig(), batch_size=n), 2),
    "init_coefficient_approx.t": (lambda n: init_coefficient_approx(0.5, n), 3),
    "SweepGrid.steps": (lambda n: grid(steps=(n,)), 20),
    "SweepGrid.batches": (lambda n: grid(batches=(n,)), 2),
    "SweepGrid.trials": (lambda n: grid(trials=n), 2),
    # seeds, steps and indices: a bool would key the stream of 0 or 1
    "normal_field.seed": (lambda n: normal_field(n, 1, 3), 5),
    "normal_field.step": (lambda n: normal_field(5, n, 3), 2),
    "derive_seed.base_seed": (lambda n: derive_seed(n, 0), 3),
    "derive_seed.index": (lambda n: derive_seed(0, n), 3),
    "sgd_monte_carlo_gap.seed": (
        lambda n: sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=4, seed=n), 3),
    "stream.seed": (lambda n: list(stream(
        QuadraticProblem(dim=2, noise_var=1.0), np.full(3, 0.1), AdamWConfig(), seed=n)), 3),
}


@pytest.mark.parametrize("count", COUNTS)
def test_counts_refuse_bools_and_accept_numpy_integers(count):
    call, valid = COUNTS[count]
    for flag in (True, False):
        with pytest.raises(ValidationError, match="must be"):
            call(flag)
    call(np.int64(valid))


@pytest.mark.parametrize(
    "value, minimum, message",
    [
        (0, 1, "n must be a positive integer, got 0"),
        (-1, 0, "n must be a non-negative integer, got -1"),
        (1, 2, "n must be an integer >= 2, got 1"),
        (2.0, 1, "n must be a positive integer, got 2.0"),
        ("3", 1, "n must be a positive integer, got '3'"),
        (True, 1, "n must be a positive integer, got True"),
        # counts are used as doubles, so one past the float range is refused
        pytest.param(
            2**1024, 1, "n must be below 2**1024, got 179769313486231590...5356329624224137216",
            id="2**1024",
        ),
        pytest.param(
            -(10**400),
            0,
            "n must be a non-negative integer, got -10000000000000000...0000000000000000000",
            id="-10**400",
        ),
    ],
)
def test_check_count_names_the_minimum(value, minimum, message):
    with pytest.raises(ValidationError) as err:
        check_count("n", value, minimum)
    assert str(err.value) == message
    check_count("n", minimum, minimum)
