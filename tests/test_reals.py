"""Every real-valued scalar the library takes follows one rule: a number in its range.

Each site below refuses bools, strings, None, nan, an int past the float
range and a value just outside each end of its interval, with the one
message of :func:`lrdual.errors.check_real`. It accepts numpy floats and
integers and each end its interval includes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lrdual import (
    InfiniteTimescaleError,
    ScheduleSpec,
    TargetProfile,
    ValidationError,
    alpha_curve,
    init_coefficient_approx,
    mup_scale,
    rational_schedule,
    schedule_from_coefficients,
    timescale,
)
from lrdual.errors import check_real
from lrdual.oracle import (
    AdamWConfig,
    QuadraticProblem,
    SweepGrid,
    SweepSchedule,
    order_fit_probe,
    sgd_monte_carlo_gap,
    sgd_quadratic_expected_gap,
)
from lrdual.schedules import steps_from_fraction

INF = math.inf
LRS = np.full(8, 0.01)


def spec(**fields):
    return ScheduleSpec(**{"kind": "linear", "total_steps": 40, "peak_base_lr": 0.05, **fields})


def kind_param(kind, name, **fields):
    return lambda v: spec(kind=kind, kind_params={name: v}, **fields)


def grid(**fields):
    axes = dict(schedules=(SweepSchedule(kind="linear"),), peak_lrs=(0.1,), sigma2s=(1.0,),
                steps=(20,), batches=(1,), trials=10)
    return SweepGrid(**{**axes, **fields})


def timescale_of_weight_decay(v):
    # weight decay 0 is in range; its timescale is infinite, a distinct error
    try:
        timescale(0.1, v)
    except InfiniteTimescaleError:
        assert v == 0


def gaps(name):
    """Both SGD gap functions, with ``name`` set to the value and the rest valid."""
    def call(v):
        chain = {"mu": 1.0, "noise_var_eff": 1.0, "d0": 1.0, name: v}
        sgd_quadratic_expected_gap(LRS, **chain)
        sgd_monte_carlo_gap(LRS, **chain, trials=4, seed=0)
    return call


# Each site: the name its message uses, a call that takes the value, and the interval.
REALS = {
    "steps_from_fraction": ("fraction", lambda v: steps_from_fraction(v, 10), 0, 1, "[)"),
    "ScheduleSpec.peak_base_lr": ("peak_base_lr", lambda v: spec(peak_base_lr=v), 0, INF, "()"),
    "ScheduleSpec.mup_factor": ("mup_factor", lambda v: spec(mup_factor=v), 0, 1, "(]"),
    "ScheduleSpec.decay_ratio": ("decay_ratio", lambda v: spec(decay_ratio=v), 0, 1, "[]"),
    "ScheduleSpec.milestone_fraction": (
        "kind_params.milestone_fraction", kind_param("step", "milestone_fraction"), 0, 1, "(]"),
    "ScheduleSpec.drop_fraction": (
        "kind_params.drop_fraction", kind_param("step", "drop_fraction"), 0, 1, "[]"),
    "ScheduleSpec.cooldown_fraction": (
        "kind_params.cooldown_fraction",
        kind_param("wsd", "cooldown_fraction", warmup_steps=2), 0, 1, "(]"),
    "ScheduleSpec.weight_decay": (
        "kind_params.weight_decay", kind_param("rational", "weight_decay"), 0, INF, "()"),
    "mup_scale.peak_base_lr": ("peak_base_lr", lambda v: mup_scale(v, 1.0), 0, INF, "()"),
    "mup_scale.mup_factor": ("mup_factor", lambda v: mup_scale(0.05, v), 0, 1, "(]"),
    "alpha_curve.weight_decay": ("weight_decay", lambda v: alpha_curve(LRS, v), 0, INF, "[)"),
    "init_coefficient_approx.avg_alpha": (
        "avg_alpha", lambda v: init_coefficient_approx(v, 3), 0, 1, "[)"),
    "timescale.lr": ("lr", lambda v: timescale(v, 0.1), 0, INF, "()"),
    "timescale.weight_decay": ("weight_decay", timescale_of_weight_decay, 0, INF, "[)"),
    "schedule_from_coefficients.weight_decay": (
        "weight_decay",
        lambda v: schedule_from_coefficients(TargetProfile(np.array([0.5, 0.5])), v),
        0, INF, "()"),
    "rational_schedule.peak_lr": (
        "peak_base_lr", lambda v: rational_schedule(v, 0.1, 10), 0, INF, "()"),
    "rational_schedule.weight_decay": (
        "kind_params.weight_decay", lambda v: rational_schedule(0.05, v, 10), 0, INF, "()"),
    "AdamWConfig.weight_decay": (
        "weight_decay", lambda v: AdamWConfig(weight_decay=v), 0, INF, "[)"),
    "AdamWConfig.beta1": ("beta1", lambda v: AdamWConfig(beta1=v), 0, 1, "[)"),
    "AdamWConfig.beta2": ("beta2", lambda v: AdamWConfig(beta2=v), 0, 1, "[)"),
    "AdamWConfig.epsilon": ("epsilon", lambda v: AdamWConfig(epsilon=v), 0, INF, "()"),
    "QuadraticProblem.noise_var": (
        "noise_var", lambda v: QuadraticProblem(dim=2, noise_var=v), 0, INF, "[)"),
    "QuadraticProblem.theta0_dist_sq": (
        "theta0_dist_sq", lambda v: QuadraticProblem(dim=2, theta0_dist_sq=v), 0, INF, "[)"),
    "sgd_gaps.mu": ("mu", gaps("mu"), 0, INF, "()"),
    "sgd_gaps.noise_var_eff": ("noise_var_eff", gaps("noise_var_eff"), 0, INF, "[)"),
    "sgd_gaps.d0": ("d0", gaps("d0"), 0, INF, "[)"),
    "SweepGrid.mu": ("mu", lambda v: grid(mu=v), 0, INF, "()"),
    "SweepGrid.d0": ("d0", lambda v: grid(d0=v), 0, INF, "[)"),
    "SweepGrid.warmup_frac": ("warmup_frac", lambda v: grid(warmup_frac=v), 0, 1, "[)"),
    "SweepGrid.peak_lrs": ("peak_lrs", lambda v: grid(peak_lrs=(v,)), 0, INF, "()"),
    "SweepGrid.sigma2s": ("sigma2s", lambda v: grid(sigma2s=(v,)), 0, INF, "[)"),
    "SweepSchedule.decay_ratio": (
        "decay_ratio", lambda v: SweepSchedule(kind="linear", decay_ratio=v), 0, 1, "[]"),
    "order_fit_probe.noise_std": (
        "noise_std", lambda v: order_fit_probe(4, LRS, AdamWConfig(), noise_std=v), 0, INF, "[)"),
}


def _inside(x, low, high, bounds):
    return (low <= x if bounds[0] == "[" else low < x) and (
        x <= high if bounds[1] == "]" else x < high)


def _outside(low, high, bounds):
    """The values just outside each end: the end itself if open, else its float neighbor."""
    below = np.nextafter(low, -INF) if bounds[0] == "[" else low
    above = np.nextafter(high, INF) if bounds[1] == "]" else high
    return [float(below), float(above)]


@pytest.mark.parametrize("site", REALS)
def test_reals_refuse_non_numbers_and_out_of_range(site):
    name, call, low, high, bounds = REALS[site]
    prefix = f"{name} must be a number in {bounds[0]}{low:g}, {high:g}{bounds[1]}, got "
    for bad in (True, False, "0.1", None, math.nan, 10**400, *_outside(low, high, bounds)):
        with pytest.raises(ValidationError) as err:
            call(bad)
        if bad is None and name.startswith("kind_params."):
            # a kind parameter given as None counts as not given
            assert str(err.value).startswith(f"{name} is required for kind=")
        else:
            assert str(err.value).startswith(prefix), (bad, str(err.value))


@pytest.mark.parametrize("site", REALS)
def test_reals_accept_numpy_numbers_and_included_ends(site):
    _, call, low, high, bounds = REALS[site]
    call(np.float64(0.5))
    call(np.int64(1 if _inside(1, low, high, bounds) else 0))
    if bounds[0] == "[":
        call(low)
    if bounds[1] == "]":
        call(high)


@pytest.mark.parametrize(
    "value, low, high, bounds, message",
    [
        (-1.0, 0, INF, "[)", "x must be a number in [0, inf), got -1.0"),
        (0.0, 0, INF, "()", "x must be a number in (0, inf), got 0.0"),
        (2, 0, 1, "(]", "x must be a number in (0, 1], got 2"),
        (1.0, 0, 1, "[)", "x must be a number in [0, 1), got 1.0"),
        (-0.5, 0, 1, "[]", "x must be a number in [0, 1], got -0.5"),
        (INF, 0, INF, "[)", "x must be a number in [0, inf), got inf"),
        (math.nan, 0, INF, "[)", "x must be a number in [0, inf), got nan"),
        (True, 0, INF, "[)", "x must be a number in [0, inf), got True"),
        ("0.1", 0, INF, "[)", "x must be a number in [0, inf), got '0.1'"),
        (None, 0, INF, "[)", "x must be a number in [0, inf), got None"),
        (np.array(0.5), 0, INF, "[)", "x must be a number in [0, inf), got array(0.5)"),
        (10**400, 0, INF, "[)",
         "x must be a number in [0, inf), got 100000000000000000...0000000000000000000"),
    ],
)
def test_check_real_message_forms(value, low, high, bounds, message):
    with pytest.raises(ValidationError) as err:
        check_real("x", value, low, high, bounds)
    assert str(err.value) == message


def test_check_real_returns_a_float():
    for value, expected in ((np.int64(3), 3.0), (np.float32(0.5), 0.5), (Fraction(1, 4), 0.25),
                            (7, 7.0), (0.0, 0.0)):
        got = check_real("x", value)
        assert type(got) is float and got == expected
