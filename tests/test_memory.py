"""Memory budgets of the O(T) producers, counted exactly by tracemalloc.

numpy reports every data buffer to tracemalloc, so the traced peak of a call
is the sum of the arrays it holds at once; budgets are in doubles per input.
"""

import tracemalloc

import numpy as np
import pytest

from lrdual import ScheduleKind, ScheduleSpec, SmoothingSequence, coefficients_at, lr_curve

N = 100_000


def traced_peak(fn, *args):
    """Peak bytes allocated by ``fn(*args)`` beyond what was live before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_coefficients_at_holds_five_doubles_per_input():
    rng = np.random.default_rng(0)
    alphas = rng.uniform(1e-5, 1e-3, N)
    alphas[0] = 1.0
    alphas[N // 2] = 1.0
    seq = SmoothingSequence(alphas)
    assert traced_peak(coefficients_at, seq) <= 5 * 8 * N


def test_smoothing_from_lrs_holds_two_and_a_half_doubles_per_step():
    # the alphas lr * wd and the sequence with alpha_1 = 1 prepended
    lrs = np.linspace(1e-3, 0.0, N)
    assert traced_peak(SmoothingSequence.from_lrs, lrs, 0.1) <= 2.5 * 8 * N


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_lr_curve_holds_four_doubles_per_step(kind):
    warmup = 1000
    params = {
        ScheduleKind.CYCLIC: {"period_steps": 2938},
        ScheduleKind.RATIONAL: {"weight_decay": 0.1},
        ScheduleKind.PIECEWISE: {"multipliers": tuple(np.linspace(1.0, 0.0, N - warmup))},
    }.get(kind, {})
    spec = ScheduleSpec(
        kind=kind,
        total_steps=N,
        peak_base_lr=1.6e-2,
        warmup_steps=warmup,
        mup_factor=0.125,
        decay_ratio=0.1,
        kind_params=params,
    )
    assert traced_peak(lr_curve, spec) <= 4 * 8 * N


def test_piecewise_lr_curve_reads_its_multipliers_in_place():
    # the spec converts its multipliers once; a curve holds only its steps
    warmup = 1000
    spec = ScheduleSpec(
        kind=ScheduleKind.PIECEWISE,
        total_steps=N,
        peak_base_lr=1.6e-2,
        warmup_steps=warmup,
        kind_params={"multipliers": tuple(np.linspace(1.0, 0.0, N - warmup))},
    )
    assert traced_peak(lr_curve, spec) <= 1.5 * 8 * N
