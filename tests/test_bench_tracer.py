"""The benchmark tracer's targets still exist where it looks for them, and read real results.

``bench/tracer.py`` wraps each target at every name another ``lrdual``
module binds it to, and refuses to run when one is missing; this checks the
same rule without installing anything, so a rename that would break a
traced benchmark run fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lrdual import ScheduleKind, ScheduleSpec, lr_curve
from lrdual.oracle import AdamWConfig, QuadraticProblem, SweepGrid, run_noise_sweep, sweep, train

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("lrdual_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = load_tracer()
TARGETS = [(home, attr) for home, attr, *_ in TRACER_MODULE.TARGETS]


def binders(home, fn):
    """The ``lrdual`` modules other than ``home`` that bind ``fn``."""
    importlib.import_module("lrdual.cli")
    return [
        name
        for name, mod in sys.modules.items()
        if (name == "lrdual" or name.startswith("lrdual.")) and name != home
        and any(value is fn for value in vars(mod).values())
    ]


@pytest.mark.parametrize("home, attr", TARGETS, ids=[f"{h}.{a}" for h, a in TARGETS])
def test_target_is_defined_at_home_and_bound_elsewhere(home, attr):
    fn = getattr(importlib.import_module(home), attr)
    assert fn.__module__ == home
    assert binders(home, fn)


def test_row_generator_and_sweep_cell_are_where_the_tracer_wraps_them():
    dual = importlib.import_module("lrdual.dual")
    assert binders("lrdual.dual", dual.iter_coefficient_rows)
    assert callable(importlib.import_module("lrdual.oracle.sweep")._run_cell)


# The work functions read fields of real results: a change to what they read
# (an ``AdamWTrace`` field, the call shape of ``sgd_monte_carlo_gap``) fails here
# before it breaks a traced benchmark run.


@pytest.mark.parametrize("wd", [0.1, 0.0])
def test_train_work_reads_a_recorded_trace(wd):
    lrs = lr_curve(ScheduleSpec(kind=ScheduleKind.LINEAR, total_steps=12, peak_base_lr=0.1))
    trace = train(QuadraticProblem(dim=3), lrs, AdamWConfig(weight_decay=wd), seed=1)
    update_bytes = 0 if wd == 0 else 13 * 3 * 8
    assert TRACER_MODULE._train((), {}, trace) == [12, 12 * 3, 13 * 3 * 8 + update_bytes]


def test_trial_steps_reads_the_sweep_call_and_a_positional_call(monkeypatch):
    calls = []
    gap = sweep.sgd_monte_carlo_gap

    def recording(*args, **kwargs):
        result = gap(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(sweep, "sgd_monte_carlo_gap", recording)
    grid = SweepGrid.from_mapping({
        "schedules": [{"kind": "linear"}], "peak_lrs": [0.1], "sigma2s": [0.5],
        "steps": [20], "batches": [1], "mu": 1.0, "d0": 1.0, "warmup_frac": 0.1,
        "trials": 7,
    })
    run_noise_sweep(grid, mode="monte-carlo", seed=3)
    (args, kwargs, result), = calls
    assert TRACER_MODULE._trial_steps(args, kwargs, result) == 7 * 20
    positional = (*args, kwargs["trials"], kwargs["seed"])
    assert TRACER_MODULE._trial_steps(positional, {}, gap(*positional)) == 7 * 20
