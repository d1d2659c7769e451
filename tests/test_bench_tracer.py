"""The benchmark tracer's targets still exist where it looks for them.

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

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("lrdual_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TARGETS = [(home, attr) for home, attr, *_ in load_tracer().TARGETS]


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
