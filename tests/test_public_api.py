"""Public surface: every name a module exports in ``__all__`` exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["lrdual", "lrdual.dual", "lrdual.fileio", "lrdual.oracle"])
def test_all_names_resolve(module):
    # a stale entry would make ``from module import *`` raise AttributeError
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
