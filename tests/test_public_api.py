"""Public surface: every name a module exports in ``__all__`` exists.

``lrdual`` resolves its names on first use, so ``hasattr`` alone would pass
for a name that resolved to the wrong object; the package is also checked
against each name's home module.
"""

import importlib
from pathlib import Path

import pytest

import lrdual


@pytest.mark.parametrize("module", ["lrdual", "lrdual.dual", "lrdual.fileio", "lrdual.oracle"])
def test_all_names_resolve(module):
    # a stale entry would make ``from module import *`` raise AttributeError
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from lrdual import *", namespace)
    assert set(lrdual.__all__) <= set(namespace)


@pytest.mark.parametrize("name", [n for n in lrdual.__all__ if n != "__version__"])
def test_name_is_its_home_module_object(name):
    value = getattr(lrdual, name)
    assert value.__name__ == name
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("lrdual.")
    assert getattr(home, name) is value


def test_dir_lists_every_name():
    assert set(lrdual.__all__) <= set(dir(lrdual))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lrdual.no_such_name


def test_version_matches_pyproject():
    # a manifest replays byte for byte under the version it records, so the
    # package and its metadata must name the same one
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert lrdual.__version__ == tomllib.load(fh)["project"]["version"]
