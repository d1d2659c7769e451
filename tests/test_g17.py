"""The numpy table formatter: bit for bit ``format(x, ".17g")``, and the premises it rests on."""

import ast
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdual import _g17
from lrdual.fileio import columns_text, fmt17

from helpers import SRC, assert_same_lines, reference_columns_text


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, len(values), 2**17):  # a slice at a time bounds the texts' memory
        part = values[start : start + 2**17]
        assert_same_lines("".join(columns_text("i,x", part)), reference_columns_text("i,x", part))


def edge_families(rng):
    """Every binade, subnormals, 10^k and its neighbours, exact ties, 2^k,
    integers up to 1e17, signed zeros, infinities and nan."""
    binades = np.ldexp(rng.uniform(0.5, 1.0, 2098 * 64), np.repeat(np.arange(-1073, 1025), 64))
    subnormals = rng.integers(1, 2**52, 50_000).astype(np.float64) * 5e-324
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_powers = [powers, powers * 0.99999999999999995]
    for towards in (0.0, np.inf):
        x = powers
        for _ in range(3):
            x = np.nextafter(x, towards)
            near_powers.append(x)
    # the exact ties: odd m / 2^j whose 18 significant digits end in 5;
    # for j = 24 and 25 the power of ten the formatter needs is inexact
    ties = []
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j) | 1, min((10**18 - 1) // 5**j, 2**53 - 1)
        ties += [m / 2**j for m in range(low, min(high, low + 2000) + 1, 2)]
        ties += [m / 2**j for m in range(high - (1 - high % 2), max(low, high - 2000) - 1, -2)]
    quarters = (np.arange(4 * 10**15, 4 * 10**15 + 40_000, 2) + 1).astype(np.float64) / 4
    integers = np.concatenate([
        np.arange(20_000.0),
        rng.integers(0, 10**17, 50_000).astype(np.float64),
        10.0 ** np.arange(18) - 1,
        10.0 ** np.arange(18) + 1,
    ])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate(
        [binades, subnormals, *near_powers, np.array(ties), quarters, integers, specials, pow2]
    )


def test_a_million_random_doubles_and_every_edge_family_match_python():
    rng = np.random.default_rng(20)
    edges = edge_families(rng)
    assert_formats_like_python(np.concatenate([edges, -edges]))
    assert_formats_like_python(rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40))
def test_raw_bit_patterns_match_python(bits):
    assert_formats_like_python(np.array(bits, dtype=np.uint64).view(np.float64))


def test_only_near_ties_fall_back_to_fmt17(monkeypatch):
    # exact ties take fmt17, whatever rounding the array pass would give;
    # values far from a tie never do
    calls = []
    monkeypatch.setattr(_g17, "fmt17", lambda x: calls.append(x) or fmt17(x))
    ties = [m / 2**24 for m in range(3, 16, 2)] + [1 / 2**25, 3 / 2**25, 1e15 + 0.25, 1e15 + 0.75]
    assert_formats_like_python(ties)
    assert calls == ties
    calls.clear()
    assert_formats_like_python(np.random.default_rng(21).random(10_000) * 1e-3)
    assert calls == []


def test_no_double_sits_within_1e_22_of_a_power_of_ten():
    # the formatter takes y = x 10^(16-k) within 1e-6 of 1e16 or 1e17 as
    # equal to it; that is exact only if no double x != 10^j lies within a
    # relative 1e-22 of 10^j, checked here in integers
    for j in range(-323, 309):
        p, q = (10**j, 1) if j >= 0 else (1, 10**-j)
        nearest = float(f"1e{j}")
        for x in (math.nextafter(nearest, 0.0), nearest, math.nextafter(nearest, math.inf)):
            a, b = x.as_integer_ratio()
            gap = abs(a * q - p * b)
            assert gap == 0 or gap * 10**22 > p * b, (j, x)


def module_tree(name):
    return ast.parse((SRC / "lrdual" / name).read_text())


def test_the_formatter_uses_no_longdouble():
    names = [
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(module_tree("_g17.py"))
        if isinstance(node, (ast.Attribute, ast.Name))
    ]
    assert "longdouble" not in names


def test_fmt17_holds_the_only_17_digit_format_in_src():
    # table floats go through the numpy formatter; fmt17 serves JSON,
    # sweep.csv and the formatter's near-tie fallback
    found = []
    for path in sorted((SRC / "lrdual").rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node)
        }
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and "17g" in str(node.value)
                and id(node) not in docstrings
            ):
                home = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, home[-1] if home else None))
    assert found == [("fileio.py", "fmt17")]
