"""``format(x, ".17g")`` of whole float64 columns, in numpy array passes.

CPython prints 17 significant digits with the bignum path of Gay's dtoa,
one value at a time. Here a block of rows is formatted a column at a time
(after Adams, "Ryu revisited", 2019): with 10^k <= |x| < 10^(k+1),
y = |x| 10^(16-k) is computed in double-double from a table of powers of
ten built from exact integers, and rounded to the 17 digits D. A y within
1e-9 of a half-integer (an exact tie, such as an odd multiple of 1/4 near
1e15) is left to :func:`lrdual.fileio.fmt17`. No ``longdouble`` is used.

Each value gets a 40-byte field, padded with NUL bytes that are dropped
from the finished block: sign and "0.000" in one word, the digits in six
4-byte slots of three digits each (with the point, when it falls there)
and "e-308" in a last word. The arithmetic is float64 and the layout is
table lookups: integer and bitwise numpy loops, which the commands do not
otherwise run, would page in library code that stays resident.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Iterator, Sequence, Tuple

import numpy as np

from .fileio import fmt17

_FIELD = 40
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# a slot's contents, per variant, from digits c0 c1 c2: the first 0-3 of them,
# then all with the point after c0 (two or three digits shown), c1 or c2
_VARIANTS = ("", "0", "01", "012", "0.1", "0.12", "01.2", "012.")
_SPECIAL = 8000  # slots of "0", "inf" and "nan" follow the variants


def _word(text: str, at: int = 0) -> int:
    """The integer whose little-endian bytes are ``text`` from byte ``at``."""
    return int.from_bytes(text.encode("ascii"), "little") << (8 * at)


def _tables(kmin: int, kmax: int) -> SimpleNamespace:
    """Powers of ten and the layout for decimal exponents kmin..kmax, and the digit tables.

    Row k - kmin holds the scale s and 10^(16-k)/s as a double-double, from
    exact integers: s is 2^600 below k = -250 and 2^-600 above k = 250, so
    that x*s, the table and the split halves of both stay where Dekker's
    products are exact. ``edges`` are the doubles nearest 10^(kmin+1)..10^kmax.
    """
    ks = range(kmin, kmax + 1)
    scale, hi, lo = [], [], []
    for k in ks:
        shift = 600 if k < -250 else -600 if k > 250 else 0
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        num, den = (num, den << shift) if shift > 0 else (num << -shift, den)
        h = num / den  # int / int rounds correctly
        a, b = h.as_integer_ratio()
        scale.append(2.0**shift)
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    fixed = [-4 <= k <= 16 for k in ks]
    head = [_word("0." + "0" * (-k - 1) if f and k < 0 else "", 1) for k, f in zip(ks, fixed)]
    # every variant of every three digits c0 c1 c2, as the bytes of a uint32
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chars = [digits.reshape((10,) + (1,) * i) for i in (2, 1, 0)]
    slots = np.zeros((_SPECIAL + 3) * 4, dtype=np.uint8)
    variants = slots[: _SPECIAL * 4].reshape(len(_VARIANTS), 10, 10, 10, 4)
    for v, pattern in enumerate(_VARIANTS):
        for i, char in enumerate(pattern):
            variants[v, ..., i] = ord(".") if char == "." else chars[int(char)]
    slots[_SPECIAL * 4 :] = np.frombuffer(b"0\0\0\0inf\0nan\0", dtype=np.uint8)
    # a triple's digits up to its last nonzero one; -99 for 000
    v = np.arange(1000.0)
    tens = v - 100 * np.trunc(v / 100)
    units = tens - 10 * np.trunc(tens / 10)
    last = np.where(units != 0, 3.0, np.where(tens != 0, 2.0, np.where(v != 0, 1.0, -99.0)))
    # the variant of triple j at index j * 324 + shown * 18 + point, where
    # `shown` digits show and the point follows digit `point` (16, 17: none)
    i = np.arange(6 * 324.0)
    first = 3 * np.trunc(i / 324)  # the triple's first digit
    rows = np.trunc(i / 18)
    count = rows - 18 * np.trunc(rows / 18) - first  # its digits shown
    count = np.where(count > 3, 3.0, np.where(count < 0, 0.0, count))
    local = np.where(i - 18 * rows > 15, -1.0, i - 18 * rows - first)
    dot = np.where(local == 0, np.where(count == 2, 4.0, 5.0), local + 5)
    variant = np.where(local < 0, count, np.where(local > 2, count, dot))
    return SimpleNamespace(
        k=np.array(ks, dtype=np.float64), edges=np.array([float(f"1e{k}") for k in ks[1:]]),
        powers=np.stack([scale, hi, hh, hi - hh, lo], axis=1),
        slots=slots.view(np.uint32),
        last=last,
        offsets=1000 * variant.reshape(6, 324),
        # digits 0..point precede the point; at least `lead` digits show
        point=np.array([k if f and k >= 0 else 17 if f else 0 for k, f in zip(ks, fixed)], float),
        lead=np.array([k + 1 if f and k >= 0 else 1 for k, f in zip(ks, fixed)], float),
        head=np.array(head, dtype=np.uint64),
        minus_head=np.array([h + ord("-") for h in head], dtype=np.uint64),
        tail=np.array([0 if f else _word(f"e{k:+03d}") for k, f in zip(ks, fixed)], np.uint64),
    )


def _scaled(x: np.ndarray, row: np.ndarray, t: SimpleNamespace):
    """``x * 10^(16-k)`` as a double-double ``(hi, lo)``, k the exponent of table ``row``."""
    scale, hi, hh, hl, lo = np.take(t.powers, row, axis=0).T
    x = x * scale
    p = x * hi
    c = x * _SPLIT
    xh = c - (c - x)
    xl = x - xh
    err = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl
    return p, err + x * lo


def _fields(field: np.ndarray, values: np.ndarray, t: SimpleNamespace) -> None:
    """Write ``format(v, ".17g")`` of each value into its row of the uint8 ``field``."""
    w = np.abs(values)
    normal = np.where(w > 0, w, np.nan) < np.inf
    w = np.where(normal, w, 1.0)
    row = np.searchsorted(t.edges, w)
    hi, lo = _scaled(w, row, t)
    # next to a power of ten the exponent can be one off: y then lies within
    # 1e6 of 1e16 or 1e17; no double has y within 1e-6 of either without
    # being it, so the tests below are exact
    near = np.flatnonzero(np.abs(hi - 5.5e16) > 4.5e16 - 1e6)
    if near.size:
        h, l = hi[near], lo[near]
        k = t.k[row[near]] + np.where((h - 1e16) + l < -1e-6, -1.0, 0.0)
        k += np.where((h - 1e17) + l >= -1e-6, 1.0, 0.0)
        h, l = _scaled(w[near], np.searchsorted(t.k, k), t)
        # y rounding up to 1e17 is 1e16 at the next exponent
        up = (h - 1e17) + np.rint(l) >= 0
        hi[near], lo[near] = np.where(up, 1e16, h), np.where(up, 0.0, l)
        row[near] = np.searchsorted(t.k, np.where(up, k + 1, k))
    r = np.rint(lo)
    tie = np.flatnonzero(np.abs(lo - r) > 0.5 - 1e-9)
    # D = a * 1e9 + b, a in [1e7, 1e8): each product and difference is exact,
    # and trunc(g / 10^j) is floor(g / 10^j) for integers g < 2^53
    a = np.rint(hi / 1e9)
    b = (hi - a * 1e9) + r
    a = np.where(b < 0, a - 1, a)
    b = np.where(b < 0, b + 1e9, b)
    triples = np.empty((6, len(w)))  # digits 0-2, 3-5, ..., 15-16 and a 0
    triples[0] = np.trunc(a / 1e5)
    a -= triples[0] * 1e5
    triples[1] = np.trunc(a / 100)
    d8 = np.trunc(b / 1e8)
    triples[2] = (a - triples[1] * 100) * 10 + d8
    b -= d8 * 1e8
    triples[3] = np.trunc(b / 1e5)
    b -= triples[3] * 1e5
    triples[4] = np.trunc(b / 100)
    triples[5] = (b - triples[4] * 100) * 10
    keep = (t.last[triples.astype(np.intp)] + np.arange(0.0, 18.0, 3.0)[:, None]).max(axis=0)
    shown = np.maximum(keep, t.lead[row])
    point = t.point[row]
    point = np.where(keep > point + 1, point, 17.0)
    triples += np.take(t.offsets, (shown * 18 + point).astype(np.intp), axis=1)
    words = field.view(np.uint64)
    words[:, 0] = np.where(values < 0, t.minus_head[row], t.head[row])
    if np.count_nonzero(normal) < len(w):
        # 0, inf and nan were formatted as 1: their first slot names them
        special = np.flatnonzero(np.where(normal, 0.0, 1.0))
        v = values[special]
        triples[0, special] = _SPECIAL + np.where(v == 0, 0.0, np.where(np.isnan(v), 2.0, 1.0))
        minus = np.signbit(np.where(v == v, v, 0.0))  # nan prints unsigned
        words[special, 0] = np.where(minus, t.minus_head[row[special]], t.head[row[special]])
    field.view(np.uint32)[:, 2:8] = t.slots[triples.astype(np.intp)].T
    words[:, 4] = t.tail[row]
    for i in tie:
        text = fmt17(values[i]).encode("ascii")
        field[i] = np.frombuffer(text.ljust(_FIELD, b"\0"), dtype=np.uint8)


def _exponents(column: np.ndarray) -> Tuple[int, int]:
    """The decimal exponents of the smallest and largest finite nonzero magnitudes, or (0, 0)."""
    w = np.abs(column)
    smallest = np.where(w > 0, w, np.inf).min()
    largest = np.where(w < np.inf, w, 0.0).max()
    if not smallest <= largest:
        return 0, 0
    return math.floor(math.log10(smallest)), math.floor(math.log10(largest))


def blocks(columns: Sequence[np.ndarray], block_rows: int) -> Iterator[str]:
    """Rows ``index,col1,...`` of equal-length float64 columns, ``block_rows`` rows a block.

    The index counts from 1. Each block's text is yielded as it is made.
    """
    n = len(columns[0])
    starts = range(0, n, block_rows)
    # the index's exponents, then each block's; one more each way covers
    # an exponent one off
    bounds = [(0, len(str(n)) - 1)]
    bounds += [_exponents(c[start : start + block_rows]) for c in columns for start in starts]
    lowest, highest = min(lo for lo, _ in bounds), max(hi for _, hi in bounds)
    t = _tables(max(lowest - 1, -324), min(highest + 1, 308))
    for start in starts:
        fields = [column[start : start + block_rows] for column in columns]
        rows = len(fields[0])
        fields.insert(0, np.arange(start + 1.0, start + 1.0 + rows))
        text = bytearray(rows * len(fields) * _FIELD)
        chars = np.frombuffer(text, dtype=np.uint8).reshape(rows, -1)
        for j, values in enumerate(fields):
            _fields(chars[:, j * _FIELD : (j + 1) * _FIELD], values, t)
        # each field ends in NUL bytes: the separator goes in the last
        chars[:, _FIELD - 1 :: _FIELD] = ord(",")
        chars[:, -1] = ord("\n")
        yield text.translate(None, b"\0").decode("ascii")
