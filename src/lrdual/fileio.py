"""CSV, JSON and SVG emitters, and the input-file readers built on :mod:`lrdual._reader`.

Floats are printed with 17 significant digits so every CSV round-trips to
the exact double that produced it, and all writers are deterministic: the
same data yields byte-identical files. Tables are formatted in numpy blocks
of rows by :mod:`lrdual._g17`: exactly ``format(x, ".17g")``, from a
double-double product with exact powers of ten, with the scalar
:func:`fmt17` for the rare value within 1e-9 of a rounding tie.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import (
    TYPE_CHECKING, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union
)

import numpy as np

from .designer import TargetProfile
from .dual import (
    DualCoefficients,
    LogTables,
    SmoothingSequence,
    iter_coefficient_rows,
    log_tables,
)
from .errors import DomainError, ValidationError
from .scaling import PowerLawFit

if TYPE_CHECKING:  # commands other than sweep never load the oracle
    from .oracle.sweep import SweepCellResult

__all__ = [
    "fmt17",
    "columns_text",
    "float_json_text",
    "json_text",
    "write_text_file",
    "write_schedule_csv",
    "write_coefficients_csv",
    "write_coefficient_matrix_csv",
    "read_coefficient_matrix",
    "write_sweep_csv",
    "write_fit_json",
    "read_target_profile",
    "read_points",
    "read_multipliers",
    "svg_line_plot",
]


def fmt17(x: float) -> str:
    """Render a double with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def write_text_file(path: Path, text: Union[str, Iterable[str]]) -> None:
    """Write text, or an iterable of text chunks in order, with pinned newlines.

    Chunks are written as they are produced, so a table is never held whole;
    newlines are pinned so output bytes are platform-free.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


# Rows formatted per block: memory stays near one block's text and arrays.
_BLOCK_ROWS = 2048


def columns_text(header: str, *columns: np.ndarray) -> Iterator[str]:
    """CSV text in blocks: ``header``, then rows ``index,col1,...`` with the index from 1.

    Every value is written as ``format(x, ".17g")`` writes it, by numpy
    array passes over each block (:mod:`lrdual._g17`). Joined, the blocks are
    the whole file; pass them to :func:`write_text_file`. No columns, a
    column that is not 1-D or columns of unequal lengths raise
    :class:`ValidationError` naming the header.
    """
    arrays = [np.asarray(column, dtype=np.float64) for column in columns]
    if not arrays:
        raise ValidationError(f"table {header!r} has no columns")
    shapes = [a.shape for a in arrays]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValidationError(
            f"table {header!r} needs 1-D columns of one length, got shapes {shapes}"
        )
    from . import _g17  # compiled on first use: commands without tables skip it

    yield header + "\n"
    yield from _g17.blocks(arrays, _BLOCK_ROWS)


def float_json_text(fields: Mapping[str, Optional[float]]) -> str:
    """One-line JSON object of floats in 17 digits; None becomes ``null``.

    JSON has no inf or nan, so a non-finite value raises :class:`DomainError`
    naming its field.
    """
    for key, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{key} is {float(value)!r}; JSON cannot hold it")
    body = ", ".join(
        f'"{key}": {"null" if value is None else fmt17(value)}'
        for key, value in fields.items()
    )
    return "{" + body + "}\n"


def json_text(document: object) -> str:
    """JSON with two-space indent and sorted keys, ending in a newline.

    JSON has no inf or nan, so each non-finite float anywhere in the
    document is written as its repr string, such as ``"nan"``.
    """
    plain = json.loads(json.dumps(document), parse_constant=lambda name: repr(float(name)))
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def write_schedule_csv(path: Path, lrs: np.ndarray, alphas: np.ndarray) -> None:
    """Rows ``step,lr,alpha`` for steps 1..T."""
    write_text_file(path, columns_text("step,lr,alpha", lrs, alphas))


def write_coefficients_csv(path: Path, coeffs: DualCoefficients) -> None:
    """Rows ``i,c,log_c`` for inputs 1..t at the final step."""
    write_text_file(path, columns_text("i,c,log_c", coeffs.c, coeffs.log_c))


_MATRIX_COLUMNS = "i,log_alpha,prefix_hi,prefix_lo"
_MATRIX_HEADER = (
    "# log c_{t,i} = float64(P_t - P_i) + log_alpha_i for i from the last reset "
    "(the last log_alpha == 0 at or before t), -inf before it; "
    "P = prefix_hi + prefix_lo in extended precision\n" + _MATRIX_COLUMNS
)


def write_coefficient_matrix_csv(path: Path, alphas: SmoothingSequence) -> None:
    """The lower-triangular coefficient table as its generators, one row per input.

    Rows ``i,log_alpha,prefix_hi,prefix_lo`` hold :func:`lrdual.dual.log_tables`:
    ``prefix_hi`` is the float64 rounding of the ``longdouble`` prefix ``P_i``
    and ``prefix_lo`` the float64 of ``P_i - prefix_hi``. Their sum is ``P_i``
    exactly where ``longdouble`` is x87 80-bit or float64; where it is IEEE
    quad the pair holds 106 of its 113 bits. A leading ``#`` line states how
    to rebuild row ``t``; :func:`read_coefficient_matrix` does it.
    """
    tables = log_tables(alphas)
    hi = tables.prefix.astype(np.float64)
    lo = np.empty_like(hi)
    # the difference is taken in longdouble and rounded once into lo
    np.subtract(tables.prefix, hi, out=lo, casting="same_kind")
    write_text_file(path, columns_text(_MATRIX_HEADER, tables.log_alpha, hi, lo))


def _matrix_faults(i, log_alpha, hi, lo) -> List[Tuple[np.ndarray, str]]:
    """Masks of the rows that break each rule of a coefficient matrix file, NaN included."""
    return [
        (i != np.arange(1, len(i) + 1), "i must count 1, 2, ..."),
        (~(log_alpha <= 0.0), "log_alpha must be at most 0"),
        (log_alpha[:1] != 0.0, "log_alpha_1 must be 0"),
        (~(np.isfinite(hi) & np.isfinite(lo)), "the prefix must be finite"),
    ]


def read_coefficient_matrix(path: Path) -> Iterator[np.ndarray]:
    """The rows ``t = 1..n`` of the table a :func:`write_coefficient_matrix_csv` file generates.

    The file is read and checked whole before the first row, which is then
    bit for bit :func:`lrdual.dual.iter_coefficient_rows` of the sequence
    that wrote it (where the prefix pair is exact, see the writer); each row
    costs O(t). Every fault is a :class:`ValidationError` naming the path and line.
    """
    from ._reader import read_table  # compiled on first use: commands without inputs skip it
    log_alpha, hi, lo = read_table(  # i, once checked, is dropped
        path, (int, float, float, float), _MATRIX_COLUMNS, required=True, faults=_matrix_faults
    )[1:]
    prefix = np.add(hi, lo, dtype=np.longdouble)
    resets = np.flatnonzero(log_alpha == 0.0)
    return iter_coefficient_rows(LogTables(log_alpha, prefix, resets))


_SWEEP_COLUMNS = (
    "schedule,peak_lr,decay_ratio,sigma2,batch,steps,"
    "gap_analytic,gap_mc_mean,gap_mc_stderr,stable,schedule_index"
)


def write_sweep_csv(path: Path, results: Sequence[SweepCellResult]) -> None:
    lines = [_SWEEP_COLUMNS]
    for r in results:
        gaps = [
            "" if v is None else fmt17(v)
            for v in (r.gap_analytic, r.gap_mc_mean, r.gap_mc_stderr)
        ]
        lines.append(
            f"{r.schedule},{fmt17(r.peak_lr)},{fmt17(r.decay_ratio)},"
            f"{fmt17(r.sigma2)},{r.batch},{r.steps},"
            f"{gaps[0]},{gaps[1]},{gaps[2]},{str(r.stable).lower()},{r.schedule_index}"
        )
    write_text_file(path, "\n".join(lines) + "\n")


def write_fit_json(path: Path, fit: PowerLawFit) -> None:
    write_text_file(
        path,
        float_json_text({"c": fit.coefficient, "m": fit.exponent, "r_squared": fit.r_squared}),
    )


def _index_faults(index: np.ndarray, _weights) -> List[Tuple[np.ndarray, str]]:
    """The rows whose index is outside 1..n or shared with another row."""
    n = len(index)
    inside = index.clip(0, n + 1)
    shared = (np.bincount(inside) > 1)[inside]
    return [(shared | (index < 1) | (index > n), f"profile indices must be 1..{n} once each")]


def read_target_profile(path: Path) -> TargetProfile:
    """Read an ``i,c`` CSV into a target profile (rows sorted by index)."""
    from ._reader import read_table
    index, weights = read_table(path, (int, float), "i,c", faults=_index_faults)
    try:
        return TargetProfile(weights[np.argsort(index)])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def read_points(path: Path) -> np.ndarray:
    """Read an ``x,y`` CSV into an ``(n, 2)`` array of points."""
    from ._reader import read_table
    return np.column_stack(read_table(path, (float, float), "x,y"))


def read_multipliers(path: Path) -> np.ndarray:
    """Read one multiplier per line (used by the piecewise schedule kind)."""
    from ._reader import read_table
    return read_table(path, (float,))[0]


# -- SVG ----------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 32, 48
_LOG_FLOOR = 1e-300


def svg_line_plot(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Minimal static line plot: one polyline per series.

    With ``log_y`` the y axis is log10; non-positive y values cannot be
    drawn on it and are dropped from their polyline. A non-finite x or y
    raises :class:`DomainError` naming its series.
    """
    if not series:
        raise ValidationError("svg_line_plot needs at least one series")
    xs_all, ys_all = [], []
    cleaned = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError(f"plot series {name!r} has a non-finite coordinate")
        if log_y:
            keep = ys > 0
            xs, ys = xs[keep], ys[keep]
            ys = np.log10(np.maximum(ys, _LOG_FLOOR))
        cleaned.append((name, xs, ys))
        if len(xs):
            xs_all.append(xs)
            ys_all.append(ys)
    if not xs_all:
        raise ValidationError("no drawable points (log axis dropped every value)")
    x_lo = min(float(a.min()) for a in xs_all)
    x_hi = max(float(a.max()) for a in xs_all)
    y_lo = min(float(a.min()) for a in ys_all)
    y_hi = max(float(a.max()) for a in ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">'
        f'{y_label}{" (log10)" if log_y else ""}</text>',
    ]
    for k, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        px = _MARGIN_L + (xs - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_T + (1.0 - (ys - y_lo) / (y_hi - y_lo)) * plot_h
        # points formatted a block at a time hold one block's floats and strings
        pair, step = "{:.2f},{:.2f}".format, _BLOCK_ROWS
        pts = " ".join(
            " ".join(map(pair, px[i : i + step].tolist(), py[i : i + step].tolist()))
            for i in range(0, len(px), step)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T + 16 + 16 * k}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
