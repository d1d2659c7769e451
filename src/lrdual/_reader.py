"""The one reader of input files behind :mod:`lrdual.fileio`'s readers.

It is imported on first use, so a command that reads no file does not
compile it at start (every command compiles ``src/`` when no bytecode is
cached, and that sets part of its peak memory).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .fileio import _BLOCK_ROWS


def _content_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of ``fh``, stripped, that are neither blank nor ``#`` comments."""
    return (s for s in map(str.strip, fh) if s and not s.startswith("#"))


def _fault(path: Path, index: int, message: object) -> NoReturn:
    """Raise ``path:line: message`` for content line ``index`` (from 0), found by reading again."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        numbers = (n for n, raw in enumerate(fh, start=1) if any(_content_lines([raw])))
        line = next(itertools.islice(numbers, index, None))
    raise ValidationError(f"{path}:{line}: {message}")


def _parse(path: Path, index: int, lines: List[str], types: Sequence[type]) -> List[np.ndarray]:
    """One array per column of ``lines``, content lines ``index`` on; a fault names its line."""
    try:
        columns = list(zip(*[line.split(",") for line in lines], strict=True))
        if len(columns) != len(types):
            count = f"{len(types)} field" + "s" * (len(types) > 1)
            raise ValueError(f"expected {count}, got {len(columns)}")
        return [np.fromiter(map(t, c), t, len(c)) for t, c in zip(types, columns)]
    except (ValueError, OverflowError) as exc:
        if len(lines) > 1:  # the block's first line at fault raises
            for k, line in enumerate(lines):
                _parse(path, index + k, [line], types)
        _fault(path, index, exc)


def read_table(
    path: Path, types: Sequence[type], header: Optional[str] = None, required: bool = False,
    faults: Callable[..., Iterable[Tuple[np.ndarray, str]]] = lambda *columns: (),
) -> List[np.ndarray]:
    """The int or float columns of a UTF-8 comma-separated file, ``_BLOCK_ROWS`` lines at a time.

    A leading byte-order mark (spreadsheet programs write one), blank and ``#`` lines are
    skipped; the first content line is the header if its fields, stripped and lowercased, are
    ``header``'s (a ``required`` one must be). ``faults(*columns)`` gives ``(mask, message)``
    pairs marking the rows that break the caller's rules. Every fault, those rows included,
    raises one ``path:line: ...`` :class:`ValidationError`, the line found by reading the file
    again; no data rows or bad UTF-8 name only the path.
    """
    columns: List[List[np.ndarray]] = [[] for _ in types]
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = _content_lines(fh)
            first = next(lines, "")
            named = ",".join(f.strip() for f in first.lower().split(",")) == header
            if first and not named:
                if required:
                    _fault(path, 0, f"expected the header {header!r}")
                lines = itertools.chain([first], lines)
            while block := list(itertools.islice(lines, _BLOCK_ROWS)):
                start = named + _BLOCK_ROWS * len(columns[0])  # the block's first content line
                for k, part in enumerate(_parse(path, start, block, types)):
                    columns[k].append(part)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    if not columns[0]:
        raise ValidationError(f"{path}: no data rows")
    # each column's blocks are joined and dropped in turn: one extra column at a time
    table = [np.concatenate(columns.pop(0)) for _ in types]
    found = [(np.argmax(bad), message) for bad, message in faults(*table) if bad.any()]
    if found:
        row, message = min(found)
        _fault(path, named + row, message)
    return table
