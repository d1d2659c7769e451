"""Serialization: 17-digit round trips, CSV/JSON/SVG structure, one file writer."""

import ast
import re
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdual
from lrdual import (
    DomainError,
    SmoothingSequence,
    ValidationError,
    coefficients_at,
    fileio,
    iter_coefficient_rows,
    lr_curve,
)
from lrdual.dual import DualCoefficients
from lrdual.fileio import (
    columns_text,
    float_json_text,
    fmt17,
    json_text,
    read_coefficient_matrix,
    read_multipliers,
    read_points,
    read_target_profile,
    svg_line_plot,
    write_coefficient_matrix_csv,
    write_coefficients_csv,
    write_schedule_csv,
    write_text_file,
)

from helpers import (
    assert_same_lines,
    edge_alphas,
    reference_columns_text,
    reference_log_tables,
    specs,
)


class TestFmt17:
    def test_round_trips_doubles(self):
        rng = np.random.default_rng(0)
        values = list(10.0 ** rng.uniform(-300, 300, 200) * rng.choice([-1, 1], 200))
        values += [0.0, 1.0, 2e-3, 5e-324, 1.7976931348623157e308]
        for v in values:
            assert float(fmt17(v)) == v

    def test_infinity(self):
        assert fmt17(float("-inf")) == "-inf"
        assert float(fmt17(float("-inf"))) == float("-inf")


class TestFloatJson:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_names_its_field(self, value):
        with pytest.raises(DomainError, match=f"^b is {value!r}; JSON cannot hold it$"):
            float_json_text({"a": 1.0, "b": value})


class TestJsonText:
    def test_non_finite_float_anywhere_is_its_repr(self):
        document = {"b": (1.5, float("nan"), {"d": -np.inf}), "a": np.inf, "c": None}
        assert json_text(document) == (
            '{\n  "a": "inf",\n  "b": [\n    1.5,\n    "nan",\n    {\n'
            '      "d": "-inf"\n    }\n  ],\n  "c": null\n}\n'
        )


def _opens_for_writing(call):
    """Whether ``call`` is an ``open`` whose mode is not a constant read-only one."""
    if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))


def _writing_functions(node, function=None):
    """The innermost enclosing function of each ``open`` for writing under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _writing_functions(child, child.name)
            continue
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            yield function
        yield from _writing_functions(child, function)


def test_write_text_file_is_the_one_file_writer():
    # one function fixes the encoding and newlines of every file lrdual writes
    src = Path(lrdual.__file__).parent
    writers = {
        (str(path.relative_to(src)), function)
        for path in sorted(src.rglob("*.py"))
        for function in _writing_functions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writers == {("fileio.py", "write_text_file")}


class TestScheduleCsv:
    def test_write_and_reparse(self, tmp_path):
        path = tmp_path / "schedule.csv"
        lrs = np.array([0.1, 0.2, 0.05])
        alphas = lrs * 0.1
        write_schedule_csv(path, lrs, alphas)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,lr,alpha"
        assert len(lines) == 4
        for idx, line in enumerate(lines[1:]):
            step, lr, alpha = line.split(",")
            assert int(step) == idx + 1
            assert float(lr) == lrs[idx]
            assert float(alpha) == alphas[idx]


B = fileio._BLOCK_ROWS


def awkward_values(n: int, seed: int) -> np.ndarray:
    """``n`` seeded doubles: raw bit patterns with zeros, infinities, nan,
    powers of ten, exact ties and integers mixed in."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64).copy()
    picks = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e23, 1e-5, 2.0**-25,
             1e15 + 0.25, 12345.0, 0.1, 1e16, 1e17, -3.5]
    mixed = rng.random(n) < 0.3
    values[mixed] = rng.choice(picks, int(mixed.sum()))
    return values


class TestColumnsText:
    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("ncols", [1, 2, 3, 4])
    def test_matches_the_per_row_reference(self, rows, ncols):
        columns = [awkward_values(rows, seed=10 * rows + j) for j in range(ncols)]
        header = ",".join(["i"] + [f"c{j}" for j in range(ncols)])
        got = "".join(columns_text(header, *columns))
        assert_same_lines(got, reference_columns_text(header, *columns))

    def test_index_and_blocks(self):
        # each block holds B rows; the index counts on across blocks
        blocks = list(columns_text("t,a", np.zeros(2 * B + 1)))
        assert [block.count("\n") for block in blocks] == [1, B, B, 1]
        assert blocks[-1] == f"{2 * B + 1},0\n"

    def test_lists_and_integer_columns_are_read_as_doubles(self):
        assert "".join(columns_text("t,a", [1, 2.5])) == "t,a\n1,1\n2,2.5\n"

    def test_header_only_without_rows(self):
        assert "".join(columns_text("t,a", np.array([]))) == "t,a\n"

    def test_no_columns_is_refused(self):
        with pytest.raises(ValidationError, match=r"^table 'h' has no columns$"):
            list(columns_text("h"))

    def test_unequal_lengths_are_refused(self):
        shapes = r"got shapes \[\(3,\), \(1,\)\]$"
        with pytest.raises(ValidationError, match=r"^table 'h,a,b' needs .*" + shapes):
            list(columns_text("h,a,b", [1.0, 2.0, 3.0], [4.0]))

    def test_a_two_dimensional_column_is_refused(self):
        with pytest.raises(ValidationError, match=r"^table 'h,a' needs 1-D columns .*\(2, 2\)\]$"):
            list(columns_text("h,a", [[1.0, 2.0], [3.0, 4.0]]))

    def test_a_scalar_column_is_refused(self):
        with pytest.raises(ValidationError, match=r"got shapes \[\(\)\]$"):
            list(columns_text("h,a", 1.0))


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamedMemory:
    """Tables are written without holding the whole file."""

    def test_coefficients_csv_of_2e5_rows(self, tmp_path):
        n = 200_000
        log_c = np.log(np.random.default_rng(2).random(n)) - np.log(n)
        coeffs = DualCoefficients(t=n, log_c=log_c)
        coeffs.c  # materialized before tracing: only the writer is measured
        path = tmp_path / "coefficients.csv"
        assert traced_peak(write_coefficients_csv, path, coeffs) < 10e6


MATRIX_HEADER = (
    "# log c_{t,i} = float64(P_t - P_i) + log_alpha_i for i from the last reset "
    "(the last log_alpha == 0 at or before t), -inf before it; "
    "P = prefix_hi + prefix_lo in extended precision\n"
    "i,log_alpha,prefix_hi,prefix_lo\n"
)


def assert_round_trip(path, seq):
    """``path`` reads back every row of ``seq`` bit for bit, sign of zero included."""
    rows = read_coefficient_matrix(path)
    for t, (got, want) in enumerate(zip(rows, iter_coefficient_rows(seq), strict=True), 1):
        assert got.tobytes() == want.tobytes(), t


class TestCoefficientsCsv:
    def test_zero_coefficient_serializes(self, tmp_path):
        coeffs = coefficients_at(SmoothingSequence(np.array([1.0, 0.0, 0.5])))
        path = tmp_path / "coefficients.csv"
        write_coefficients_csv(path, coeffs)
        rows = path.read_text().splitlines()
        assert rows[0] == "i,c,log_c"
        i, c, log_c = rows[2].split(",")
        assert (i, float(c), float(log_c)) == ("2", 0.0, float("-inf"))

    def test_matrix_bytes_match_per_element_reference(self, tmp_path):
        # exact resets (alpha = 1), alpha = 0 inputs and flushed tails
        alphas = np.concatenate([[1.0], np.full(150, 0.999), [0.0, 0.0, 1.0, 0.3, 0.0, 1.0]])
        alphas = np.concatenate([alphas, np.random.default_rng(5).uniform(0.0, 1.0, 40)])
        seq = SmoothingSequence(alphas)
        path = tmp_path / "matrix.csv"
        write_coefficient_matrix_csv(path, seq)
        log_alpha, prefix, _ = reference_log_tables(alphas)
        expected = [MATRIX_HEADER]
        for i, (a, p) in enumerate(zip(log_alpha, prefix), start=1):
            hi = float(p)
            lo = float(p - np.longdouble(hi))
            expected.append(f"{i},{fmt17(a)},{fmt17(hi)},{fmt17(lo)}\n")
        text = path.read_text()
        assert text == "".join(expected)
        assert "\n152,-inf," in text  # alpha = 0 input
        assert "\n154,0," in text  # exact reset
        assert len(text.splitlines()) == 2 + len(alphas)


class TestCoefficientMatrix:
    """``coefficient_matrix.csv`` holds the table's O(n) generators, and reads back whole."""

    def test_round_trip_keeps_flushed_tails(self, tmp_path):
        # log(1 - 0.999) ~ -6.9, so inputs 108 or more steps back fall below -745;
        # they are no longer dropped, and read back as the rows hold them
        seq = SmoothingSequence(np.concatenate([[1.0], np.full(300, 0.999)]))
        path = tmp_path / "matrix.csv"
        write_coefficient_matrix_csv(path, seq)
        *_, last = read_coefficient_matrix(path)
        assert len(last) == 301 and last[0] < -745.0
        assert_round_trip(path, seq)

    @pytest.mark.parametrize("variant", ["mixed", "last_reset", "leading_zeros"])
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 66, 129, 4097])
    def test_reader_is_bit_for_bit_the_row_generator(self, tmp_path, n, variant):
        seq = SmoothingSequence(edge_alphas(n, seed=n, variant=variant))
        path = tmp_path / "matrix.csv"
        write_coefficient_matrix_csv(path, seq)
        assert_round_trip(path, seq)

    @settings(max_examples=60, deadline=None)
    @given(spec=specs(), share=st.floats(min_value=0.0, max_value=1.0))
    def test_reader_round_trips_random_schedules(self, spec, share):
        # weight decays from 0 up to the one that puts the peak alpha at 1
        seq = SmoothingSequence.from_lrs(lr_curve(spec), share / spec.peak_lr)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "matrix.csv"
            write_coefficient_matrix_csv(path, seq)
            assert_round_trip(path, seq)

    GOOD = "i,log_alpha,prefix_hi,prefix_lo\n1,0,0,0\n2,-1,-0.5,1e-20\n"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("t,i,log_c\n1,1,0\n", 1),  # the old triplet format
            ("# note\ni,log_alpha,prefix_hi\n1,0,0\n", 2),
            (GOOD + "4,-1,-1,0\n", 4),  # i skips 3
            (GOOD + "2,-1,-1,0\n", 4),  # i repeats
            (GOOD + "3,-1,-1\n", 4),  # a field missing
            (GOOD + "3.0,-1,-1,0\n", 4),
            (GOOD + "3,x,-1,0\n", 4),
            (GOOD + "3,nan,-1,0\n", 4),
            (GOOD + "3,-1,nan,0\n", 4),
            (GOOD + "3,-1,-1,nan\n", 4),
            (GOOD + "3,0.5,-1,0\n", 4),  # a positive log_alpha
            (GOOD + "3,inf,-1,0\n", 4),
            (GOOD + "3,-1,-inf,0\n", 4),  # a non-finite prefix
            (GOOD + "3,-1,-1,inf\n", 4),
            (GOOD + "9223372036854775808,-1,-1,0\n", 4),  # i past int64
            ("i,log_alpha,prefix_hi,prefix_lo\n1,-0.5,0,0\n", 2),  # log_alpha_1 != 0
            ("i,log_alpha,prefix_hi,prefix_lo\n2,0,0,0\n", 2),  # i starts past 1
        ],
    )
    def test_malformed_file_is_one_validation_error_at_its_line(self, tmp_path, text, line):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:{line}: "):
            read_coefficient_matrix(path)

    @pytest.mark.parametrize("text", ["", "# only a note\n", "i,log_alpha,prefix_hi,prefix_lo\n"])
    def test_file_without_rows_is_refused(self, tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: no data rows$"):
            read_coefficient_matrix(path)

    def test_good_file_reads(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(self.GOOD)
        rows = [r.tolist() for r in read_coefficient_matrix(path)]
        assert rows == [[0.0], [-0.5, -1.0]]


class TestReaders:
    def test_profile_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("i,c\n3,0.5\n1,0.25\n2,0.25\n")
        profile = read_target_profile(path)
        assert profile.weights.tolist() == [0.25, 0.25, 0.5]

    def test_profile_requires_contiguous_indices(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("i,c\n1,0.5\n3,0.5\n")
        with pytest.raises(ValidationError):
            read_target_profile(path)

    def test_points(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,y\n1,4\n4,2\n")
        points = read_points(path)
        assert points.dtype == np.float64 and points.tolist() == [[1.0, 4.0], [4.0, 2.0]]

    def test_points_malformed(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x,y\n1,spam\n")
        with pytest.raises(ValidationError):
            read_points(path)

    def test_multipliers(self, tmp_path):
        path = tmp_path / "mult.txt"
        path.write_text("# comment\n1.0\n0.5\n\n0.25\n")
        assert read_multipliers(path).tolist() == [1.0, 0.5, 0.25]


class TestProfileReader:
    @pytest.mark.parametrize("header", ["", "i,c\n", "I , C\n"])
    def test_unordered_rows(self, tmp_path, header):
        path = tmp_path / "profile.csv"
        path.write_text(header + "2,0.125\n4,0.5\n1,0.25\n3,0.125\n")
        assert read_target_profile(path).weights.tolist() == [0.25, 0.125, 0.125, 0.5]

    def test_comments_blank_lines_and_spaces(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("# a target\n\ni,c\n  # indented comment\n 2 , 0.75 \n\n1,0.25\n")
        assert read_target_profile(path).weights.tolist() == [0.25, 0.75]

    def test_many_rows_keep_their_values(self, tmp_path):
        weights = np.random.default_rng(3).random(5000)
        weights /= weights.sum()
        order = np.random.default_rng(4).permutation(5000)
        path = tmp_path / "profile.csv"
        path.write_text("".join(f"{k + 1},{fmt17(weights[k])}\n" for k in order))
        assert np.array_equal(read_target_profile(path).weights, weights)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("i,c\n1,0.5\n2,0.25,9\n3,0.25\n", "profile.csv:3: expected 2 fields, got 3"),
            ("1,0.5\n\n# c\n2\n", "profile.csv:4: expected 2 fields, got 1"),
            ("i,c\n1,0.5\n2,spam\n", "profile.csv:3: could not convert string to float: 'spam'"),
            ("i,c\n1,0.5\nx,0.5\n", "profile.csv:3: invalid literal for int()"),
            ("i,c\n1,0.5\n1.0,0.5\n", "profile.csv:3: invalid literal for int()"),
            ("i,c\n1,0.5\n1,0.5\n", "profile.csv:2: profile indices must be 1..2 once each"),
            ("i,c\n1,0.5\n3,0.5\n", "profile.csv:3: profile indices must be 1..2 once each"),
            ("2,0.5\n3,0.5\n", "profile.csv:2: profile indices must be 1..2 once each"),
            ("0,0.5\n1,0.5\n", "profile.csv:1: profile indices must be 1..2 once each"),
            ("1,0.5\n99999999999999999999999,0.5\n", "profile.csv:2: Python int too large"),
            ("-5,0.5\n9223372036854775808,0.5\n", "profile.csv:2: Python int too large"),
            ("i,c\n1,0.5\n2,nan\n", "profile.csv: weights must be finite and non-negative"),
            ("i,c\n1,0.5\n2,0.25\n", "profile.csv: weights must sum to 1"),
            ("i,weight\n1,1\n", "profile.csv:1: invalid literal for int()"),  # not the header
            ("", "profile.csv: no data rows"),
            ("# only a comment\n\n", "profile.csv: no data rows"),
            ("i,c\n", "profile.csv: no data rows"),
        ],
    )
    def test_faults_keep_their_messages(self, tmp_path, text, message):
        path = tmp_path / "profile.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / message))}"):
            read_target_profile(path)

    def test_fault_in_a_later_block_names_its_line(self, tmp_path):
        # a file of several parse blocks: the bad row sits in the third
        rows = [f"{k},0" for k in range(1, 5001)]
        rows[4500] = "4501,0,0"
        path = tmp_path / "profile.csv"
        path.write_text("# a note\ni,c\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:4503: expected 2 fields")):
            read_target_profile(path)


def read_matrix(path):
    return list(read_coefficient_matrix(path))


# Each reader with its header and one good row, split into fields.
READERS = {
    "profile": (read_target_profile, "i,c", ["1", "1"]),
    "points": (read_points, "x,y", ["1", "4"]),
    "multipliers": (read_multipliers, None, ["0.5"]),
    "matrix": (read_matrix, "i,log_alpha,prefix_hi,prefix_lo", ["1", "0", "0", "0"]),
}


@pytest.mark.parametrize("reader, header, fields", READERS.values(), ids=list(READERS))
def test_non_utf8_after_first_chunk(tmp_path, reader, header, fields):
    # text is decoded in 8 KiB chunks: the bad byte is met after earlier lines were read
    row = ",".join(fields) + "\n"
    rows = row * (9000 // len(row) + 1)
    path = tmp_path / "input.csv"
    top = f"{header}\n" if header else ""
    path.write_bytes((top + rows).encode() + b"\xff\n" + row.encode())
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        reader(path)


@pytest.mark.parametrize("reader, header, fields", READERS.values(), ids=list(READERS))
def test_byte_order_mark_is_dropped(tmp_path, reader, header, fields):
    # spreadsheet programs start UTF-8 CSV with a BOM: same rows, same line numbers
    text = (f"{header}\n" if header else "") + ",".join(fields) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert repr(reader(marked)) == repr(reader(plain))
    marked.write_text(text + "x\n", encoding="utf-8-sig")
    line = text.count("\n") + 1
    with pytest.raises(ValidationError, match=f"^{re.escape(str(marked))}:{line}: "):
        reader(marked)


def fuzz_cases(header, fields):
    """Awkward inputs for a reader whose header and one good row are given."""
    top = f"{header}\n" if header else ""
    row = ",".join(fields) + "\n"

    def row_with(k, value):
        return ",".join(fields[:k] + [value] + fields[k + 1 :]) + "\n"

    last = len(fields) - 1
    return {
        "bad utf-8 past 8 KiB": (top + row * 2000).encode() + b"\xfe\xff\n",
        "crlf": (top + row).replace("\n", "\r\n").encode(),
        "comments and blanks": f"# note\n\n  {top}\n # more\n{row}\n\n".encode(),
        "duplicate header": (top * 2 + row).encode(),
        "1e400": (top + row_with(last, "1e400")).encode(),
        "nan": (top + row_with(last, "nan")).encode(),
        "5000-digit integer": (top + row_with(0, "9" * 5000)).encode(),
        "past int64": (top + row_with(0, "9223372036854775808")).encode(),
        "trailing comma": (top + row.rstrip() + ",\n").encode(),
        "empty": b"",
        "header only": top.encode() or b"# header only\n",
    }


FUZZ = [
    pytest.param(reader, case, data, id=f"{name}-{case}")
    for name, (reader, header, fields) in READERS.items()
    for case, data in fuzz_cases(header, fields).items()
]


@pytest.mark.parametrize("reader, case, data", FUZZ)
def test_reader_returns_or_names_the_path(tmp_path, reader, case, data):
    # a result, or one ValidationError naming the path; nothing else escapes
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    try:
        reader(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


class TestSvg:
    def test_valid_xml_one_polyline_per_series(self):
        xs = np.arange(1, 21)
        svg = svg_line_plot(
            [("a", xs, xs * 0.1), ("b", xs, xs * 0.2)],
            title="two series",
            x_label="step",
            y_label="lr",
        )
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_log_axis_drops_nonpositive(self):
        xs = np.arange(1, 6)
        ys = np.array([1.0, 0.1, 0.0, 0.01, 1e-3])
        svg = svg_line_plot(
            [("c", xs, ys)], title="t", x_label="x", y_label="y", log_y=True
        )
        root = ET.fromstring(svg)
        polyline = root.findall(".//{http://www.w3.org/2000/svg}polyline")[0]
        assert len(polyline.attrib["points"].split()) == 4

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            svg_line_plot([], title="t", x_label="x", y_label="y")

    @pytest.mark.parametrize("log_y", [False, True])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_coordinate_names_its_series(self, axis, bad, log_y):
        # a log axis drops non-positive y values, but never a non-finite one
        xs, ys = np.arange(1.0, 5.0), np.array([1.0, 0.5, 0.25, 0.125])
        (xs if axis == "x" else ys)[2] = bad
        series = [("good", np.arange(1.0, 5.0), np.ones(4)), ("bad", xs, ys)]
        with pytest.raises(DomainError, match="plot series 'bad' has a non-finite coordinate"):
            svg_line_plot(series, title="t", x_label="x", y_label="y", log_y=log_y)
