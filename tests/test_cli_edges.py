"""Every float and int flag at the edges of its range: one exit code, one line, no warning.

Each float flag of ``schedule``, ``dual``, ``simulate``, ``rational`` and
``design`` is set in turn to each of ``EDGES`` on an otherwise valid command
(``schedule`` over every kind, ``dual`` and ``simulate`` over ``linear`` and
``rational``), with ``--svg`` so the plot's range rules run as well. Each int
flag is set in turn to each of ``INT_EDGES`` the same way. Whatever the
command makes of the value, it must exit 0-4, print at most one line besides
argparse's usage, and let no warning escape.

Two flags get their own sweeps: ``--wd`` outside its range exits 1 on every
command that takes it, and ``simulate`` either reconstructs its parameters
or exits 2 at every weight decay from 1 down to 0.

The huge int values are 2**63, 2**64 and 10**400, so no case allocates or
runs that long: numpy refuses 2**64 entries outright, a step count of 2**63,
which numpy's ``arange`` would wrap to an empty array, is refused by
``step_array``, and a count past the float range is refused by
``check_count``.
"""

import contextlib
import functools
import io
import json
import warnings

import pytest

from lrdual import cli
from lrdual.schedules import ScheduleKind

EDGES = ("0", "-1", "1e-310", "1e-300", "0.5", "1", "2", "1e308", "inf", "nan")

SCHEDULE_FLOATS = (
    "--warmup-frac",
    "--peak-base",
    "--rho",
    "--ratio",
    "--wd",
    "--milestone-frac",
    "--drop-frac",
    "--cooldown-frac",
)
SIMULATE_FLOATS = SCHEDULE_FLOATS + (
    "--mu",
    "--sigma2",
    "--d0",
    "--beta1",
    "--beta2",
    "--eps",
)
STEPS = 20

CASES = [
    *(("schedule", kind.value) for kind in ScheduleKind),
    *((command, kind) for command in ("dual", "simulate") for kind in ("linear", "rational")),
    ("rational", None),
    ("design", None),
]


def _base_argv(command, kind, tmp_path):
    """A valid command line for ``command`` and the float flags to vary on it."""
    if command == "rational":
        return ["rational", "--peak", "1", "--steps", str(STEPS)], ("--peak", "--wd")
    if command == "design":
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.25\n2,0.25\n3,0.5\n")
        return ["design", "--target", str(profile)], ("--wd",)
    argv = [command, "--kind", kind, "--steps", str(STEPS)]
    if kind == "cyclic":
        argv += ["--period", "4"]
    elif kind == "piecewise":
        multipliers = tmp_path / "multipliers.txt"
        # one per post-warmup step; the default warmup is a tenth of the steps
        multipliers.write_text("0.5\n" * (STEPS - STEPS // 10))
        argv += ["--multipliers", str(multipliers)]
    if command == "simulate":
        argv += ["--dim", "2"]
    return argv, SIMULATE_FLOATS if command == "simulate" else SCHEDULE_FLOATS


def _message_lines(err):
    """stderr without argparse's usage block (its first line and the indented rest)."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    return lines


def _run(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, _message_lines(err.getvalue()), [str(w.message) for w in caught]


def _edge_failures(tmp_path, monkeypatch, base, flags, values):
    """The ``(flag=value, code, lines, warnings)`` of every case that breaks the rule."""
    # Building the parser is most of an in-process call; parsing leaves it as
    # it was, so one parser serves the whole grid.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    out = ["--out", str(tmp_path / "out"), "--svg"]
    code, lines, caught = _run(base + out)
    assert (code, lines, caught) == (0, [], [])
    failures = []
    for flag in flags:
        for value in values:
            code, lines, caught = _run([*base, f"{flag}={value}", *out])
            one_line = len(lines) == (code != 0) and all(
                line.startswith("lrdual: ") for line in lines
            )
            if not (0 <= code <= 4 and one_line and not caught):
                failures.append((f"{flag}={value}", code, lines, caught))
    return failures


@pytest.mark.parametrize(
    "command, kind", CASES, ids=[f"{c}-{k}" if k else c for c, k in CASES]
)
def test_float_flag_edges(tmp_path, monkeypatch, command, kind):
    base, flags = _base_argv(command, kind, tmp_path)
    assert _edge_failures(tmp_path, monkeypatch, base, flags, EDGES) == []


INT_EDGES = ("0", "-1", "1", "2", "3", str(2**63), str(2**64), str(10**400), "1e3", "x")

# Each command with the kind whose int flags it exercises, and those flags.
INT_CASES = [
    ("schedule", "linear", ("--steps", "--warmup")),
    ("schedule", "cyclic", ("--steps", "--warmup", "--period")),
    ("dual", "linear", ("--steps", "--warmup", "--at-step")),
    ("simulate", "linear", ("--steps", "--warmup", "--dim", "--batch")),
    ("rational", None, ("--steps", "--warmup")),
]


@pytest.mark.parametrize(
    "command, kind, flags", INT_CASES, ids=[f"{c}-{k}" if k else c for c, k, _ in INT_CASES]
)
def test_int_flag_edges(tmp_path, monkeypatch, command, kind, flags):
    base, _ = _base_argv(command, kind, tmp_path)
    assert _edge_failures(tmp_path, monkeypatch, base, flags, INT_EDGES) == []


@pytest.mark.parametrize("value", ["-1", "inf", "nan", "0"])
@pytest.mark.parametrize("command", ["schedule", "dual", "simulate", "design", "rational"])
def test_weight_decay_outside_its_range_exits_1(tmp_path, command, value):
    # design and rational divide by the weight decay, so 0 is outside their range
    kind = None if command in ("design", "rational") else "linear"
    base, _ = _base_argv(command, kind, tmp_path)
    code, lines, caught = _run([*base, f"--wd={value}", "--out", str(tmp_path / "out")])
    if value == "0" and kind is not None:
        assert (code, lines, caught) == (0, [], [])
    else:
        assert (code, len(lines), caught) == (1, 1, [])
        assert lines[0].startswith("lrdual: validation error: ")
        assert "weight_decay must be a number in " in lines[0]


# 1e-0, 1e-4, ..., 1e-320, then the subnormal edge where x_t = -update / wd overflows
WD_TOWARD_ZERO = [
    *(f"1e-{k}" for k in range(0, 321, 4)),
    *("3e-308", "2e-308", "1.5e-308", "1e-308", "5e-309", "1e-310", "1e-315", "1e-320"),
    "5e-324",
    "0",
]


@pytest.mark.parametrize("noise", [[], ["--sigma2", "0.5"]], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("wd", WD_TOWARD_ZERO)
def test_weight_decay_toward_zero_reconstructs_or_exits_2(tmp_path, wd, noise):
    out = tmp_path / "out"
    argv = ["simulate", "--steps", "50", "--dim", "3", "--peak-base", "0.1", "--wd", wd]
    code, lines, caught = _run([*argv, *noise, "--out", str(out)])
    assert caught == []
    if code == 0:
        assert lines == []
        summary = json.loads((out / "summary.json").read_text())
        error = summary["reconstruction_relative_error"]
        assert error is None if float(wd) == 0 else error <= 1e-9
    else:
        assert (code, len(lines)) == (2, 1)
        assert lines[0].startswith("lrdual: domain error: ")
        assert not out.exists()
