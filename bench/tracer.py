"""One in-process pass over a workload's commands, traced or not.

    python3 bench/tracer.py JOB.json

``JOB.json`` holds ``argvs`` (one argument list per command), ``traced``,
``pass`` (the pass number), ``result`` (where to write the pass result) and
``spans`` (where to write the raw spans). The pass imports ``lrdual.cli``
(timed as ``cli.import_s``) and calls ``lrdual.cli.main(argv)`` for each
command. When traced, each public function in :data:`TARGETS` is first
replaced, at every name another ``lrdual`` module binds it to, by a wrapper
that records a span per call; the package source is not modified. Spans are
kept in memory and written out after the pass, then reduced to the
per-layer metrics.

Self time is a span's duration minus the intervals its child spans cover.
Where leaf spans on several threads are open at the same instant (the sweep
thread pool), that instant is split evenly between them, so the self times
of all spans add up to the traced time they cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _length(args, kwargs, result):
    return len(result)


def _path(args, kwargs, result):
    return str(args[0])


def _train(args, kwargs, trace):
    updates = 0 if trace.updates is None else trace.updates.nbytes
    return [trace.steps, trace.thetas[1:].size, trace.thetas.nbytes + updates]


def _trial_steps(args, kwargs, result):
    trials = kwargs["trials"] if "trials" in kwargs else args[4]
    return trials * len(args[0])


# (defining module, function, span name, work done per call, adopts pool spans)
TARGETS = (
    ("lrdual.schedules", "lr_curve", "schedules.lr_curve", _length, False),
    ("lrdual.schedules", "alpha_curve", "schedules.alpha_curve", _length, False),
    ("lrdual.dual", "coefficients_at", "dual.coefficients_at",
     lambda a, k, r: r.t, False),
    ("lrdual.designer", "schedule_from_coefficients", "designer.schedule_from_coefficients",
     lambda a, k, r: len(r.alphas), False),
    ("lrdual.designer", "rational_schedule", "designer.rational_schedule", _length, False),
    ("lrdual.fileio", "write_coefficient_matrix_csv", "fileio.write_coefficient_matrix_csv",
     _path, False),
    ("lrdual.fileio", "write_coefficients_csv", "fileio.write_coefficients_csv", _path, False),
    ("lrdual.fileio", "write_schedule_csv", "fileio.write_schedule_csv", _path, False),
    ("lrdual.fileio", "write_sweep_csv", "fileio.write_sweep_csv", _path, False),
    ("lrdual.fileio", "write_text_file", "fileio.write_text_file", _path, False),
    ("lrdual.fileio", "write_fit_json", "fileio.write_fit_json", _path, False),
    ("lrdual.fileio", "svg_line_plot", "fileio.svg_line_plot", None, False),
    ("lrdual.fileio", "read_target_profile", "fileio.read_target_profile", None, False),
    ("lrdual.fileio", "read_points", "fileio.read_points", None, False),
    ("lrdual.oracle.adamw", "train", "oracle.adamw.train", _train, False),
    ("lrdual.oracle.adamw", "reconstruct_from_updates", "oracle.adamw.reconstruct", None, False),
    ("lrdual.oracle.quadratic", "sgd_quadratic_expected_gap", "oracle.quadratic.analytic_gap",
     None, False),
    ("lrdual.oracle.quadratic", "sgd_monte_carlo_gap", "oracle.quadratic.mc_gap",
     _trial_steps, False),
    ("lrdual.oracle.sweep", "run_noise_sweep", "oracle.sweep.run", None, True),
    ("lrdual.oracle.rng", "normal_field", "oracle.rng.normal_field", _length, False),
    ("lrdual.scaling", "fit_power_law", "scaling.fit_power_law", None, False),
)

# Per-layer metrics and their units, in report order.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "schedules.lr_curve_s": "s",
    "schedules.alpha_curve_s": "s",
    "schedules.steps": "count",
    "dual.coefficients_at_s": "s",
    "dual.coefficients_at_inputs": "count",
    "dual.rows_s": "s",
    "dual.rows": "count",
    "dual.entries": "count",
    "designer.schedule_from_coefficients_s": "s",
    "designer.rational_schedule_s": "s",
    "designer.inputs": "count",
    "fileio.write_coefficient_matrix_csv_s": "s",
    "fileio.write_coefficients_csv_s": "s",
    "fileio.write_schedule_csv_s": "s",
    "fileio.write_sweep_csv_s": "s",
    "fileio.write_text_file_s": "s",
    "fileio.svg_line_plot_s": "s",
    "fileio.read_target_profile_s": "s",
    "fileio.read_points_s": "s",
    "fileio.bytes_written": "bytes",
    "fileio.rows_written": "count",
    "oracle.adamw.train_self_s": "s",
    "oracle.adamw.reconstruct_s": "s",
    "oracle.adamw.steps": "count",
    "oracle.adamw.coord_steps": "count",
    "oracle.adamw.trace_mb_computed": "MB",
    "oracle.quadratic.mc_gap_self_s": "s",
    "oracle.quadratic.analytic_gap_s": "s",
    "oracle.quadratic.trial_steps": "count",
    "oracle.sweep.run_self_s": "s",
    "oracle.sweep.cells": "count",
    "oracle.sweep.cell_p50_s": "s",
    "oracle.sweep.overlap": "ratio",
    "oracle.rng.normal_field_s": "s",
    "oracle.rng.calls": "count",
    "oracle.rng.draws": "count",
    "scaling.fit_power_law_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}


class Recorder:
    """Collects spans ``(id, close_seq, name, start, end, parent, thread, work)``.

    Open and close events draw from one counter, so sorting them by it
    replays the nesting order across threads. A span opened on a thread
    with nothing open (a pool worker) is parented to ``adopter``, the span
    that handed the work to the pool.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.adopter = None
        self._seq = itertools.count()
        self._local = threading.local()

    def call(self, name, fn, args, kwargs, work=None, adopt=False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.adopter
        sid = next(self._seq)
        stack.append(sid)
        if adopt:
            outer, self.adopter = self.adopter, sid
        end = amount = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = perf_counter()
            if work is not None:
                amount = work(args, kwargs, result)
            return result
        finally:
            if end is None:
                end = perf_counter()
            if adopt:
                self.adopter = outer
            stack.pop()
            self.spans.append(
                (sid, next(self._seq), name, start, end, parent, threading.get_ident(), amount)
            )

    def wrap(self, name, fn, work=None, adopt=False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work, adopt)

        return wrapper


class _TracedRows:
    """Times each ``next()`` of a row generator as a ``dual.rows`` span, a
    child of whichever span consumes the rows (the matrix writer)."""

    def __init__(self, rec: Recorder, rows) -> None:
        self._rec = rec
        self._rows = rows

    def __iter__(self):
        return self

    def __next__(self):
        return self._rec.call("dual.rows", next, (self._rows,), {}, _length)


def install(rec: Recorder) -> None:
    """Wrap every target at each name another ``lrdual`` module binds it to."""
    for home, *_ in TARGETS:
        importlib.import_module(home)
    modules = [m for n, m in sys.modules.items() if n == "lrdual" or n.startswith("lrdual.")]

    def rebind(home: str, fn, wrapper) -> None:
        bound = 0
        for mod in modules:
            if mod.__name__ == home:
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{home}.{fn.__name__} is bound by no consuming module")

    for home, attr, name, work, adopt in TARGETS:
        fn = getattr(sys.modules[home], attr)
        rebind(home, fn, rec.wrap(name, fn, work, adopt))

    rows = sys.modules["lrdual.dual"].iter_coefficient_rows
    rebind("lrdual.dual", rows, lambda *a, **k: _TracedRows(rec, rows(*a, **k)))
    # The sweep calls its per-cell function from its own module.
    sweep = sys.modules["lrdual.oracle.sweep"]
    sweep._run_cell = rec.wrap("oracle.sweep.cell", sweep._run_cell)


def self_times(spans) -> dict:
    """Self time of every span id; concurrent leaf spans share each instant."""
    events = []
    parent_of = {}
    for sid, close_seq, _, start, end, parent, _, _ in spans:
        events.append((sid, start, sid, True))
        events.append((close_seq, end, sid, False))
        parent_of[sid] = parent
    events.sort()
    open_children: Counter = Counter()
    is_open, leaves = set(), set()
    own = defaultdict(float)
    last = None
    for _, t, sid, opening in events:
        if last is not None and t > last and leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t if last is None else max(last, t)
        parent = parent_of[sid]
        if opening:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                leaves.discard(parent)
                open_children[parent] += 1
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open and open_children[parent] > 0:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def _count_lines(path: str) -> int:
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines


def layer_metrics(spans, import_s: float, wall_s: float) -> dict:
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def self_s(*names):
        return sum(own[s[0]] for n in names for s in by_name[n])

    def work(name, pick=lambda w: w):
        return sum(pick(s[7]) for s in by_name[name] if s[7] is not None)

    written = {s[7] for n in by_name if n.startswith("fileio.write_") for s in by_name[n]}
    written.discard(None)
    cells = [s[4] - s[3] for s in by_name["oracle.sweep.cell"]]
    sweeps = sum(s[4] - s[3] for s in by_name["oracle.sweep.run"])
    m = {
        "cli.import_s": import_s,
        "cli.self_s": self_s("cli.main"),
        "cli.calls": len(by_name["cli.main"]),
        "schedules.lr_curve_s": self_s("schedules.lr_curve"),
        "schedules.alpha_curve_s": self_s("schedules.alpha_curve"),
        "schedules.steps": work("schedules.lr_curve") + work("schedules.alpha_curve"),
        "dual.coefficients_at_s": self_s("dual.coefficients_at"),
        "dual.coefficients_at_inputs": work("dual.coefficients_at"),
        "dual.rows_s": self_s("dual.rows"),
        "dual.rows": sum(1 for s in by_name["dual.rows"] if s[7] is not None),
        "dual.entries": work("dual.rows"),
        "designer.schedule_from_coefficients_s": self_s("designer.schedule_from_coefficients"),
        "designer.rational_schedule_s": self_s("designer.rational_schedule"),
        "designer.inputs": work("designer.schedule_from_coefficients")
        + work("designer.rational_schedule"),
    }
    for fn in ("write_coefficient_matrix_csv", "write_coefficients_csv", "write_schedule_csv",
               "write_sweep_csv", "write_text_file", "svg_line_plot", "read_target_profile",
               "read_points"):
        m[f"fileio.{fn}_s"] = self_s(f"fileio.{fn}")
    m.update({
        "fileio.bytes_written": sum(os.path.getsize(p) for p in written),
        "fileio.rows_written": sum(_count_lines(p) for p in written),
        "oracle.adamw.train_self_s": self_s("oracle.adamw.train"),
        "oracle.adamw.reconstruct_s": self_s("oracle.adamw.reconstruct"),
        "oracle.adamw.steps": work("oracle.adamw.train", lambda w: w[0]),
        "oracle.adamw.coord_steps": work("oracle.adamw.train", lambda w: w[1]),
        "oracle.adamw.trace_mb_computed": work("oracle.adamw.train", lambda w: w[2]) / 1e6,
        "oracle.quadratic.mc_gap_self_s": self_s("oracle.quadratic.mc_gap"),
        "oracle.quadratic.analytic_gap_s": self_s("oracle.quadratic.analytic_gap"),
        "oracle.quadratic.trial_steps": work("oracle.quadratic.mc_gap"),
        "oracle.sweep.run_self_s": self_s("oracle.sweep.run", "oracle.sweep.cell"),
        "oracle.sweep.cells": len(cells),
        "oracle.sweep.cell_p50_s": statistics.median(cells) if cells else 0.0,
        "oracle.sweep.overlap": sum(cells) / sweeps if sweeps > 0 else 0.0,
        "oracle.rng.normal_field_s": self_s("oracle.rng.normal_field"),
        "oracle.rng.calls": len(by_name["oracle.rng.normal_field"]),
        "oracle.rng.draws": work("oracle.rng.normal_field"),
        "scaling.fit_power_law_s": self_s("scaling.fit_power_law"),
        "trace.coverage": (import_s + sum(own.values())) / wall_s,
        "trace.spans": len(spans),
    })
    return m


def run(job: dict) -> dict:
    start = perf_counter()
    import lrdual.cli as cli

    import_s = perf_counter() - start
    rec = Recorder() if job["traced"] else None
    if rec is not None:
        install(rec)
    codes = []
    for argv in job["argvs"]:
        try:
            if rec is not None:
                codes.append(rec.call("cli.main", cli.main, (argv,), {}))
            else:
                codes.append(cli.main(argv))
        except Exception:  # a crash fails this command; the pass goes on
            traceback.print_exc()
            codes.append(-1)
    wall_s = perf_counter() - start
    result = {"wall_s": wall_s, "import_s": import_s, "exit_codes": codes}
    if rec is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump({
                "pass": job["pass"],
                "fields": ["id", "close_seq", "name", "start", "end", "parent", "thread", "work"],
                "spans": rec.spans,
            }, fh)
        result["metrics"] = layer_metrics(rec.spans, import_s, wall_s)
    return result


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
