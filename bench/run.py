"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload oracle --seed 7 --seconds 20 --trace 0

The inputs are generated from ``--seed`` under ``.bench_work/<workload>/``
and the program is run from ``src/`` of the checkout this file sits in.

``--trace 0`` measures the end-to-end metrics. Each pass is a closed loop
with one client: the workload's commands run one at a time as
``python -m lrdual.cli ...`` subprocesses, each starting when the previous
one exits. Passes repeat until ``--seconds`` is used up (at least three).
``wall_s`` and ``cpu_s`` sum each command's median over the passes; the
other metrics are medians over passes.
``setup_s`` is the median wall time of fresh ``python -c "import
lrdual.cli"`` processes spawned before and between the passes.

``--trace 1`` measures the per-layer metrics. It runs pairs of untraced and
traced in-process passes (``bench/tracer.py``), each in a fresh interpreter,
and reports medians over the traced passes; the tracing overhead is the
traced wall time minus the untraced in-process wall time.

Every pass is checked: a command fails when it exits non-zero, when its
outputs break a contract (checked on the first pass), or when its output
bytes differ from the first pass's. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment. Exit status is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import workloads
from tracer import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

# The least number of passes a --trace 0 run makes, so that every median
# is taken over at least three values.
MIN_PASSES = 3
SETUP_PROBE = ["-c", "import lrdual.cli"]
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_PASS = 2
# Commands still running this long after the run started are killed, so the
# run ends within three minutes even if the program hangs.
HARD_LIMIT_S = 160.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Exit:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_bytes: int


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The helper process that spawns every command (see ``launcher.py``)."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: List[str], log: Path, deadline: float) -> Exit:
        request = {"argv": argv, "log": str(log), "timeout": deadline - perf_counter()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the launcher exited")
        return Exit(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Ledger:
    """Judges every command of every pass against the first pass."""

    def __init__(self, cmds: List[workloads.Command], inputs: workloads.Inputs) -> None:
        self.cmds = cmds
        self.inputs = inputs
        self.first: Optional[List[Dict[str, str]]] = None
        self.broken: List[Optional[str]] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def judge(self, codes: List[int], cmds: Optional[List[workloads.Command]] = None) -> int:
        """Count this pass's failures; ``cmds`` may point at copied outputs."""
        cmds = self.cmds if cmds is None else cmds
        digests = [workloads.digest_tree(c.out) for c in cmds]
        if self.first is None:
            self.first = digests
            self.broken = [workloads.check_command(c, self.inputs) for c in cmds]
        failed = 0
        for cmd, code, digest, first, broken in zip(
            cmds, codes, digests, self.first, self.broken
        ):
            if code != 0:
                why = f"exit code {code}"
            elif broken:
                why = broken
            elif digest != first:
                why = "output bytes differ from the first pass"
            else:
                continue
            failed += 1
            self.reasons.append(f"{cmd.label}: {why}")
        self.attempted += len(cmds)
        self.failed += failed
        return failed


class Run:
    """Shared set-up of one benchmark run: inputs, commands, scratch space."""

    def __init__(self, workload: str, seed: int, sizes: workloads.Sizes, work: Path) -> None:
        self.start = perf_counter()
        self.deadline = self.start + HARD_LIMIT_S
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.work = work
        self.out_root = work / "out"
        self.log = work / "stderr.log"
        self.inputs = workloads.make_inputs(workload, seed, sizes, work / "inputs")
        self.cmds = workloads.commands(workload, self.inputs, sizes, seed, self.out_root)
        self.ledger = Ledger(self.cmds, self.inputs)
        self.launcher = Launcher(child_env())

    def spawn(self, argv: List[str]) -> Exit:
        return self.launcher.run(argv, self.log, self.deadline)

    def fresh_outputs(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir()

    def more_passes(self, done: int, measure_start: float, seconds: float, least: int) -> bool:
        now = perf_counter()
        per_pass = (now - measure_start) / done
        if now + per_pass > self.deadline - 10.0:
            return False
        return done < least or now - measure_start + per_pass <= seconds

    def finish(self) -> None:
        self.launcher.close()
        shutil.rmtree(self.out_root, ignore_errors=True)


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    python = sys.executable
    setup = []

    def probe(samples: int) -> None:
        for _ in range(samples):
            e = run.spawn([python] + SETUP_PROBE)
            if e.code != 0:
                raise BenchError(f"`import lrdual.cli` failed; see {run.log}")
            setup.append(e.wall_s)

    run.spawn([python] + SETUP_PROBE)  # compiles bytecode, warms the page cache
    probe(SETUP_SAMPLES_FIRST)
    rsss, outputs = [], []
    walls: List[List[float]] = []  # [pass][command]
    cpus: List[List[float]] = []
    measure_start = perf_counter()
    while True:
        run.fresh_outputs()
        exits = [run.spawn([python, "-m", "lrdual.cli"] + cmd.argv) for cmd in run.cmds]
        walls.append([e.wall_s for e in exits])
        cpus.append([e.cpu_s for e in exits])
        rss = max(e.maxrss_bytes for e in exits)
        rsss.append(rss / 1e6)
        outputs.append(workloads.tree_bytes(run.out_root) / 1e6)
        failed = run.ledger.judge([e.code for e in exits])
        print(f"pass {len(walls)}: wall {sum(walls[-1]):.3f} s, cpu {sum(cpus[-1]):.3f} s, "
              f"peak rss {rss / 1e6:.1f} MB, {failed} failed", file=sys.stderr)
        probe(SETUP_SAMPLES_PER_PASS)
        if not run.more_passes(len(walls), measure_start, seconds, MIN_PASSES):
            break
    return {
        # Per-command medians: a burst of host contention slows whichever
        # commands it overlaps, and each command's median drops it.
        "wall_s": sum(map(statistics.median, zip(*walls))),
        "setup_s": statistics.median(setup),
        "cpu_s": sum(map(statistics.median, zip(*cpus))),
        "peak_rss_mb": statistics.median(rsss),
        "output_mb": statistics.median(outputs),
    }


def per_layer(run: Run, seconds: float) -> Dict[str, float]:
    walls: Dict[bool, List[float]] = {False: [], True: []}
    layers: List[Dict[str, float]] = []
    job_path = run.work / "job.json"
    result_path = run.work / "result.json"
    measure_start = perf_counter()
    pairs = 0
    while True:
        # Alternate which pass of a pair goes first, so neither side always
        # runs right after the other's outputs were deleted.
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            run.fresh_outputs()
            job = {
                "argvs": [c.argv for c in run.cmds],
                "traced": traced,
                "pass": pairs + 1,
                "result": str(result_path),
                "spans": str(run.work / f"spans-{pairs + 1}.json"),
            }
            job_path.write_text(json.dumps(job), encoding="utf-8")
            result_path.unlink(missing_ok=True)
            e = run.spawn([sys.executable, str(BENCH / "tracer.py"), str(job_path)])
            if e.code != 0 or not result_path.is_file():
                raise BenchError(f"in-process pass exited with {e.code}; see {run.log}")
            result = json.loads(result_path.read_text(encoding="utf-8"))
            walls[traced].append(result["wall_s"])
            if traced:
                layers.append(result["metrics"])
            failed = run.ledger.judge(result["exit_codes"])
            print(f"{'traced' if traced else 'untraced'} pass: wall {result['wall_s']:.3f} s, "
                  f"{failed} failed", file=sys.stderr)
        pairs += 1
        if not run.more_passes(pairs, measure_start, seconds, 1):
            break
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return metrics


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    sizes: workloads.Sizes = workloads.FULL, work: Optional[Path] = None,
) -> Tuple[dict, List[str]]:
    """One benchmark run: the result object printed last, and the commands run."""
    run = Run(workload, seed, sizes, WORK_ROOT / workload if work is None else work)
    try:
        values = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    finally:
        run.finish()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for reason in run.ledger.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, [" ".join(["lrdual"] + c.argv) for c in run.cmds]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    # The ceiling keeps git from finding an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lrdual" / "cli.py").is_file():
        print(f"bench: no lrdual sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # lrdual seeds must be non-negative; any integer maps to one.
    seed = args.seed % (1 << 63)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    try:
        result, commands = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    env["loadavg_end"] = os.getloadavg()
    busiest = max(env["loadavg_start"][0], env["loadavg_end"][0])
    if busiest > env["nproc"]:
        print(f"bench: WARNING load average {busiest:.2f} exceeds nproc={env['nproc']}; "
              f"the machine is shared and these figures may be inflated", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload, "seed": seed,
                      "commands": commands}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
