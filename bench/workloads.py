"""Benchmark workloads: seeded inputs, command lists and output contracts.

A workload is a list of ``lrdual`` commands run one after another. Every
input a command reads is generated here from the workload seed; the program
only ever sees the generated files. After a pass, :func:`check_command`
applies the output contracts and :func:`digest_tree` fingerprints the
outputs for the byte-identical replay check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

WORKLOADS = ("paper-figures", "dual-export", "oracle")

# Contract tolerances.
COEF_SUM_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9
DESIGN_TOL = 1e-10
MC_SIGMAS = 5.0
MC_REL_SLACK = 1e-12  # for noiseless cells, whose stderr is 0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, SMOKE the self-test."""

    paper_steps: int = 11752
    fit_points: int = 10
    matrix_steps: int = 1000
    dual_steps: int = 200_000
    design_inputs: int = 50_000
    sim_long_steps: int = 20000
    sim_long_warmup: int = 2000
    sim_wide_steps: int = 4000
    sim_wide_dim: int = 2000
    sweep_steps: int = 2000
    sweep_trials: int = 1000


FULL = Sizes()
SMOKE = Sizes(
    paper_steps=400,
    fit_points=6,
    matrix_steps=60,
    dual_steps=3000,
    design_inputs=2000,
    sim_long_steps=300,
    sim_long_warmup=30,
    sim_wide_steps=100,
    sim_wide_dim=50,
    sweep_steps=200,
    sweep_trials=50,
)


@dataclass
class Inputs:
    """Generated input files plus what the contracts compare against."""

    files: Dict[str, Path] = field(default_factory=dict)
    design_alphas: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Command:
    label: str
    argv: List[str]
    out: Path


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_lines(path: Path, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def make_inputs(workload: str, seed: int, sizes: Sizes, inputs_dir: Path) -> Inputs:
    """Write every input file ``workload`` reads, deterministically in ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs()
    if workload == "paper-figures":
        # Noisy power law y = c * x^m on log-spaced x.
        c = 10.0 ** rng.uniform(0.0, 1.0)
        m = rng.uniform(-0.5, -0.1)
        x = np.logspace(1.0, 4.0, sizes.fit_points)
        y = c * x**m * np.exp(rng.normal(0.0, 0.05, sizes.fit_points))
        path = inputs_dir / "points.csv"
        _write_lines(path, ["x,y"] + [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(x, y)])
        inputs.files["points"] = path
    elif workload == "dual-export":
        # A seeded smoothing sequence turned into its final-step coefficients;
        # `design` must recover the generating alphas from the profile alone.
        from lrdual.dual import SmoothingSequence, coefficients_at

        alphas = np.empty(sizes.design_inputs)
        alphas[0] = 1.0
        alphas[1:] = 10.0 ** rng.uniform(-5.0, -3.0, sizes.design_inputs - 1)
        c = coefficients_at(SmoothingSequence(alphas)).c
        path = inputs_dir / "profile.csv"
        _write_lines(path, ["i,c"] + [f"{i},{_fmt(v)}" for i, v in enumerate(c, start=1)])
        inputs.files["profile"] = path
        inputs.design_alphas = alphas
    elif workload == "oracle":
        # 3 schedules x 3 peaks x 2 noise levels x 2 batches = 36 cells, all
        # stable (peak * mu < 2); the noiseless cells test the exact path.
        peaks = sorted(float(f"{p:.4g}") for p in rng.uniform(0.02, 0.5, 3))
        sigma2 = float(f"{rng.uniform(0.25, 2.0):.4g}")
        grid = {
            "schedules": [
                {"kind": "linear", "decay_ratio": 0.0},
                {"kind": "cosine", "decay_ratio": 0.0},
                {"kind": "constant", "decay_ratio": 1.0},
            ],
            "peak_lrs": peaks,
            "sigma2s": [0.0, sigma2],
            "steps": [sizes.sweep_steps],
            "batches": [1, 4],
            "mu": 1.0,
            "d0": 1.0,
            "warmup_frac": 0.1,
            "trials": sizes.sweep_trials,
        }
        path = inputs_dir / "grid.json"
        _write_lines(path, [json.dumps(grid, indent=2, sort_keys=True)])
        inputs.files["grid"] = path
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def commands(
    workload: str, inputs: Inputs, sizes: Sizes, seed: int, out_root: Path
) -> List[Command]:
    """The workload's commands, in run order; each writes to its own ``--out``."""
    cmds: List[Command] = []

    def add(label: str, argv: List[str]) -> None:
        out = out_root / f"{len(cmds):02d}-{label}"
        cmds.append(Command(label, argv + ["--out", str(out), "--seed", str(seed)], out))

    if workload == "paper-figures":
        steps = sizes.paper_steps
        paper = ["--steps", str(steps), "--warmup-frac", "0.1", "--peak-base", "1.6e-2",
                 "--rho", "0.125", "--wd", "0.1", "--svg"]
        shapes = [
            ("linear-d2z", ["--kind", "linear", "--ratio", "0"]),
            ("linear-10x", ["--kind", "linear", "--ratio", "0.1"]),
            ("cosine", ["--kind", "cosine"]),
            ("constant", ["--kind", "constant"]),
            ("wsd", ["--kind", "wsd"]),
            ("step", ["--kind", "step"]),
            ("invsqrt", ["--kind", "invsqrt"]),
            ("cyclic", ["--kind", "cyclic", "--period", str(steps // 4)]),
            ("rational", ["--kind", "rational"]),
        ]
        for label, shape in shapes:
            add(f"schedule-{label}", ["schedule"] + shape + paper)
            add(f"dual-{label}", ["dual"] + shape + paper)
        # Realized peak of the figures above: 1.6e-2 * 0.125.
        add("rational", ["rational", "--peak", "2e-3", "--wd", "0.1", "--steps", str(steps),
                         "--warmup", str(steps // 10), "--svg"])
        add("fit", ["fit", "--in", str(inputs.files["points"]), "--svg"])
    elif workload == "dual-export":
        paper = ["--kind", "linear", "--ratio", "0", "--warmup-frac", "0.1",
                 "--peak-base", "1.6e-2", "--rho", "0.125", "--wd", "0.1"]
        add("dual-matrix", ["dual", "--steps", str(sizes.matrix_steps), "--matrix"] + paper)
        add("dual-long", ["dual", "--steps", str(sizes.dual_steps)] + paper)
        add("design", ["design", "--target", str(inputs.files["profile"]), "--wd", "0.1"])
    elif workload == "oracle":
        add("simulate-long", [
            "simulate", "--kind", "linear", "--steps", str(sizes.sim_long_steps),
            "--warmup", str(sizes.sim_long_warmup), "--peak-base", "0.1", "--wd", "0.1",
            "--dim", "10", "--sigma2", "0.5"])
        add("simulate-wide", [
            "simulate", "--kind", "linear", "--steps", str(sizes.sim_wide_steps),
            "--peak-base", "0.01", "--wd", "0.1", "--dim", str(sizes.sim_wide_dim),
            "--sigma2", "0.5"])
        grid = str(inputs.files["grid"])
        add("sweep-mc", ["sweep", "--config", grid, "--mode", "monte-carlo", "--jobs", "2"])
        add("sweep-analytic", ["sweep", "--config", grid, "--mode", "analytic"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


# -- contracts ------------------------------------------------------------------


def _csv_column(path: Path, name: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        column = fh.readline().strip().split(",").index(name)
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=column, ndmin=1)


def _check_coefficients(path: Path) -> Optional[str]:
    c = _csv_column(path, "c")
    if c.size == 0 or not np.all(c >= 0.0):
        return f"{path.name}: negative or missing coefficients"
    err = abs(math.fsum(c) - 1.0)
    if not err <= COEF_SUM_TOL:
        return f"{path.name}: |sum(c) - 1| = {err:.3g} > {COEF_SUM_TOL}"
    return None


def _check_summary(path: Path) -> Optional[str]:
    with open(path, "r", encoding="utf-8") as fh:
        err = json.load(fh)["reconstruction_relative_error"]
    if err is None or not err <= RECONSTRUCTION_TOL:
        return f"{path.name}: reconstruction error {err} > {RECONSTRUCTION_TOL}"
    return None


def _check_design(path: Path, alphas: np.ndarray) -> Optional[str]:
    got = _csv_column(path, "alpha")
    if got.shape != alphas.shape:
        return f"{path.name}: {got.size} alphas, expected {alphas.size}"
    err = float(np.max(np.abs(got - alphas)))
    if not err <= DESIGN_TOL:
        return f"{path.name}: max |alpha - generating alpha| = {err:.3g} > {DESIGN_TOL}"
    return None


def _check_sweep(path: Path, monte_carlo: bool) -> Optional[str]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]
    if not rows:
        return f"{path.name}: no cells"
    for k, row in enumerate(rows):
        if row["stable"] != "true":
            continue
        if row["gap_analytic"] == "":
            return f"{path.name}: stable cell {k} has no analytic gap"
        if not monte_carlo:
            continue
        if row["gap_mc_mean"] == "" or row["gap_mc_stderr"] == "":
            return f"{path.name}: stable cell {k} has no Monte Carlo gap"
        analytic = float(row["gap_analytic"])
        mean = float(row["gap_mc_mean"])
        # Relative rounding slack, floored at the smallest normal double:
        # noiseless cells can decay into the subnormal range, where rounding
        # is absolute.
        slack = MC_REL_SLACK * max(abs(analytic), sys.float_info.min)
        limit = MC_SIGMAS * float(row["gap_mc_stderr"]) + slack
        if not abs(mean - analytic) <= limit:
            return f"{path.name}: cell {k} Monte Carlo gap {mean} vs analytic {analytic}"
    return None


def check_command(cmd: Command, inputs: Inputs) -> Optional[str]:
    """Return why ``cmd``'s outputs break a contract, or None if they hold."""
    try:
        with open(cmd.out / "manifest.json", "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        outputs = manifest["outputs"]
        missing = [name for name in outputs if not (cmd.out / name).is_file()]
        if missing:
            return f"missing outputs {missing}"
        for name in outputs:
            path = cmd.out / name
            if name == "coefficients.csv":
                why = _check_coefficients(path)
            elif name == "summary.json":
                why = _check_summary(path)
            elif name == "designed_schedule.csv":
                why = _check_design(path, inputs.design_alphas)
            elif name == "sweep.csv":
                why = _check_sweep(path, manifest["config"]["mode"] == "monte-carlo")
            else:
                why = None
            if why:
                return why
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def digest_tree(root: Path) -> Dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = Path(dirpath) / name
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[str(path.relative_to(root))] = h.hexdigest()
    return digests


def tree_bytes(root: Path) -> int:
    return sum(
        (Path(d) / f).stat().st_size for d, _, files in os.walk(root) for f in files
    )
