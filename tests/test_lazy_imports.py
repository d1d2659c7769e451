"""Commands load no module they do not use.

``numpy.ma``, ``fractions`` and ``decimal`` each cost a command startup time
and resident memory (``numpy.ma`` about 16 ms and 1.3 MB), and no command
needs them. ``lrdual._reader`` is loaded only by commands that read an input
file, ``lrdual.oracle`` only by ``simulate`` and ``sweep``, and ``numpy.random``
(which deriving a seed loads, about 6 MB of resident memory) only by the
commands that draw noise: ``simulate`` with noise and a Monte Carlo sweep. Each
command runs in a fresh interpreter at a small size.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from lrdual import SmoothingSequence, coefficients_at
from lrdual.fileio import columns_text, write_text_file

from helpers import child_env

GUARDED = ("numpy.ma", "fractions", "decimal", "lrdual._reader", "lrdual.oracle", "numpy.random")
RUN = (
    "import json, sys, lrdual.cli; "
    "code = lrdual.cli.main(sys.argv[1:]); "
    f"print(json.dumps([name for name in {GUARDED!r} if name in sys.modules])); "
    "sys.exit(code)"
)
SHAPE = ["--steps", "60", "--warmup", "6", "--peak-base", "1e-2", "--wd", "0.1"]
GRID = {
    "schedules": [{"kind": "linear", "decay_ratio": 0.0}],
    "peak_lrs": [0.1],
    "sigma2s": [0.0, 0.5],
    "steps": [40],
    "batches": [1],
    "mu": 1.0,
    "d0": 1.0,
    "warmup_frac": 0.1,
    "trials": 20,
}
COMMANDS = {
    "schedule": ["schedule", *SHAPE, "--svg"],
    "dual": ["dual", *SHAPE, "--svg"],
    "dual --matrix": ["dual", *SHAPE, "--matrix"],
    "rational": [
        "rational", "--peak", "2e-3", "--wd", "0.1", "--steps", "60", "--warmup", "6", "--svg"
    ],
    "design": ["design", "--target", "{profile}", "--wd", "0.1", "--svg"],
    "fit": ["fit", "--in", "{points}", "--svg"],
    "simulate": ["simulate", *SHAPE, "--dim", "3", "--sigma2", "0.5"],
    "sweep analytic": ["sweep", "--config", "{grid}", "--mode", "analytic"],
    "sweep monte-carlo": ["sweep", "--config", "{grid}", "--mode", "monte-carlo"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    alphas = np.linspace(1.0, 1e-3, 40)
    profile = coefficients_at(SmoothingSequence(alphas)).c
    write_text_file(root / "profile.csv", columns_text("i,c", profile))
    (root / "points.csv").write_text("x,y\n1,4\n4,2\n16,1\n")
    (root / "grid.json").write_text(json.dumps(GRID))
    return {name: str(root / f"{name}.{ext}") for name, ext in
            [("profile", "csv"), ("points", "csv"), ("grid", "json")]}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_loads_no_guarded_module(command, inputs, tmp_path):
    argv = [arg.format(**inputs) for arg in COMMANDS[command]]
    done = subprocess.run(
        [sys.executable, "-c", RUN, *argv, "--out", str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    reads_a_file = command in ("design", "fit")
    runs_the_oracle = command.startswith(("simulate", "sweep"))
    draws_noise = command in ("simulate", "sweep monte-carlo")
    assert json.loads(done.stdout.splitlines()[-1]) == (
        ["lrdual._reader"] * reads_a_file + ["lrdual.oracle"] * runs_the_oracle
        + ["numpy.random"] * draws_noise
    )
