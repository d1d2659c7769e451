"""Every ``lrdual`` command runs numpy's OpenBLAS on one thread.

numpy's OpenBLAS starts a worker thread per extra core when numpy loads.
``lrdual.cli`` sets ``OPENBLAS_NUM_THREADS=1`` before that, unless the
environment already sets it, so a command neither pays for an idle worker
nor lets the core count reach its output bytes. Each check runs in a fresh
child process, since the setting only acts before numpy's first import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

# with one core OpenBLAS starts no worker, so there is nothing to pin
multicore = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
counts_threads = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task"
)

COUNT_THREADS = "import lrdual.cli, os; print(len(os.listdir('/proc/self/task')))"


def run_python(env, *args):
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@multicore
@counts_threads
def test_cli_import_runs_one_thread():
    assert run_python(child_env(), "-c", COUNT_THREADS) == "1"


@multicore
@counts_threads
def test_explicit_thread_count_wins():
    assert run_python(child_env(OPENBLAS_NUM_THREADS="2"), "-c", COUNT_THREADS) == "2"


def test_bare_package_import_loads_no_numpy_and_sets_nothing():
    code = (
        "import os, sys, lrdual; "
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert run_python(child_env(), "-c", code) == "False False"


@multicore
def test_simulate_summary_does_not_depend_on_the_thread_count(tmp_path):
    # above about 1e4 elements OpenBLAS splits a dot product across its
    # threads, which moved the last digits of reconstruction_relative_error
    argv = ["simulate", "--steps", "2", "--dim", "300000", "--sigma2", "0.5", "--seed", "1"]
    unset, one = tmp_path / "unset", tmp_path / "one"
    run_python(child_env(), "-m", "lrdual.cli", *argv, "--out", str(unset))
    run_python(child_env(OPENBLAS_NUM_THREADS="1"), "-m", "lrdual.cli", *argv, "--out", str(one))
    assert (unset / "summary.json").read_bytes() == (one / "summary.json").read_bytes()
