"""Memory budgets of the O(T) producers, counted exactly by tracemalloc.

numpy reports every data buffer to tracemalloc, so the traced peak of a call
is the sum of the arrays it holds at once; budgets are in doubles per input.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from lrdual import ScheduleKind, ScheduleSpec, SmoothingSequence, coefficients_at, lr_curve
from lrdual.fileio import (
    columns_text,
    read_coefficient_matrix,
    read_target_profile,
    write_coefficient_matrix_csv,
    write_text_file,
)

N = 100_000


def traced_peak(fn, *args):
    """Peak bytes allocated by ``fn(*args)`` beyond what was live before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def edge_sequence():
    """N small smoothing values with an interior reset."""
    rng = np.random.default_rng(0)
    alphas = rng.uniform(1e-5, 1e-3, N)
    alphas[0] = 1.0
    alphas[N // 2] = 1.0
    return SmoothingSequence(alphas)


def test_coefficients_at_holds_five_doubles_per_input():
    assert traced_peak(coefficients_at, edge_sequence()) <= 5 * 8 * N


def test_matrix_writer_holds_seven_doubles_per_input(tmp_path):
    # the tables (log alpha, a longdouble prefix), the prefix as a float64
    # pair and one formatting block; the table's O(n^2) entries never exist
    path = tmp_path / "coefficient_matrix.csv"
    assert traced_peak(write_coefficient_matrix_csv, path, edge_sequence()) <= 7 * 8 * N


def test_matrix_reader_holds_six_doubles_per_input(tmp_path):
    # three parsed columns, then log alpha and the longdouble prefix; each
    # row is O(t) on top
    path = tmp_path / "coefficient_matrix.csv"
    write_coefficient_matrix_csv(path, edge_sequence())

    def read_first_rows():
        rows = read_coefficient_matrix(path)
        assert [len(row) for row in itertools.islice(rows, 3)] == [1, 2, 3]

    assert traced_peak(read_first_rows) <= 6 * 8 * N


def test_profile_reader_holds_four_and_a_quarter_doubles_per_input(tmp_path):
    # the index and weight columns, and a third while each is joined from its
    # blocks; then the index check's clipped copy and counts, or the sort
    # order and the sorted weights
    weights = np.random.default_rng(3).random(N)
    weights /= weights.sum()
    path = tmp_path / "profile.csv"
    write_text_file(path, columns_text("i,c", weights))
    assert traced_peak(read_target_profile, path) <= 4.25 * 8 * N


def test_smoothing_from_lrs_holds_two_and_a_half_doubles_per_step():
    # the alphas lr * wd and the sequence with alpha_1 = 1 prepended
    lrs = np.linspace(1e-3, 0.0, N)
    assert traced_peak(SmoothingSequence.from_lrs, lrs, 0.1) <= 2.5 * 8 * N


@pytest.mark.parametrize("kind", list(ScheduleKind))
def test_lr_curve_holds_four_doubles_per_step(kind):
    warmup = 1000
    params = {
        ScheduleKind.CYCLIC: {"period_steps": 2938},
        ScheduleKind.RATIONAL: {"weight_decay": 0.1},
        ScheduleKind.PIECEWISE: {"multipliers": tuple(np.linspace(1.0, 0.0, N - warmup))},
    }.get(kind, {})
    spec = ScheduleSpec(
        kind=kind,
        total_steps=N,
        peak_base_lr=1.6e-2,
        warmup_steps=warmup,
        mup_factor=0.125,
        decay_ratio=0.1,
        kind_params=params,
    )
    assert traced_peak(lr_curve, spec) <= 4 * 8 * N


def test_piecewise_lr_curve_reads_its_multipliers_in_place():
    # the spec converts its multipliers once; a curve holds only its steps
    warmup = 1000
    spec = ScheduleSpec(
        kind=ScheduleKind.PIECEWISE,
        total_steps=N,
        peak_base_lr=1.6e-2,
        warmup_steps=warmup,
        kind_params={"multipliers": tuple(np.linspace(1.0, 0.0, N - warmup))},
    )
    assert traced_peak(lr_curve, spec) <= 1.5 * 8 * N


def test_monte_carlo_sweep_holds_chunks_not_all_chains():
    # 400 cells x 2000 trials: one array of every cell's trials would be
    # 6.4 MB. The sweep runs one chain per LR curve (20 of them), a chunk at a
    # time (W, a noise product and the final distances at one variance, about
    # 1 MiB, plus the standard deviation's temporary), and holds the 400
    # results: 1.39 MB measured.
    from lrdual.oracle import SweepGrid, run_noise_sweep

    grid = SweepGrid.from_mapping({
        "schedules": [{"kind": k} for k in ("linear", "cosine", "constant", "wsd", "invsqrt")],
        "peak_lrs": [0.02, 0.05, 0.1, 0.2], "sigma2s": [0.0, 1.0], "steps": [100],
        "batches": list(range(1, 11)), "trials": 2000,
    })
    assert traced_peak(run_noise_sweep, grid, "monte-carlo", 1) <= 4 * 2**20


@pytest.mark.parametrize("batches", [[1, 4], list(range(1, 21))], ids=["80-cells", "800-cells"])
@pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
def test_sweep_holds_tables_of_lr_curves_not_cells(mode, batches):
    # 20 stable LR curves of 2000 steps, whatever the number of (sigma2,
    # batch) pairs. The exact gaps hold the curves' table, their contractions
    # and the gaps; the Monte Carlo holds the table and one chunk of trial rows
    # (W, a noise product, the final distances at one variance and the standard
    # deviation's temporary: two tables at 1000 trials). Measured 3.07 and 3.13
    # tables analytic, 3.28 and 3.39 Monte Carlo; one chain per cell made
    # 13.3 tables at 80 cells and 121 at 800.
    from lrdual.oracle import SweepGrid, run_noise_sweep

    grid = SweepGrid.from_mapping({
        "schedules": [{"kind": k} for k in ("linear", "cosine", "constant", "wsd", "invsqrt")],
        "peak_lrs": [0.02, 0.05, 0.1, 0.2], "sigma2s": [0.0, 1.0], "steps": [2000],
        "batches": batches,
    })
    run_noise_sweep(grid, mode, 1)  # loads numpy.random in Monte Carlo mode
    table = 8 * 2000 * 20
    assert traced_peak(run_noise_sweep, grid, mode, 1) <= 3.5 * table
