"""Sweep harness: determinism, grid validation, stability flags."""

import dataclasses

import pytest

from lrdual import ValidationError
from lrdual.oracle import SweepGrid, SweepSchedule, run_noise_sweep


def small_grid(**overrides):
    fields = dict(
        schedules=(
            SweepSchedule(kind="linear", decay_ratio=0.0),
            SweepSchedule(kind="constant", decay_ratio=1.0),
        ),
        peak_lrs=(0.05, 0.2),
        sigma2s=(0.0, 1.0),
        steps=(120,),
        batches=(1, 4),
        mu=1.0,
        d0=1.0,
        warmup_frac=0.1,
        trials=64,
    )
    fields.update(overrides)
    return SweepGrid(**fields)


class TestGrid:
    def test_json_round_trip(self):
        grid = small_grid()
        again = SweepGrid.from_mapping(dataclasses.asdict(grid))
        assert again == grid

    def test_empty_axis_rejected(self):
        with pytest.raises(ValidationError):
            small_grid(peak_lrs=())

    def test_malformed_mapping(self):
        with pytest.raises(ValidationError):
            SweepGrid.from_mapping({"schedules": []})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(schedules=(
                SweepSchedule(kind="linear"),
                SweepSchedule(kind="wsd", kind_params={"cooldown_fraction": 2.0}),
            )),
            dict(schedules=(SweepSchedule(kind="linear"), SweepSchedule(kind="bogus"))),
            dict(peak_lrs=(0.05, 0.0)),
            dict(peak_lrs=(-0.1,)),
        ],
    )
    def test_every_schedule_checked_when_the_grid_is_made(self, overrides, monkeypatch):
        import lrdual.oracle.sweep as sweep

        calls = []
        run_cell = sweep._run_cell
        monkeypatch.setattr(sweep, "_run_cell", lambda *a: calls.append(a) or run_cell(*a))
        with pytest.raises(ValidationError):
            run_noise_sweep(small_grid(**overrides), mode="monte-carlo")
        assert calls == []

    def test_integral_floats_accepted_as_integers(self):
        doc = dataclasses.asdict(small_grid())
        doc.update(steps=[120.0], batches=[1.0, 4.0], trials=64.0)
        grid = SweepGrid.from_mapping(doc)
        assert grid == small_grid()
        assert all(type(v) is int for v in (*grid.steps, *grid.batches, grid.trials))


class TestRun:
    def test_serial_runs_are_deterministic(self):
        grid = small_grid()
        first = run_noise_sweep(grid, mode="monte-carlo", seed=3)
        again = run_noise_sweep(grid, mode="monte-carlo", seed=3)
        assert len(first) == 16
        for a, b in zip(first, again):
            assert (a.index, a.sort_key()) == (b.index, b.sort_key())
            assert a.gap_analytic == b.gap_analytic
            assert a.gap_mc_mean == b.gap_mc_mean
            assert a.gap_mc_stderr == b.gap_mc_stderr

    def test_sorted_by_key(self):
        results = run_noise_sweep(small_grid(), mode="analytic", seed=0)
        keys = [r.sort_key() for r in results]
        assert keys == sorted(keys)

    def test_analytic_mode_leaves_mc_empty(self):
        results = run_noise_sweep(small_grid(), mode="analytic", seed=0)
        assert all(r.gap_mc_mean is None and r.gap_mc_stderr is None for r in results)
        assert all(r.gap_analytic is not None for r in results if r.stable)

    def test_unstable_cells_flagged_not_dropped(self):
        grid = small_grid(peak_lrs=(0.1, 5.0))
        results = run_noise_sweep(grid, mode="analytic", seed=0)
        assert len(results) == 16
        unstable = [r for r in results if not r.stable]
        assert unstable and all(r.peak_lr == 5.0 for r in unstable)
        assert all(r.gap_analytic is None for r in unstable)
        # constant keeps lr*mu = 5 throughout; linear decays into stability
        # only below the threshold mid-run, but its peak already violates it
        assert all(r.gap_analytic is not None for r in results if r.stable)

    def test_bigger_batches_weakly_reduce_gaps(self):
        grid = small_grid(batches=(1, 2, 4, 8), sigma2s=(1.0,))
        results = run_noise_sweep(grid, mode="analytic", seed=0)
        by_cell = {}
        for r in results:
            by_cell.setdefault((r.schedule, r.peak_lr, r.sigma2, r.steps), []).append(
                (r.batch, r.gap_analytic)
            )
        for cells in by_cell.values():
            cells.sort()
            gaps = [g for _, g in cells]
            assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_mode_validated(self):
        with pytest.raises(ValidationError):
            run_noise_sweep(small_grid(), mode="bogus")
