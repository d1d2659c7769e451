"""Sweep harness: determinism, grid validation, stability flags, shared noise."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from lrdual import ValidationError, lr_curve
from lrdual.oracle import (
    SweepGrid,
    SweepSchedule,
    run_noise_sweep,
    sgd_monte_carlo_gap,
    sgd_quadratic_expected_gap,
    sweep,
)


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

    @pytest.mark.parametrize(
        "document",
        [{"schedules": []}, [1, 2], {**dataclasses.asdict(small_grid()), "schedules": ["linear"]}],
        ids=["no-axes", "list", "schedule-string"],
    )
    def test_malformed_mapping(self, document):
        with pytest.raises(ValidationError, match="malformed sweep grid"):
            SweepGrid.from_mapping(document)

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

    @pytest.mark.parametrize(
        "document, key, accepted",
        [
            ({"extra": 1}, "'extra' in the grid", "schedules, peak_lrs, sigma2s, steps"),
            ({"schedules": [{"kind": "linear"}, {"kind": "linear", "decay": 0.1}]},
             "'decay' in schedule 1", "kind, decay_ratio, kind_params"),
        ],
        ids=["top-level", "schedule"],
    )
    def test_unknown_key_refused(self, document, key, accepted):
        # a misspelt key used to fall back to its default
        doc = {**dataclasses.asdict(small_grid()), **document}
        with pytest.raises(ValidationError, match=f"unknown key {key}; it accepts .*{accepted}"):
            SweepGrid.from_mapping(doc)

    def test_array_axis_builds_the_grid(self):
        # an array axis used to escape as numpy's ambiguous-truth ValueError
        grid = small_grid(peak_lrs=np.array([0.05, 0.2]), steps=np.array([120]))
        assert grid == small_grid()
        assert grid.peak_lrs == (0.05, 0.2) and type(grid.steps) is tuple

    def test_list_axes_stored_as_tuples_and_hashable(self):
        grid = small_grid(
            schedules=[SweepSchedule(kind="linear", decay_ratio=0.0),
                       SweepSchedule(kind="constant", decay_ratio=1.0)],
            peak_lrs=[0.05, 0.2], sigma2s=[0.0, 1.0], steps=[120], batches=[1, 4],
        )
        assert all(type(getattr(grid, name)) is tuple
                   for name in ("schedules", "peak_lrs", "sigma2s", "steps", "batches"))
        assert grid == small_grid()
        assert hash(grid) == hash(small_grid())
        wsd = SweepSchedule(kind="wsd", kind_params={"cooldown_fraction": 0.3})
        assert len({small_grid(schedules=(wsd,)), small_grid(schedules=[wsd])}) == 1

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


def cell_gaps(results):
    """The repr of every cell's gaps by cell key, schedule index left out;
    equal reprs are equal bytes."""
    return {
        r.sort_key()[:-1]: repr((r.gap_analytic, r.gap_mc_mean, r.gap_mc_stderr))
        for r in results
    }


def reference_gap(lrs, mu, s2, d0, bits=200):
    """The exact gap recursion on the float inputs, every step rounded down
    to ``bits`` fractional bits."""
    mu, s2, scale = Fraction(mu), Fraction(s2), 2**bits
    e = int(Fraction(d0) * scale)
    for lr in map(Fraction, lrs.tolist()):
        contraction, injection = (1 - lr * mu) ** 2, lr * lr * s2 * scale
        e = e * contraction.numerator // contraction.denominator + int(injection)
    return Fraction(e, scale)


def direct_gap(lrs, mu, s2, d0):
    """The expected-gap recursion e_t = (1 - lr mu)^2 e_{t-1} + lr^2 s2 in
    floats, as each cell ran it before the gap was split into A and B."""
    e = d0
    for lr in lrs.tolist():
        e = (1.0 - lr * mu) ** 2 * e + lr * lr * s2
    return e


class TestGroupedGaps:
    """Both modes compute the gaps of one step count from one column per
    stable LR curve: A * d0 + B * s2 at every noise ratio in one exact-gap
    call, and the Monte Carlo at every noise ratio in one more."""

    GRID = dict(steps=(120, 80), peak_lrs=(0.05, 0.2, 5.0))

    @pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
    def test_one_exact_call_per_step_count(self, monkeypatch, mode):
        calls = []
        gap = sweep.sgd_quadratic_expected_gap
        monkeypatch.setattr(
            sweep, "sgd_quadratic_expected_gap", lambda *a: calls.append(a) or gap(*a)
        )
        results = run_noise_sweep(small_grid(**self.GRID), mode=mode, seed=3)
        # 2 schedules x 2 stable peaks at the distinct sigma2 / batch of the
        # 4 (sigma2, batch) pairs
        assert [(args[0].shape, args[2], args[3]) for args in calls] == [
            ((120, 4), [0.0, 1.0, 0.25], 1.0), ((80, 4), [0.0, 1.0, 0.25], 1.0)
        ]
        assert sum(r.stable for r in results) == 32

    @pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
    def test_every_cell_is_its_one_chain_gap(self, mode):
        grid = small_grid(**self.GRID)
        results = run_noise_sweep(grid, mode=mode, seed=3)
        assert {r.sigma2 for r in results} == {0.0, 1.0}
        for r in results:
            if not r.stable:
                assert r.peak_lr == 5.0 and r.gap_analytic is None
                continue
            lrs = lr_curve(grid._specs[r.schedule_index, r.peak_lr, r.steps])
            s2 = r.sigma2 / r.batch
            one = sgd_quadratic_expected_gap(lrs, grid.mu, s2, grid.d0)
            bias = sgd_quadratic_expected_gap(lrs, grid.mu, 0.0, grid.d0)  # A * d0
            unit = sgd_quadratic_expected_gap(lrs, grid.mu, 1.0, 0.0)  # B
            direct = direct_gap(lrs, grid.mu, s2, grid.d0)
            assert repr(r.gap_analytic) == repr(one)
            if s2 == 0:
                assert repr(one) == repr(bias) == repr(direct)
            else:
                assert repr(one) == repr(bias + unit * s2)
                assert abs(one - direct) <= 21 * math.ulp(direct)
            if mode == "monte-carlo":
                one = sgd_monte_carlo_gap(lrs, grid.mu, s2, grid.d0, trials=grid.trials,
                                          seed=sweep.derive_seed(3, 0))
                assert repr((r.gap_mc_mean, r.gap_mc_stderr)) == repr(one)

    def test_noisy_cells_within_eleven_ulps_of_a_200_bit_reference(self):
        # an oracle-workload grid (its seed 7) at 2000 steps: A * d0 + B * s2
        # is within 10.2 ulps of the reference on its 18 noisy cells, and the
        # direct recursion each cell ran before within 17.2
        grid = SweepGrid.from_mapping({
            "schedules": [
                {"kind": "linear", "decay_ratio": 0.0},
                {"kind": "cosine", "decay_ratio": 0.0},
                {"kind": "constant", "decay_ratio": 1.0},
            ],
            "peak_lrs": [0.1534, 0.2337, 0.4682], "sigma2s": [0.0, 1.445], "steps": [2000],
            "batches": [1, 4], "mu": 1.0, "d0": 1.0, "warmup_frac": 0.1, "trials": 1000,
        })
        noisy = [r for r in run_noise_sweep(grid, mode="analytic") if r.sigma2 > 0]
        assert len(noisy) == 18
        for r in noisy:
            lrs = lr_curve(grid._specs[r.schedule_index, r.peak_lr, r.steps])
            exact = reference_gap(lrs, grid.mu, r.sigma2 / r.batch, grid.d0)
            assert abs(Fraction(r.gap_analytic) - exact) <= 11 * Fraction(math.ulp(float(exact)))


class TestCommonRandomNumbers:
    def test_one_monte_carlo_call_per_step_count(self, monkeypatch):
        calls = []
        gap = sweep.sgd_monte_carlo_gap
        monkeypatch.setattr(
            sweep, "sgd_monte_carlo_gap", lambda *a, **k: calls.append((a, k)) or gap(*a, **k)
        )
        grid = small_grid(steps=(120, 80), peak_lrs=(0.05, 0.2, 5.0))
        results = run_noise_sweep(grid, mode="monte-carlo", seed=3)
        # one column per stable LR curve, and the distinct sigma2 / batch
        assert [(args[0].shape, args[2]) for args, _ in calls] == [
            ((120, 4), [0.0, 1.0, 0.25]), ((80, 4), [0.0, 1.0, 0.25])
        ]
        assert {k["seed"] for _, k in calls} == {sweep.derive_seed(3, 0)}
        assert sum(r.stable for r in results) == 32
        assert all(r.gap_mc_mean is None for r in results if not r.stable)

    @pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
    @pytest.mark.parametrize(
        "wider",
        [
            dict(schedules=(SweepSchedule(kind="cosine"), *small_grid().schedules)),
            # adds the (sigma2, batch) pairs of sigma2 = 3 and of batch 2
            dict(sigma2s=(0.0, 1.0, 3.0), batches=(1, 2, 4)),
        ],
        ids=["schedule", "noise-pair"],
    )
    def test_inserting_a_schedule_leaves_the_other_cells_unchanged(self, mode, wider):
        before = cell_gaps(run_noise_sweep(small_grid(), mode=mode, seed=3))
        after = cell_gaps(run_noise_sweep(small_grid(**wider), mode=mode, seed=3))
        assert {key: after[key] for key in before} == before

    @pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
    def test_pairs_with_one_noise_ratio_give_identical_cells(self, mode):
        # (1, 2) and (2, 4) are both sigma2 / batch = 0.5
        results = run_noise_sweep(small_grid(sigma2s=(1.0, 2.0), batches=(2, 4)), mode=mode,
                                  seed=3)
        halves = {}
        for r in results:
            if r.sigma2 / r.batch == 0.5:
                gaps = repr((r.gap_analytic, r.gap_mc_mean, r.gap_mc_stderr))
                halves.setdefault((r.schedule_index, r.peak_lr), set()).add(gaps)
        assert len(halves) == 4 and all(len(gaps) == 1 for gaps in halves.values())

    def test_schedule_index_tells_equal_kinds_apart(self):
        cyclic = tuple(
            SweepSchedule(kind="cyclic", kind_params={"period_steps": p}) for p in (10, 7)
        )
        results = run_noise_sweep(small_grid(schedules=cyclic, sigma2s=(1.0,)), mode="analytic")
        # the index is the last sort key, so the pairs of twins stay together
        assert [r.schedule_index for r in results] == [0, 1] * 4
        keys = [r.sort_key() for r in results]
        assert len(set(keys)) == len(keys)

    def test_every_noisy_cell_within_five_stderr_of_the_analytic_gap(self):
        # The benchmark's contract. Shared noise correlates the cells of one
        # seed, so it is checked over many seeds of an oracle-shaped grid.
        grid = SweepGrid.from_mapping({
            "schedules": [
                {"kind": "linear", "decay_ratio": 0.0},
                {"kind": "cosine", "decay_ratio": 0.0},
                {"kind": "constant", "decay_ratio": 1.0},
            ],
            "peak_lrs": [0.03, 0.15, 0.45], "sigma2s": [0.0, 1.3], "steps": [500],
            "batches": [1, 4], "mu": 1.0, "d0": 1.0, "warmup_frac": 0.1, "trials": 1000,
        })
        worst = 0.0
        for seed in range(20):
            noisy = [r for r in run_noise_sweep(grid, mode="monte-carlo", seed=seed)
                     if r.sigma2 > 0]
            assert len(noisy) == 18 and all(r.stable for r in noisy)
            z = [abs(r.gap_mc_mean - r.gap_analytic) / r.gap_mc_stderr for r in noisy]
            worst = max(worst, *z)
        assert worst <= 5.0
