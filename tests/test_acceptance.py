"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with stated runtime budgets assert them.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import random_spec_and_wd
from lrdual import (
    ScheduleKind,
    ScheduleSpec,
    SmoothingSequence,
    TargetProfile,
    alpha_curve,
    average_alpha,
    coefficients_at,
    init_coefficient,
    init_coefficient_approx,
    iter_coefficient_rows,
    lr_curve,
    mup_scale,
    rational_schedule,
    schedule_from_coefficients,
)
from lrdual.cli import main
from lrdual.dual import materialize_log_coefficients
from lrdual.oracle import (
    AdamWConfig,
    QuadraticProblem,
    SweepGrid,
    SweepSchedule,
    derive_seed,
    order_fit_probe,
    reconstruct_from_updates,
    run_noise_sweep,
    sgd_monte_carlo_gap,
    sgd_quadratic_expected_gap,
    train,
)
from lrdual.scaling import fit_power_law, slope_gap


@contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {label}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {label}: PASS ({elapsed:.2f}s)", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_01_convexity_suite():
    with criterion(1, "convexity of dual coefficients", budget_s=10.0):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            spec, wd = random_spec_and_wd(rng, max_steps=5000)
            coeffs = coefficients_at(SmoothingSequence.from_lrs(lr_curve(spec), wd))
            c = coeffs.c
            assert np.all(c >= 0.0)
            assert abs(c.sum() - 1.0) <= 1e-12
        # full per-step tables on a smaller sample
        for _ in range(40):
            spec, wd = random_spec_and_wd(rng, max_steps=250)
            for log_c in iter_coefficient_rows(SmoothingSequence.from_lrs(lr_curve(spec), wd)):
                row = materialize_log_coefficients(log_c)
                assert np.all(row >= 0.0)
                assert abs(row.sum() - 1.0) <= 1e-12


def test_02_duality_identity():
    with criterion(2, "AdamW reconstruction from dual coefficients", budget_s=30.0):
        rng = np.random.default_rng(2002)
        decays = [0.01, 0.1, 1.0]
        for k in range(50):
            wd = decays[k % 3]
            spec, _ = random_spec_and_wd(rng, max_steps=5000, alpha_cap=0.9)
            # cap the peak so alpha = lr * wd stays inside [0, 1)
            while spec.peak_lr * wd >= 0.9:
                spec, _ = random_spec_and_wd(rng, max_steps=5000, alpha_cap=0.9)
            dim = int(rng.integers(1, 65))
            problem = QuadraticProblem(
                dim=dim,
                curvature=1.0,
                noise_var=float(rng.choice([0.0, 0.1])),
                theta0_dist_sq=float(dim),
            )
            trace = train(problem, lr_curve(spec), AdamWConfig(weight_decay=wd), seed=int(k))
            coeffs = coefficients_at(trace.smoothing())
            _, rel = reconstruct_from_updates(trace, coeffs)
            assert rel < 1e-9, f"trace {k}: relative error {rel}"


def test_03_init_coefficient_approximation():
    with criterion(3, "initial-coefficient approximation fidelity"):
        wd = 0.1
        for peak_alpha in (1e-3, 5e-4, 1e-4):
            for total in (100, 1000, 5000):
                spec = ScheduleSpec(
                    kind=ScheduleKind.LINEAR,
                    total_steps=total,
                    peak_base_lr=peak_alpha / wd,
                    warmup_steps=total // 10,
                    decay_ratio=0.0,
                )
                lrs = lr_curve(spec)
                seq = SmoothingSequence.from_lrs(lrs, wd)
                exact = init_coefficient(seq)
                approx = init_coefficient_approx(
                    float(np.mean(seq.alphas[1:])), len(seq)
                )
                assert abs(approx - exact) / exact <= 0.02
                # the dropped-first-step pairing via average_alpha agrees too
                abar = average_alpha(lrs, wd)
                trimmed = SmoothingSequence(
                    np.concatenate([[1.0], alpha_curve(lrs, wd)[1:]])
                )
                exact2 = init_coefficient(trimmed)
                assert abs(init_coefficient_approx(abar, total) - exact2) / exact2 <= 0.02
        # exact equality for constant smoothing
        for total in (10, 500, 5000):
            alphas = np.concatenate([[1.0], np.full(total, 9e-4)])
            seq = SmoothingSequence(alphas)
            exact = init_coefficient(seq)
            approx = init_coefficient_approx(float(np.mean(alphas[1:])), total + 1)
            assert abs(approx - exact) / exact <= 1e-13


def test_04_rational_uniformity():
    with criterion(4, "uniform dual coefficients of the rational schedule"):
        rng = np.random.default_rng(4004)
        for _ in range(20):
            total = int(rng.integers(60, 301))
            warmup = int(rng.integers(0, total // 3 + 1))
            peak = float(rng.uniform(0.1, 2.0))
            wd = float(rng.uniform(0.05, min(0.8, 0.9 / peak)))
            lrs = rational_schedule(peak, wd, total, warmup)
            seq = SmoothingSequence(np.concatenate([[1.0], lrs * wd]))
            rows = list(iter_coefficient_rows(seq))
            for t in range(warmup + 2, total + 2):  # moving-average step index
                post = materialize_log_coefficients(rows[t - 1])[warmup + 1 :]
                if len(post) < 2:
                    continue
                assert post.max() / post.min() == pytest.approx(1.0, abs=1e-9)


def test_05_inverse_design_round_trip():
    with criterion(5, "schedule recovery from target profiles"):
        rng = np.random.default_rng(5005)
        for _ in range(500):
            n = int(rng.integers(1, 400))
            alphas = np.concatenate(
                [[1.0], np.exp(rng.uniform(np.log(1e-6), np.log(0.5), n))]
            )
            c = coefficients_at(SmoothingSequence(alphas)).c
            out = schedule_from_coefficients(TargetProfile(c), weight_decay=0.1)
            live = alphas > 1e-300
            np.testing.assert_allclose(out.alphas[live], alphas[live], rtol=1e-10)
        # uniform profiles invert to the harmonic sequence of the rational
        # schedule at unit weight decay
        for n in (3, 10, 50, 200):
            out = schedule_from_coefficients(TargetProfile(np.full(n, 1.0 / n)), 1.0)
            harmonic = rational_schedule(1.0, 1.0, n, warmup_steps=0)
            np.testing.assert_allclose(out.alphas, harmonic, rtol=1e-12)
            assert out.alphas[0] == 1.0 and out.alphas[1] == pytest.approx(0.5, rel=1e-13)


def _analytic_final_gap(kind, ratio, peak, total, warmup, sigma2_eff):
    spec = ScheduleSpec(
        kind=ScheduleKind(kind),
        total_steps=total,
        peak_base_lr=peak,
        warmup_steps=warmup,
        decay_ratio=ratio,
    )
    return sgd_quadratic_expected_gap(lr_curve(spec), 1.0, sigma2_eff, 1.0)[-1]


def test_06_bias_variance_crossover():
    with criterion(6, "bias/variance crossover on the analytic quadratic", budget_s=20.0):
        # (a) no noise: sustained high LR beats decay-to-zero
        peaks = [0.002, 0.005, 0.01, 0.02]
        best_const = min(_analytic_final_gap("constant", 1.0, p, 300, 30, 0.0) for p in peaks)
        best_d2z = min(_analytic_final_gap("linear", 0.0, p, 300, 30, 0.0) for p in peaks)
        assert best_const <= best_d2z

        # (b) noise-dominated, long run: deeper decay wins at the shared peak
        gap_d2z = _analytic_final_gap("linear", 0.0, 0.1, 2000, 200, 1.0)
        gap_tenx = _analytic_final_gap("linear", 0.1, 0.1, 2000, 200, 1.0)
        gap_const = _analytic_final_gap("constant", 1.0, 0.1, 2000, 200, 1.0)
        assert gap_d2z < gap_tenx < gap_const

        # (c) fixed steps: the gap-minimizing peak LR never moves down as
        # batches grow
        grid = SweepGrid(
            schedules=(
                SweepSchedule(kind="linear", decay_ratio=0.0),
                SweepSchedule(kind="constant", decay_ratio=1.0),
            ),
            peak_lrs=tuple(np.geomspace(1e-3, 1.0, 13)),
            sigma2s=(4.0,),
            steps=(2000,),
            batches=(1, 2, 4, 8, 16, 32),
            mu=1.0,
            d0=1.0,
            warmup_frac=0.1,
        )
        results = run_noise_sweep(grid, mode="analytic", seed=0)
        for sched in ("linear", "constant"):
            argmins = []
            for batch in grid.batches:
                cells = [
                    (r.peak_lr, r.gap_analytic)
                    for r in results
                    if r.schedule == sched and r.batch == batch and r.stable
                ]
                argmins.append(min(cells, key=lambda kv: kv[1])[0])
            assert all(a <= b for a, b in zip(argmins, argmins[1:])), sched


def test_07_monte_carlo_consistency():
    with criterion(7, "Monte Carlo agreement with the analytic recursion", budget_s=60.0):
        rng = np.random.default_rng(20240817)
        kinds = ["linear", "cosine", "constant", "wsd"]
        for idx in range(100):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind in ("linear", "cosine"):
                ratio = float(rng.choice([0.0, 0.1]))
            else:
                ratio = 1.0 if kind == "constant" else 0.0
            peak = float(10 ** rng.uniform(-2, np.log10(0.3)))
            sigma2 = float(rng.uniform(0.1, 2.0))
            total = int(rng.integers(200, 1201))
            batch = int(rng.choice([1, 2, 4]))
            spec = ScheduleSpec(
                kind=ScheduleKind(kind),
                total_steps=total,
                peak_base_lr=peak,
                warmup_steps=total // 10,
                decay_ratio=ratio,
            )
            lrs = lr_curve(spec)
            analytic = sgd_quadratic_expected_gap(lrs, 1.0, sigma2 / batch, 1.0)[-1]
            mean, stderr = sgd_monte_carlo_gap(
                lrs, 1.0, sigma2 / batch, 1.0, trials=1000, seed=derive_seed(5, idx)
            )
            assert abs(mean - analytic) <= 3.0 * stderr, f"cell {idx}"


def test_08_order_fit_probe():
    with criterion(8, "training-order probe argmin structure"):
        seeds = range(48)
        segments = 8
        profiles = {}
        for kind, ratio in (("constant", 1.0), ("linear", 0.0)):
            lrs = lr_curve(ScheduleSpec(
                kind=ScheduleKind(kind),
                total_steps=400,
                peak_base_lr=0.05,
                warmup_steps=40,
                decay_ratio=ratio,
            ))
            profiles[kind] = np.mean(
                [order_fit_probe(segments, lrs, AdamWConfig(), seed=s) for s in seeds],
                axis=0,
            )
        assert int(np.argmin(profiles["constant"])) == segments - 1
        d2z_argmin = int(np.argmin(profiles["linear"]))
        assert 0 < d2z_argmin < segments - 1


def test_09_scaling_fit():
    with criterion(9, "power-law fitting"):
        rng = np.random.default_rng(9009)
        for _ in range(20):
            c = float(10 ** rng.uniform(-2, 2))
            m = float(rng.uniform(-1.5, 1.5))
            x = np.sort(10.0 ** rng.uniform(0, 5, 24))
            fit = fit_power_law(list(zip(x, c * x**m)))
            assert fit.coefficient == pytest.approx(c, rel=1e-12)
            assert fit.exponent == pytest.approx(m, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

        x = 10.0 ** np.linspace(0, 6, 50)
        noisy = 3.0 * x**-0.05 * np.exp(0.01 * np.random.default_rng(99).standard_normal(50))
        fit = fit_power_law(list(zip(x, noisy)))
        assert abs(fit.exponent - (-0.05)) <= 0.005

        base_x = np.array([1.0, 10.0, 100.0])
        steeper = fit_power_law(list(zip(base_x, 2.0 * base_x**-0.1025)))
        baseline = fit_power_law(list(zip(base_x, 2.0 * base_x**-0.1)))
        assert slope_gap(steeper, baseline) == pytest.approx(-0.025, rel=1e-12)


def test_10_fixtures(tmp_path):
    with criterion(10, "published configuration fixtures"):
        # width-ratio LR scaling rows
        assert mup_scale(1.6e-2, 0.125) == 2.0e-3
        assert mup_scale(6.5e-2, 0.125) == 8.125e-3
        assert mup_scale(3.2e-2, 0.125) == 4.0e-3

        # main-experiment step counts drive a golden schedule CSV
        out = tmp_path / "golden"
        assert main([
            "schedule", "--kind", "linear", "--ratio", "0",
            "--steps", "11752", "--warmup-frac", "0.1",
            "--peak-base", "1.6e-2", "--rho", "0.125",
            "--out", str(out),
        ]) == 0
        rows = (out / "schedule.csv").read_text().splitlines()[1:]
        assert len(rows) == 11752
        lrs = [float(r.split(",")[1]) for r in rows]
        assert lrs[1174] == 2.0e-3  # warmup rows = 1175; peak hit exactly
        assert max(lrs) == 2.0e-3
        assert all(lr < 2.0e-3 for lr in lrs[:1174])
        assert lrs[-1] == 0.0

        # step schedule drops to 0.1% of peak after 90% of training
        step_curve = lr_curve(ScheduleSpec(
            kind=ScheduleKind.STEP, total_steps=1000, peak_base_lr=1.0,
            warmup_steps=100,
            kind_params={"milestone_fraction": 0.9, "drop_fraction": 0.001},
        ))
        assert np.all(step_curve[900:] == 0.001)
        assert np.all(step_curve[100:900] == 1.0)

        # stable-then-decay cooldown occupies the final 22.5% of steps
        wsd_curve = lr_curve(ScheduleSpec(
            kind=ScheduleKind.WSD, total_steps=1000, peak_base_lr=1.0,
            warmup_steps=0, kind_params={"cooldown_fraction": 0.225},
        ))
        assert np.all(wsd_curve[:775] == 1.0)
        assert np.all(np.diff(wsd_curve[775:]) < 0.0)
        assert wsd_curve[-1] == 0.0


def test_11_golden_determinism(tmp_path):
    with criterion(11, "byte-identical CLI reruns"):
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.25\n2,0.25\n3,0.5\n")
        points = tmp_path / "points.csv"
        points.write_text("x,y\n1,4\n2,3.1\n4,2\n8,1.4\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "schedules": [
                {"kind": "linear", "decay_ratio": 0.0},
                {"kind": "wsd", "decay_ratio": 0.0,
                 "kind_params": {"cooldown_fraction": 0.225}},
            ],
            "peak_lrs": [0.05, 0.2],
            "sigma2s": [0.5, 1.0],
            "steps": [150],
            "batches": [1, 2],
            "trials": 200,
        }))

        commands = {
            "schedule": ["schedule", "--kind", "cosine", "--ratio", "0.1",
                         "--steps", "500", "--warmup", "50", "--svg"],
            "dual": ["dual", "--kind", "linear", "--steps", "300",
                     "--warmup", "30", "--wd", "0.1", "--svg"],
            "design": ["design", "--target", str(profile), "--wd", "0.1"],
            "rational": ["rational", "--peak", "0.5", "--wd", "0.2",
                         "--steps", "400", "--warmup", "40"],
            "simulate": ["simulate", "--kind", "linear", "--steps", "200",
                         "--warmup", "20", "--peak-base", "0.1",
                         "--dim", "4", "--sigma2", "0.3", "--seed", "11"],
            "sweep": ["sweep", "--config", str(grid), "--mode", "monte-carlo",
                      "--seed", "7", "--jobs", "1"],
            "fit": ["fit", "--in", str(points)],
        }
        for name, argv in commands.items():
            first = tmp_path / name / "run1"
            second = tmp_path / name / "run2"
            assert main([*argv, "--out", str(first)]) == 0
            assert main([*argv, "--out", str(second)]) == 0
            outputs = json.loads((first / "manifest.json").read_text())["outputs"]
            assert outputs
            for artifact in outputs:
                a = (first / artifact).read_bytes()
                b = (second / artifact).read_bytes()
                assert a == b, f"{name}/{artifact} differs between runs"
            # rerunning into the same directory reproduces the manifest too
            manifest_bytes = (first / "manifest.json").read_bytes()
            assert main([*argv, "--out", str(first)]) == 0
            assert (first / "manifest.json").read_bytes() == manifest_bytes

        # sweep parallelism must not change a byte
        par = tmp_path / "sweep" / "par"
        argv = commands["sweep"][:-2] + ["--jobs", "4"]
        assert main([*argv, "--out", str(par)]) == 0
        assert (par / "sweep.csv").read_bytes() == (
            tmp_path / "sweep" / "run1" / "sweep.csv"
        ).read_bytes()

        # replaying a manifest's argv reproduces its outputs
        manifest = json.loads((tmp_path / "schedule" / "run1" / "manifest.json").read_text())
        before = [
            (tmp_path / "schedule" / "run1" / o).read_bytes() for o in manifest["outputs"]
        ]
        assert main(manifest["argv"]) == 0
        after = [
            (tmp_path / "schedule" / "run1" / o).read_bytes() for o in manifest["outputs"]
        ]
        assert before == after
