"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import lrdual.schedules
from lrdual.cli import main
from lrdual.fileio import read_coefficient_matrix


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSchedule:
    def test_main_experiment_fixture(self, tmp_path):
        code = run(
            tmp_path,
            "schedule",
            "--kind", "linear",
            "--ratio", "0",
            "--steps", "11752",
            "--warmup-frac", "0.1",
            "--peak-base", "1.6e-2",
            "--rho", "0.125",
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "schedule.csv")
        assert header == ["step", "lr", "alpha"]
        assert len(rows) == 11752
        # warmup is 10% of total steps; the peak is hit exactly there
        assert float(rows[1174][1]) == 2.0e-3
        assert float(rows[1173][1]) < 2.0e-3
        assert float(rows[-1][1]) == 0.0

    def test_wsd_cooldown(self, tmp_path):
        code = run(
            tmp_path,
            "schedule",
            "--kind", "wsd",
            "--cooldown-frac", "0.225",
            "--steps", "1000",
            "--warmup", "0",
            "--peak-base", "1.0",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "schedule.csv")
        lrs = np.array([float(r[1]) for r in rows])
        assert np.all(lrs[:775] == 1.0)
        assert np.all(np.diff(lrs[775:]) < 0)
        assert lrs[-1] == 0.0

    def test_constant_flat(self, tmp_path):
        code = run(
            tmp_path,
            "schedule", "--kind", "constant", "--ratio", "1",
            "--steps", "20", "--warmup", "2", "--peak-base", "0.5",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "schedule.csv")
        assert all(float(r[1]) == 0.5 for r in rows[2:])

    def test_exact_reset_accepted(self, tmp_path):
        # peak * wd = 1: every step overwrites the average, as in dual and simulate
        code = run(
            tmp_path,
            "schedule", "--kind", "constant", "--warmup", "0", "--steps", "10",
            "--peak-base", "10", "--wd", "0.1",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "schedule.csv")
        assert [r[2] for r in rows] == ["1"] * 10

    def test_cyclic_needs_period(self, tmp_path, capsys):
        assert run(tmp_path, "schedule", "--kind", "cyclic", "--steps", "20") == 1
        assert "--period" in capsys.readouterr().err
        assert run(
            tmp_path, "schedule", "--kind", "cyclic", "--steps", "20",
            "--warmup", "2", "--period", "6",
        ) == 0

    def test_piecewise_from_multiplier_file(self, tmp_path):
        mult = tmp_path / "mult.txt"
        mult.write_text("1.0\n0.5\n0.25\n0.0\n")
        code = run(
            tmp_path, "schedule", "--kind", "piecewise", "--steps", "6",
            "--warmup", "2", "--peak-base", "1.0", "--multipliers", str(mult),
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "schedule.csv")
        assert [float(r[1]) for r in rows] == [0.5, 1.0, 1.0, 0.5, 0.25, 0.0]

    def test_svg_output(self, tmp_path):
        code = run(
            tmp_path,
            "schedule", "--kind", "cosine", "--steps", "50", "--warmup", "5",
            "--svg",
        )
        assert code == 0
        root = ET.parse(tmp_path / "schedule.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_invalid_flag_value_exits_1(self, tmp_path, capsys):
        code = run(tmp_path, "schedule", "--kind", "linear", "--steps", "10",
                   "--warmup", "10")
        assert code == 1
        assert "warmup" in capsys.readouterr().err


class TestDual:
    def test_constant_geometric_line(self, tmp_path):
        code = run(
            tmp_path,
            "dual", "--kind", "constant", "--ratio", "1", "--steps", "40",
            "--warmup", "0", "--peak-base", "0.02", "--wd", "0.5",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "coefficients.csv")
        assert len(rows) == 41
        log_c = np.array([float(r[2]) for r in rows[2:]])
        np.testing.assert_allclose(np.diff(log_c), -np.log(1 - 0.01), rtol=1e-9)

    def test_d2z_final_coefficient_zero_tenx_positive(self, tmp_path):
        for ratio, sub in (("0", "d2z"), ("0.1", "tenx")):
            out = tmp_path / sub
            out.mkdir()
            code = main(
                [
                    "dual", "--kind", "linear", "--ratio", ratio, "--steps", "60",
                    "--warmup", "6", "--peak-base", "0.02", "--wd", "0.5",
                    "--out", str(out),
                ]
            )
            assert code == 0
        _, d2z = read_rows(tmp_path / "d2z" / "coefficients.csv")
        _, tenx = read_rows(tmp_path / "tenx" / "coefficients.csv")
        assert float(d2z[-1][1]) == 0.0
        assert float(tenx[-1][1]) > 0.0

    def test_rational_flat_in_log_svg_domain(self, tmp_path):
        code = run(
            tmp_path,
            "dual", "--kind", "rational", "--steps", "80", "--warmup", "8",
            "--peak-base", "1.0", "--wd", "0.5", "--svg",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "coefficients.csv")
        c = np.array([float(r[1]) for r in rows])
        post = c[9:]
        assert post.max() / post.min() == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "dual.svg").exists()

    def test_matrix_export(self, tmp_path):
        flags = [
            "--kind", "linear", "--ratio", "0.1", "--steps", "6",
            "--warmup", "1", "--peak-base", "0.1", "--wd", "0.5",
        ]
        assert run(tmp_path, "dual", *flags, "--matrix") == 0
        path = tmp_path / "coefficient_matrix.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# log c_{t,i} = float64(P_t - P_i) + log_alpha_i ")
        assert lines[1] == "i,log_alpha,prefix_hi,prefix_lo"
        # 7 inputs, one generator row each
        assert [line.split(",")[0] for line in lines[2:]] == [str(i) for i in range(1, 8)]
        # each rebuilt row is the log_c column that --at-step writes for its step
        for t, row in enumerate(read_coefficient_matrix(path), start=1):
            if t == 1:
                assert row.tolist() == [0.0]
                continue
            out = tmp_path / f"at{t - 1}"
            assert run(out, "dual", *flags, "--at-step", str(t - 1)) == 0
            _, rows = read_rows(out / "coefficients.csv")
            assert row.tolist() == [float(r[2]) for r in rows]

    @pytest.mark.parametrize("steps", [1, 2, 64, 65, 1000])
    def test_matrix_is_one_row_per_input(self, tmp_path, steps):
        # the table's generators, not its (T + 1)(T + 2) / 2 entries
        assert run(tmp_path, "dual", "--steps", str(steps), "--matrix") == 0
        lines = (tmp_path / "coefficient_matrix.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == steps + 1

    def test_at_step_range_checked(self, tmp_path):
        code = run(
            tmp_path,
            "dual", "--kind", "linear", "--steps", "10", "--warmup", "1",
            "--at-step", "11",
        )
        assert code == 1

    def test_at_step_and_matrix_exclude_each_other(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(out, "dual", "--steps", "10", "--at-step", "99", "--matrix") == 1
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("lrdual:")
        ]
        assert lines == [
            "lrdual: validation error: argument --matrix: not allowed with argument --at-step"
        ]
        assert not out.exists()

    def test_exact_reset_keeps_only_the_last_update(self, tmp_path):
        code = run(
            tmp_path,
            "dual", "--kind", "constant", "--warmup", "0", "--steps", "10",
            "--peak-base", "10", "--wd", "0.1",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "coefficients.csv")
        assert [r[1] for r in rows] == ["0"] * 10 + ["1"]


class TestDesign:
    def test_uniform_profile(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.3333333333333333\n2,0.3333333333333333\n"
                           "3,0.3333333333333333\n")
        code = run(tmp_path, "design", "--target", str(profile), "--wd", "0.1")
        assert code == 0
        _, rows = read_rows(tmp_path / "designed_schedule.csv")
        alphas = [float(r[2]) for r in rows]
        assert alphas == pytest.approx([1.0, 0.5, 1.0 / 3.0], rel=1e-12)
        lrs = [float(r[1]) for r in rows]
        assert lrs[1] == pytest.approx(5.0, rel=1e-12)

    def test_rho_flag_exits_1(self, tmp_path, capsys):
        # the width ratio never entered the design; 0.2.0 removed the flag
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.25\n2,0.25\n3,0.5\n")
        assert run(tmp_path, "design", "--target", str(profile), "--rho", "0.5") == 1
        assert "unrecognized arguments: --rho" in capsys.readouterr().err
        assert not (tmp_path / "designed_schedule.csv").exists()

    @pytest.mark.parametrize("svg", [[], ["--svg"]], ids=["csv", "svg"])
    def test_overflowing_learning_rate_is_one_domain_line(self, tmp_path, capsys, svg):
        # lr = alpha / wd: 1 / 1e-310 is past the float range
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.5\n2,0.5\n")
        out = tmp_path / "out"
        assert run(out, "design", "--target", str(profile), "--wd", "1e-310", *svg) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error:")
        assert not (out / "designed_schedule.csv").exists()

    def test_unnormalized_profile_exits_1(self, tmp_path, capsys):
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,0.9\n2,0.9\n")
        code = run(tmp_path, "design", "--target", str(profile))
        assert code == 1
        assert "sum" in capsys.readouterr().err

    def test_domain_error_exits_2(self, tmp_path):
        # a valid weight decay whose 1 / wd overflows; --wd 0 is out of range (exit 1)
        profile = tmp_path / "profile.csv"
        profile.write_text("i,c\n1,1.0\n")
        code = run(tmp_path, "design", "--target", str(profile), "--wd", "1e-310")
        assert code == 2


class TestRational:
    def test_harmonic_csv(self, tmp_path):
        code = run(
            tmp_path, "rational", "--peak", "1.0", "--wd", "1.0", "--steps", "5",
            "--warmup", "0",
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "rational_schedule.csv")
        lrs = [float(r[1]) for r in rows]
        assert lrs == pytest.approx([1, 0.5, 1 / 3, 0.25, 0.2], rel=1e-12)

    def test_peak_alpha_above_one_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(out, "rational", "--peak", "20", "--wd", "0.1", "--steps", "5")
        assert code == 2
        assert "smoothing alpha=2.0 > 1 at step 1; " in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_reconstruction_error_reported_small(self, tmp_path):
        code = run(
            tmp_path,
            "simulate", "--kind", "linear", "--steps", "300", "--warmup", "30",
            "--peak-base", "0.1", "--wd", "0.1", "--dim", "6",
            "--sigma2", "0.2", "--seed", "5",
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["reconstruction_relative_error"] < 1e-9
        assert summary["tpp_analog"] == 300 / 6
        header, rows = read_rows(tmp_path / "trace.csv")
        assert header == ["step", "lr", "alpha", "dist_sq"]
        assert len(rows) == 300

    def test_huge_dim_is_one_domain_line(self, tmp_path, capsys):
        # numpy refuses 1e20 entries before allocating anything
        code = run(tmp_path, "simulate", "--steps", "10", "--dim", "100000000000000000000")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error: dim=")
        assert lines[0].endswith("too large to allocate: Maximum allowed dimension exceeded")

    def test_seed_beyond_64_bits_is_one_validation_line(self, tmp_path, capsys):
        # 2**64 used to be masked to 0 and replay seed 0's noise
        argv = ["simulate", "--steps", "50", "--dim", "3", "--sigma2", "1"]
        assert run(tmp_path, *argv, "--seed", str(2**64)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: validation error:")
        assert not (tmp_path / "manifest.json").exists()
        assert run(tmp_path / "top", *argv, "--seed", str(2**64 - 1)) == 0

    def test_divergence_exits_3(self, tmp_path, capsys):
        # lr = 1e308 throws theta to -1e308 in one step and the steep
        # gradient overflows; wd = 0 keeps lr * wd inside [0, 1]
        code = run(
            tmp_path,
            "simulate", "--kind", "constant", "--steps", "3000", "--warmup", "0",
            "--peak-base", "1e308", "--wd", "0", "--mu", "10",
        )
        assert code == 3
        assert capsys.readouterr().err == "lrdual: divergence: non-finite gradient at step 2\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # used to write trace.csv, then exit 2 without a manifest
            (["--steps", "200", "--dim", "3", "--sigma2", "0.5", "--peak-base", "20"],
             "smoothing alpha=1.1 > 1 at step 11; lower the learning rate or weight decay"),
            # used to train until the iterate diverged and exit 3 at step 422
            (["--steps", "2000", "--peak-base", "100"], "smoothing alpha=1.05 > 1 at step 21; lower the learning rate or weight decay"),
            # used to exit 3 at the first steps
            (["--kind", "constant", "--steps", "3000", "--warmup", "0",
              "--peak-base", "50.0", "--wd", "0.1"], "smoothing alpha=5.0 > 1 at step 1; lower the learning rate or weight decay"),
        ],
    )
    def test_peak_alpha_above_one_exits_2_before_writing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(out, "simulate", *argv) == 2
        assert capsys.readouterr().err == f"lrdual: domain error: {message}\n"
        assert not out.exists()

    def test_infinite_epsilon_is_one_validation_line(self, tmp_path, capsys):
        # every update used to be 0, leaving only weight decay to move theta
        out = tmp_path / "out"
        assert run(out, "simulate", "--steps", "10", "--eps", "inf") == 1
        assert capsys.readouterr().err == (
            "lrdual: validation error: epsilon must be a number in (0, inf), got inf\n"
        )
        assert not out.exists()

    def test_vanishing_weight_decay_is_one_domain_line(self, tmp_path, capsys):
        # x_t = -update / wd overflows at wd = 1e-320, so the sum is not finite
        out = tmp_path / "out"
        code = run(out, "simulate", "--steps", "10", "--dim", "3", "--wd", "1e-320")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error: the reconstructed parameters")
        assert not out.exists()

    def test_infinite_final_distance_is_one_domain_line(self, tmp_path, capsys):
        # summary.json used to hold "final_dist_sq": inf, which is not JSON
        out = tmp_path / "out"
        code = run(out, "simulate", "--steps", "2", "--d0", "1.7976931348623157e308",
                   "--dim", "3", "--wd", "0", "--peak-base", "1e-300")
        assert code == 2
        assert capsys.readouterr().err == (
            "lrdual: domain error: final_dist_sq is inf; JSON cannot hold it\n"
        )
        assert not out.exists()


def _grid_real_edges(config):
    """Sweep-grid documents with one real field set to a value outside its rule.

    The values are raw JSON text, so ``1e400`` reaches the parser as written.
    """
    fields = {
        "mu": {"mu": "@"},
        "d0": {"d0": "@"},
        "warmup_frac": {"warmup_frac": "@"},
        "peak_lrs": {"peak_lrs": ["@"]},
        "sigma2s": {"sigma2s": ["@"]},
        "decay_ratio": {"schedules": [{"kind": "linear", "decay_ratio": "@"}]},
        "cooldown_fraction": {
            "schedules": [{"kind": "wsd", "kind_params": {"cooldown_fraction": "@"}}]
        },
    }
    values = ("true", '"0.1"', "null", "-1", "1e400", "NaN", "-Infinity", "[]", "{}")
    return [
        pytest.param(json.dumps({**config, **field}).replace('"@"', value), id=f"{name}={value}")
        for name, field in fields.items()
        for value in values
    ]


class TestSweep:
    CONFIG = {
        "schedules": [
            {"kind": "linear", "decay_ratio": 0.0},
            {"kind": "constant", "decay_ratio": 1.0},
        ],
        "peak_lrs": [0.05, 0.2, 3.0],
        "sigma2s": [0.5],
        "steps": [80],
        "batches": [1, 4],
        "mu": 1.0,
        "d0": 1.0,
        "warmup_frac": 0.1,
        "trials": 100,
    }

    def _write_config(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_analytic_rows_sorted_and_flagged(self, tmp_path):
        config = self._write_config(tmp_path)
        code = run(tmp_path, "sweep", "--config", str(config), "--mode", "analytic")
        assert code == 0
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header == [
            "schedule", "peak_lr", "decay_ratio", "sigma2", "batch", "steps",
            "gap_analytic", "gap_mc_mean", "gap_mc_stderr", "stable", "schedule_index",
        ]
        assert len(rows) == 12
        keys = [(r[0], float(r[1])) for r in rows]
        assert keys == sorted(keys)
        unstable = [r for r in rows if r[9] == "false"]
        assert unstable and all(float(r[1]) == 3.0 for r in unstable)
        assert all(r[6] == "" for r in unstable)
        assert (tmp_path / "sweep_config.json").exists()

    def test_schedules_differing_only_in_kind_params_are_told_apart(self, tmp_path):
        # both cyclic rows used to read "cyclic,0.10000000000000001,0,..."
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            **self.CONFIG, "peak_lrs": [0.1], "batches": [1],
            "schedules": [{"kind": "cyclic", "kind_params": {"period_steps": period}}
                          for period in (10, 7)],
        }))
        assert run(tmp_path, "sweep", "--config", str(path), "--mode", "monte-carlo") == 0
        header, rows = read_rows(tmp_path / "sweep.csv")
        twin = ["cyclic", "0.10000000000000001", "0", "0.5", "1", "80"]
        assert [r[:6] for r in rows] == [twin, twin]
        assert [r[header.index("schedule_index")] for r in rows] == ["0", "1"]
        assert rows[0][6] != rows[1][6]
        echo = json.loads((tmp_path / "sweep_config.json").read_text())
        assert [s["kind_params"]["period_steps"] for s in echo["schedules"]] == [10, 7]

    def test_parallelism_is_byte_identical(self, tmp_path):
        config = self._write_config(tmp_path)
        out1 = tmp_path / "j1"
        out2 = tmp_path / "j4"
        assert main(["sweep", "--config", str(config), "--mode", "monte-carlo",
                     "--seed", "9", "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(config), "--mode", "monte-carlo",
                     "--seed", "9", "--jobs", "4", "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_seed_beyond_64_bits_accepted(self, tmp_path):
        # cell seeds are hashed from the base seed, so any size works
        config = self._write_config(tmp_path)
        assert run(tmp_path, "sweep", "--config", str(config), "--mode", "monte-carlo",
                   "--seed", str(2**64)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["base_seed"] == 2**64

    def test_jobs_below_one_exits_1(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        assert run(tmp_path, "sweep", "--config", str(config), "--jobs", "0") == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document",
        [
            {"steps": [2.7]},
            {"trials": 3.9},
            {"batches": [True]},
            {"steps": ["5"]},
            {"steps": [10**400]},
            {"batches": [0]},
            {"batches": [-1]},
            {"sigma2s": [-1]},
            {"sigma2s": [float("nan")]},
            {"d0": float("nan")},
            {"peak_lrs": ["0.05"]},
            {"schedules": [{"kind": "bogus"}]},
            {"schedules": [{"kind": "linear", "kind_params": {"zzz": 1}}]},
            {"schedules": [{"kind": "wsd", "kind_params": {"cooldown_fraction": "x"}}]},
            {"schedules": [{"kind": "wsd", "kind_params": {"cooldown_fraction": [1]}}]},
            {"schedules": [{"kind": "wsd", "kind_params": {"cooldown_fraction": {}}}]},
            {"schedules": [{"kind": "wsd", "kind_params": {"cooldown_fraction": True}}]},
            {"schedules": [{"kind": "step", "kind_params": {"drop_fraction": "0.1"}}]},
            {"schedules": [{"kind": "cyclic", "kind_params": {"period_steps": True}}]},
            {"schedules": [{"kind": "piecewise", "kind_params": {"multipliers": "abc"}}]},
            {"schedules": [{"kind": "piecewise", "kind_params": {"multipliers": {}}}]},
            {"schedules": [{"kind": "piecewise", "kind_params": {"multipliers": [[1], [1, 2]]}}]},
            {"schedules": [{"kind": "linear"},
                           {"kind": "wsd", "kind_params": {"cooldown_fraction": 2.0}}]},
            {"peak_lrs": [0.05, 0]},
            {"peak_lrs": [-0.1]},
            {"trials": 1},
            {"trials": False},
            *_grid_real_edges(CONFIG),
            "{not json",
            "",
            b"\xff\xfe{",
        ],
        ids=lambda d: repr(d)[:40],
    )
    def test_bad_grid_is_one_validation_line(self, tmp_path, capsys, document):
        path = tmp_path / "grid.json"
        if isinstance(document, dict):
            path.write_text(json.dumps({**self.CONFIG, **document}))
        elif isinstance(document, str):
            path.write_text(document)
        else:
            path.write_bytes(document)
        assert run(tmp_path, "sweep", "--config", str(path)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: validation error:")


    @pytest.mark.parametrize(
        "document, key",
        [({"extra": 1}, "'extra' in the grid"),
         ({"schedules": [{"kind": "linear", "decay": 0.1}]}, "'decay' in schedule 0")],
        ids=["top-level", "schedule"],
    )
    def test_unknown_key_exits_1_before_out_is_made(self, tmp_path, capsys, document, key):
        # a misspelt decay_ratio used to run with its default 0.0 and exit 0
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**self.CONFIG, **document}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"lrdual: validation error: sweep grid: unknown key {key}; it accepts "
            + ("kind, decay_ratio, kind_params\n" if "schedule" in key else
               "schedules, peak_lrs, sigma2s, steps, batches, mu, d0, warmup_frac, trials\n")
        )
        assert not out.exists()

    def test_config_echo_is_not_a_grid(self, tmp_path, capsys):
        # sweep_config.json adds base_seed and mode to the grid's fields, keys sorted
        config = self._write_config(tmp_path)
        assert run(tmp_path, "sweep", "--config", str(config)) == 0
        capsys.readouterr()
        echo = tmp_path / "sweep_config.json"
        assert main(["sweep", "--config", str(echo), "--out", str(tmp_path / "again")]) == 1
        assert "unknown key 'base_seed' in the grid" in capsys.readouterr().err

    def test_config_echo_writes_reals_as_floats(self, tmp_path):
        # integral JSON numbers in real fields echo as floats, counts as ints
        document = {**self.CONFIG, "schedules": [{"kind": "linear", "decay_ratio": 0}],
                    "peak_lrs": [1], "sigma2s": [0], "mu": 2, "d0": 1, "warmup_frac": 0,
                    "steps": [80.0]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(document))
        assert run(tmp_path, "sweep", "--config", str(path)) == 0
        echo = (tmp_path / "sweep_config.json").read_text()
        for text in ('"decay_ratio": 0.0', '"peak_lrs": [\n    1.0\n  ]',
                     '"sigma2s": [\n    0.0\n  ]', '"mu": 2.0', '"d0": 1.0',
                     '"warmup_frac": 0.0', '"steps": [\n    80\n  ]'):
            assert text in echo

    def test_huge_steps_is_one_domain_line(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**self.CONFIG, "steps": [10**20]}))
        assert run(tmp_path, "sweep", "--config", str(path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error:")

    @pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
    @pytest.mark.parametrize(
        "document, overflows",
        [
            # the analytic gap stays finite; the Monte Carlo spread squares past 1e308
            ({"sigma2s": [1e300], "d0": 1e300}, {"analytic": None,
                                                 "monte-carlo": "gap_mc_stderr is inf"}),
            ({"peak_lrs": [1e308], "sigma2s": [1e308], "mu": 1e-308},
             {"analytic": "gap_analytic is inf", "monte-carlo": "gap_analytic is inf"}),
        ],
        ids=["huge-noise-and-start", "huge-peak-tiny-mu"],
    )
    def test_overflowing_cell_is_one_domain_line(self, tmp_path, capsys, document, overflows,
                                                 mode):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**self.CONFIG, **document}))
        code = run(tmp_path, "sweep", "--config", str(path), "--mode", mode)
        lines = capsys.readouterr().err.splitlines()
        if overflows[mode] is None:
            assert code == 0 and lines == []
            _, rows = read_rows(tmp_path / "sweep.csv")
            assert all(np.isfinite(float(r[6])) for r in rows if r[9] == "true")
        else:
            assert code == 2
            assert len(lines) == 1
            assert lines[0].startswith("lrdual: domain error: sweep cell 0 (linear, ")
            assert lines[0].endswith(overflows[mode])
            assert not (tmp_path / "sweep.csv").exists()

    def test_huge_trials_is_one_domain_line(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**self.CONFIG, "trials": 10**20}))
        code = run(tmp_path, "sweep", "--config", str(path), "--mode", "monte-carlo")
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error: trials=")


class TestFit:
    def test_exact_two_point_json(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y\n1,4\n4,2\n")
        code = run(tmp_path, "fit", "--in", str(points))
        assert code == 0
        text = (tmp_path / "fit.json").read_text()
        assert text == '{"c": 4, "m": -0.5, "r_squared": 1}\n'

    def test_nonpositive_point_exits_2(self, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y\n1,4\n4,-2\n")
        assert run(tmp_path, "fit", "--in", str(points)) == 2

    def test_missing_file_exits_4(self, tmp_path):
        assert run(tmp_path, "fit", "--in", str(tmp_path / "nope.csv")) == 4

    def test_overflowing_coefficient_is_one_domain_line(self, tmp_path, capsys):
        # fit.json used to hold "c": inf, and two RuntimeWarnings leaked
        points = tmp_path / "points.csv"
        points.write_text("x,y\n1e-100,1e-300\n2e-100,1e300\n")
        out = tmp_path / "out"
        assert run(out, "fit", "--in", str(points), "--svg") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error: fitted coefficient is inf")
        assert not out.exists()

    def test_overflowing_fit_curve_is_one_domain_line(self, tmp_path, capsys):
        # c = 1e-300 and m = 60 fit; the curve overflows at x = 1e10, and
        # fit.svg used to hold a "nan" point while two RuntimeWarnings leaked
        points = tmp_path / "points.csv"
        points.write_text("x,y\n1,1e-300\n1e10,1e300\n")
        out = tmp_path / "out"
        assert run(out, "fit", "--in", str(points), "--svg") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["lrdual: domain error: plot series 'fit' has a non-finite coordinate"]
        assert not (out / "fit.svg").exists()
        assert not (out / "manifest.json").exists()


class TestDriver:
    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert run(tmp_path, "schedule", "--steps", "10", "--bogus") == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_seed_exits_1(self, tmp_path):
        assert run(tmp_path, "schedule", "--steps", "10", "--seed", "-1") == 1

    def test_manifest_written_with_argv(self, tmp_path):
        argv = ["schedule", "--kind", "linear", "--steps", "12", "--warmup", "2",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest) == [
            "argv", "base_seed", "command", "config", "outputs", "version",
        ]
        assert manifest["command"] == "schedule"
        assert manifest["argv"] == argv
        assert manifest["outputs"] == ["schedule.csv"]
        assert manifest["version"]

    def test_manifest_records_non_finite_flag_as_its_repr(self, tmp_path):
        # linear ignores --milestone-frac; JSON has no nan, so the manifest holds "nan"
        argv = ["schedule", "--kind", "linear", "--steps", "10", "--milestone-frac", "nan"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["milestone_frac"] == "nan"

    def test_rerun_from_manifest_reproduces_bytes(self, tmp_path):
        out = tmp_path / "a"
        argv = ["dual", "--kind", "cosine", "--steps", "40", "--warmup", "4",
                "--wd", "0.2", "--out", str(out)]
        assert main(argv) == 0
        first = (out / "coefficients.csv").read_bytes()
        manifest_bytes = (out / "manifest.json").read_bytes()
        replay = json.loads((out / "manifest.json").read_text())["argv"]
        assert main(replay) == 0
        assert (out / "coefficients.csv").read_bytes() == first
        assert (out / "manifest.json").read_bytes() == manifest_bytes

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule"],
            ["dual"],
            ["simulate"],
            ["rational", "--peak", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_huge_step_count_is_one_domain_line(self, tmp_path, capsys, argv):
        # numpy refuses 1e20 float64 entries before allocating anything
        assert run(tmp_path, *argv, "--steps", "100000000000000000000") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error:")

    @pytest.mark.parametrize("steps", [2**63 - 2, 2**63 - 1, 2**63])
    @pytest.mark.parametrize(
        "argv",
        [["schedule"], ["dual"], ["simulate"], ["rational", "--peak", "1"]],
        ids=lambda argv: argv[0],
    )
    def test_step_count_numpy_wraps_is_one_domain_line(self, tmp_path, capsys, argv, steps):
        # numpy turns these lengths into an empty arange instead of refusing them
        assert run(tmp_path, *argv, "--steps", str(steps)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"lrdual: domain error: total_steps={steps} is too large to allocate"]
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["schedule"], ["dual"], ["dual", "--matrix"], ["simulate"], ["simulate", "--wd", "0"]],
        ids=" ".join,
    )
    def test_each_command_evaluates_its_schedule_once(self, tmp_path, monkeypatch, argv):
        # lr_curve is the only caller of step_array
        calls = []
        evaluate = lrdual.schedules.step_array

        def counted(total_steps):
            calls.append(total_steps)
            return evaluate(total_steps)

        monkeypatch.setattr(lrdual.schedules, "step_array", counted)
        assert run(tmp_path, *argv, "--kind", "cosine", "--steps", "30", "--svg") == 0
        assert calls == [30]

    @pytest.mark.parametrize("command", ["schedule", "dual", "simulate"])
    def test_overflowing_rational_decay_is_one_domain_line(self, tmp_path, capsys, command):
        # wd * peak * (t - W) overflows; the alpha > 1 rule refuses the schedule
        argv = [command, "--kind", "rational", "--steps", "20", "--peak-base", "1e308"]
        assert run(tmp_path, *argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: domain error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--target"],
            ["fit", "--in"],
            ["schedule", "--kind", "piecewise", "--steps", "4", "--warmup", "1",
             "--multipliers"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_utf8_input_is_one_validation_line(self, tmp_path, capsys, argv):
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xff\xfe1,1\n")
        assert run(tmp_path, *argv, str(path)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("lrdual: validation error:")


SCHEDULE_CONFIG = {
    "kind": "wsd",
    "steps": 20,
    "warmup": 2,
    "warmup_frac": 0.1,
    "peak_base": 0.016,
    "rho": 1.0,
    "ratio": 0.0,
    "wd": 0.1,
    "milestone_frac": 0.9,
    "drop_frac": 0.001,
    "cooldown_frac": 0.5,
    "period": None,
    "multipliers": None,
}
SCHEDULE_ARGV = ["--kind", "wsd", "--steps", "20", "--warmup", "2", "--cooldown-frac", "0.5"]


@pytest.mark.parametrize(
    "command", ["schedule", "dual", "design", "rational", "simulate", "sweep", "fit"]
)
def test_manifest_config_records_every_flag_but_out_seed_svg(tmp_path, command):
    profile = tmp_path / "profile.csv"
    profile.write_text("i,c\n1,0.5\n2,0.5\n")
    points = tmp_path / "points.csv"
    points.write_text("x,y\n1,4\n4,2\n")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**TestSweep.CONFIG, "trials": 10}))
    argv, config = {
        "schedule": (SCHEDULE_ARGV, SCHEDULE_CONFIG),
        "dual": (
            SCHEDULE_ARGV + ["--at-step", "5"],
            {**SCHEDULE_CONFIG, "at_step": 5, "matrix": False},
        ),
        "design": (
            ["--target", str(profile), "--wd", "0.5"],
            {"target": str(profile), "wd": 0.5},
        ),
        "rational": (
            ["--peak", "1", "--steps", "5"],
            {"peak": 1.0, "wd": 0.1, "steps": 5, "warmup": 0},
        ),
        "simulate": (
            SCHEDULE_ARGV + ["--dim", "3", "--sigma2", "0.5"],
            {
                **SCHEDULE_CONFIG,
                "dim": 3,
                "mu": 1.0,
                "sigma2": 0.5,
                "d0": 1.0,
                "batch": 1,
                "beta1": 0.9,
                "beta2": 0.95,
                "eps": 1e-8,
            },
        ),
        "sweep": (
            ["--config", str(grid), "--jobs", "3"],
            {"config": str(grid), "mode": "analytic", "jobs": 3},
        ),
        "fit": (["--in", str(points)], {"in": str(points)}),
    }[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--seed", "4", "--svg", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["base_seed"] == 4
    assert manifest["config"] == config


OUTPUT_CASES = {
    "schedule": (["schedule", *SCHEDULE_ARGV, "--svg"], ["schedule.csv", "schedule.svg"]),
    "dual": (["dual", *SCHEDULE_ARGV, "--svg"], ["coefficients.csv", "dual.svg"]),
    "dual-matrix": (
        ["dual", *SCHEDULE_ARGV, "--matrix", "--svg"],
        ["coefficient_matrix.csv"],
    ),
    "design": (
        ["design", "--target", "{profile}", "--svg"],
        ["designed_schedule.csv", "design.svg"],
    ),
    "rational": (
        ["rational", "--peak", "1", "--steps", "5", "--svg"],
        ["rational_schedule.csv", "rational.svg"],
    ),
    "simulate": (
        ["simulate", *SCHEDULE_ARGV, "--dim", "3", "--svg"],
        ["trace.csv", "summary.json", "simulate.svg"],
    ),
    "simulate-wd0": (
        ["simulate", *SCHEDULE_ARGV, "--dim", "3", "--wd", "0", "--svg"],
        ["trace.csv", "summary.json", "simulate.svg"],
    ),
    "sweep": (["sweep", "--config", "{grid}", "--svg"], ["sweep.csv", "sweep_config.json"]),
    "fit": (["fit", "--in", "{points}", "--svg"], ["fit.json", "fit.svg"]),
}


@pytest.mark.parametrize("case", list(OUTPUT_CASES))
def test_manifest_lists_exactly_the_files_written(tmp_path, case):
    inputs = {
        "profile": tmp_path / "profile.csv",
        "points": tmp_path / "points.csv",
        "grid": tmp_path / "grid.json",
    }
    inputs["profile"].write_text("i,c\n1,0.5\n2,0.5\n")
    inputs["points"].write_text("x,y\n1,4\n4,2\n")
    inputs["grid"].write_text(json.dumps({**TestSweep.CONFIG, "trials": 10}))
    argv, outputs = OUTPUT_CASES[case]
    out = tmp_path / "out"
    assert main([arg.format(**inputs) for arg in argv] + ["--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["outputs"] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
    if case == "simulate-wd0":
        summary = (out / "summary.json").read_text()
        assert '"reconstruction_relative_error": null' in summary
        assert json.loads(summary)["reconstruction_relative_error"] is None


# A refused input on a fresh --out path: each command checks its inputs
# before it creates the directory.
REFUSED_CASES = {
    "schedule": ["schedule", "--steps", "5", "--peak-base", "20"],
    "dual": ["dual", "--steps", "5", "--peak-base", "20"],
    "design": ["design", "--target", "{profile}"],
    "rational": ["rational", "--peak", "20", "--steps", "5"],
    "sweep": ["sweep", "--config", "{grid}"],
}


@pytest.mark.parametrize("case", list(REFUSED_CASES))
def test_refused_input_leaves_no_out_directory(tmp_path, capsys, case):
    profile, grid = tmp_path / "profile.csv", tmp_path / "grid.json"
    profile.write_text("i,c\n1,0.9\n2,0.9\n")  # sums to 1.8
    grid.write_text(json.dumps({k: v for k, v in TestSweep.CONFIG.items() if k != "peak_lrs"}))
    out = tmp_path / "fresh" / "out"
    argv = [arg.format(profile=profile, grid=grid) for arg in REFUSED_CASES[case]]
    assert main([*argv, "--out", str(out)]) in (1, 2)
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "fresh").exists()


# An input file without a data row: a header only, or only comments.
EMPTY_INPUT_CASES = {
    "profile": (["design", "--target", "{path}"], "i,c\n"),
    "points": (["fit", "--in", "{path}"], "x,y\n"),
    "multipliers": (
        ["schedule", "--kind", "piecewise", "--steps", "5", "--multipliers", "{path}"],
        "# no values\n",
    ),
}


@pytest.mark.parametrize("case", list(EMPTY_INPUT_CASES))
def test_input_without_data_rows_is_one_validation_line(tmp_path, capsys, case):
    argv, text = EMPTY_INPUT_CASES[case]
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert run(tmp_path / "out", *[arg.format(path=path) for arg in argv]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"lrdual: validation error: {path}: no data rows"]
