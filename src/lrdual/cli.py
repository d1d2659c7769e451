"""Command-line surface: batch emitters for CSV tables and static SVG plots.

Every command writes its outputs plus a ``manifest.json`` into ``--out``;
replaying the manifest's argv under the ``version`` it records reproduces
the outputs byte for byte. Exit codes: 1 validation, 2 domain/infeasibility,
3 divergence, 4 I/O.
"""

from __future__ import annotations

import os
import sys

# numpy's OpenBLAS starts a worker thread per extra core when numpy loads.
# A command's only BLAS calls are two vector norms, so the worker only burns
# CPU, and its split reductions tie the last digits of
# ``reconstruction_relative_error`` to the core count. One thread unless the
# environment says otherwise; once numpy is loaded the setting is moot.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .designer import rational_schedule, schedule_from_coefficients
from .dual import SmoothingSequence, coefficients_at
from .errors import DivergenceError, DomainError, LRDualError, ValidationError, check_count
from .fileio import (
    columns_text,
    float_json_text,
    json_text,
    read_multipliers,
    read_points,
    read_target_profile,
    svg_line_plot,
    write_coefficient_matrix_csv,
    write_coefficients_csv,
    write_fit_json,
    write_schedule_csv,
    write_sweep_csv,
    write_text_file,
)
from .scaling import fit_power_law
from .schedules import (
    KIND_PARAMS,
    ScheduleKind,
    ScheduleSpec,
    alpha_curve,
    lr_curve,
    steps_from_fraction,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DOMAIN = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument("--svg", action="store_true", help="also write an SVG plot")


def _schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        default="linear",
        choices=[k.value for k in ScheduleKind],
        help="schedule shape (default: linear)",
    )
    parser.add_argument("--steps", type=int, required=True, help="total optimizer steps")
    warm = parser.add_mutually_exclusive_group()
    warm.add_argument("--warmup", type=int, default=None, help="warmup steps")
    warm.add_argument(
        "--warmup-frac",
        type=float,
        default=0.1,
        help="warmup as a fraction of total steps (default: 0.1)",
    )
    parser.add_argument(
        "--peak-base", type=float, default=1.6e-2, help="peak base LR (default: 1.6e-2)"
    )
    parser.add_argument(
        "--rho", type=float, default=1.0, help="width-ratio LR factor (default: 1.0)"
    )
    parser.add_argument(
        "--ratio", type=float, default=0.0, help="decay ratio, min LR / peak (default: 0)"
    )
    parser.add_argument(
        "--wd", type=float, default=0.1, help="weight decay for alpha columns (default: 0.1)"
    )
    step, wsd = KIND_PARAMS[ScheduleKind.STEP], KIND_PARAMS[ScheduleKind.WSD]
    for flag, default, what in [
        ("--milestone-frac", step["milestone_fraction"], "step kind: drop point"),
        ("--drop-frac", step["drop_fraction"], "step kind: post-drop LR fraction"),
        ("--cooldown-frac", wsd["cooldown_fraction"], "wsd kind: cooldown fraction"),
    ]:
        parser.add_argument(
            flag, type=float, default=default, help=f"{what} (default: %(default)s)"
        )
    parser.add_argument("--period", type=int, default=None, help="cyclic kind: period steps")
    parser.add_argument(
        "--multipliers", default=None, help="piecewise kind: file with one multiplier per line"
    )


def _spec_from_args(args) -> ScheduleSpec:
    kind = ScheduleKind(args.kind)
    warmup = (
        args.warmup
        if args.warmup is not None
        else steps_from_fraction(args.warmup_frac, args.steps)
    )
    kind_params = {}
    if kind is ScheduleKind.STEP:
        kind_params = {
            "milestone_fraction": args.milestone_frac,
            "drop_fraction": args.drop_frac,
        }
    elif kind is ScheduleKind.WSD:
        kind_params = {"cooldown_fraction": args.cooldown_frac}
    elif kind is ScheduleKind.CYCLIC:
        if args.period is None:
            raise ValidationError("--period is required for --kind cyclic")
        kind_params = {"period_steps": args.period}
    elif kind is ScheduleKind.RATIONAL:
        kind_params = {"weight_decay": args.wd}
    elif kind is ScheduleKind.PIECEWISE:
        if args.multipliers is None:
            raise ValidationError("--multipliers is required for --kind piecewise")
        kind_params = {"multipliers": read_multipliers(Path(args.multipliers))}
    return ScheduleSpec(
        kind=kind,
        total_steps=args.steps,
        peak_base_lr=args.peak_base,
        warmup_steps=warmup,
        mup_factor=args.rho,
        decay_ratio=args.ratio,
        kind_params=kind_params,
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# Flags that are not part of a command's configuration: the parser's own
# bookkeeping, where the outputs go, the seed (recorded as ``base_seed``) and
# the plot switch.
_NOT_CONFIG = ("command", "handler", "out", "seed", "svg")


def _write_manifest(args, argv, outputs: List[str]) -> None:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    if "in_path" in config:
        config["in"] = config.pop("in_path")
    document = {
        "command": args.command,
        "argv": argv,
        "config": config,
        "version": __version__,
        "base_seed": args.seed,
        "outputs": outputs,
    }
    write_text_file(_out_dir(args) / "manifest.json", json_text(document))


# -- commands ---------------------------------------------------------------------
#
# Each command writes its tables into --out and returns their file names, in
# manifest order, and the plot --svg draws: a (file name, series, keyword
# arguments of svg_line_plot) triple, or None for no plot.


def _cmd_schedule(args):
    spec = _spec_from_args(args)
    lrs = lr_curve(spec)
    alphas = alpha_curve(lrs, args.wd)
    write_schedule_csv(_out_dir(args) / "schedule.csv", lrs, alphas)
    steps = np.arange(1, spec.total_steps + 1)
    style = dict(title="learning rate schedule", x_label="step", y_label="learning rate")
    return ["schedule.csv"], ("schedule.svg", [(spec.kind.value, steps, lrs)], style)


def _cmd_dual(args):
    spec = _spec_from_args(args)
    seq = SmoothingSequence.from_lrs(lr_curve(spec), args.wd)
    if args.matrix:
        write_coefficient_matrix_csv(_out_dir(args) / "coefficient_matrix.csv", seq)
        return ["coefficient_matrix.csv"], None
    at = spec.total_steps if args.at_step is None else args.at_step
    if not 1 <= at <= spec.total_steps:
        raise ValidationError(
            f"--at-step {at} outside the schedule range 1..{spec.total_steps}"
        )
    coeffs = coefficients_at(SmoothingSequence(seq.alphas[: at + 1]))
    write_coefficients_csv(_out_dir(args) / "coefficients.csv", coeffs)
    series = [(f"{spec.kind.value} duals", np.arange(1, coeffs.t + 1), coeffs.c)]
    style = dict(
        title="update-combination coefficients",
        x_label="input index",
        y_label="coefficient",
        log_y=True,
    )
    return ["coefficients.csv"], ("dual.svg", series, style)


def _cmd_design(args):
    profile = read_target_profile(Path(args.target))
    designed = schedule_from_coefficients(profile, args.wd)
    # the first row is the initial-weights pseudo-step with alpha = 1
    write_schedule_csv(_out_dir(args) / "designed_schedule.csv", designed.lrs, designed.alphas)
    idx = np.arange(1, len(designed.alphas) + 1)
    style = dict(title="designed schedule", x_label="step", y_label="learning rate")
    series = [("designed", idx, designed.lrs)]
    return ["designed_schedule.csv"], ("design.svg", series, style)


def _cmd_rational(args):
    lrs = rational_schedule(args.peak, args.wd, args.steps, args.warmup)
    alphas = alpha_curve(lrs, args.wd)
    write_schedule_csv(_out_dir(args) / "rational_schedule.csv", lrs, alphas)
    steps = np.arange(1, args.steps + 1)
    style = dict(title="rational schedule", x_label="step", y_label="learning rate")
    return ["rational_schedule.csv"], ("rational.svg", [("rational", steps, lrs)], style)


def _cmd_simulate(args):
    # Only simulate and sweep load the oracle; they import from the package,
    # where bench/tracer.py rebinds the names it traces.
    from .oracle import AdamWConfig, QuadraticProblem, reconstruct, stream

    spec = _spec_from_args(args)
    problem = QuadraticProblem(
        dim=args.dim,
        curvature=args.mu,
        noise_var=args.sigma2,
        theta0_dist_sq=args.d0,
        batch_size=args.batch,
    )
    config = AdamWConfig(
        weight_decay=args.wd, beta1=args.beta1, beta2=args.beta2, epsilon=args.eps
    )
    lrs = lr_curve(spec)
    # The coefficients depend only on the schedule: building the sequence
    # first refuses peak * wd > 1 before anything is trained or written.
    seq = SmoothingSequence.from_lrs(lrs, args.wd)
    coeffs = coefficients_at(seq) if args.wd > 0 else None
    optimum = problem.theta_star()
    dist_sq = np.empty(spec.total_steps)
    diff = np.empty(args.dim)

    def rows():
        for t, theta, x in stream(problem, lrs, config, seed=args.seed):
            if t:
                np.subtract(theta, optimum, out=diff)
                np.square(diff, out=diff)
                dist_sq[t - 1] = diff.sum()
            yield theta, x

    rel_err = None
    # A squared distance past the float range becomes inf; the summary
    # refuses an infinite final one before anything is written.
    with np.errstate(over="ignore"):
        if coeffs is None:
            for _ in rows():
                pass
        else:
            _, rel_err = reconstruct(coeffs.c, rows())
    summary = float_json_text(
        {
            "final_dist_sq": dist_sq[-1],
            "reconstruction_relative_error": rel_err,
            "tpp_analog": spec.total_steps * args.batch / args.dim,
        }
    )
    out = _out_dir(args)
    write_text_file(
        out / "trace.csv", columns_text("step,lr,alpha,dist_sq", lrs, seq.alphas[1:], dist_sq)
    )
    write_text_file(out / "summary.json", summary)
    series = [("squared distance", np.arange(1, spec.total_steps + 1), dist_sq)]
    style = dict(
        title="distance to optimum", x_label="step", y_label="squared distance", log_y=True
    )
    return ["trace.csv", "summary.json"], ("simulate.svg", series, style)


def _cmd_sweep(args):
    from .oracle import SweepGrid, run_noise_sweep

    check_count("--jobs", args.jobs)
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"malformed JSON in {args.config}: {exc}") from exc
    grid = SweepGrid.from_mapping(document)
    results = run_noise_sweep(grid, mode=args.mode, seed=args.seed)
    out = _out_dir(args)
    write_sweep_csv(out / "sweep.csv", results)
    echo = dataclasses.asdict(grid)
    echo.update({"mode": args.mode, "base_seed": args.seed})
    write_text_file(out / "sweep_config.json", json_text(echo))
    return ["sweep.csv", "sweep_config.json"], None


def _cmd_fit(args):
    points = read_points(Path(args.in_path))
    fit = fit_power_law(points)
    write_fit_json(_out_dir(args) / "fit.json", fit)
    xs, ys = points[np.lexsort((points[:, 1], points[:, 0]))].T
    # a curve that overflows is refused by svg_line_plot, with the series name
    with np.errstate(over="ignore"):
        curve = fit.coefficient * xs**fit.exponent
    series = [("data", xs, ys), ("fit", xs, curve)]
    style = dict(title="power-law fit", x_label="x", y_label="y", log_y=True)
    return ["fit.json"], ("fit.svg", series, style)


# -- driver ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lrdual",
        description=(
            "Learning-rate schedules for AdamW and their dual view as convex "
            "combinations of weight updates."
        ),
    )
    parser.add_argument("--version", action="version", version=f"lrdual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit a schedule as CSV (and SVG)")
    _common_flags(p)
    _schedule_flags(p)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("dual", help="emit dual coefficients of a schedule")
    _common_flags(p)
    _schedule_flags(p)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--at-step", type=int, default=None, help="coefficients after this step")
    which.add_argument("--matrix", action="store_true", help="emit the full per-step table")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("design", help="invert a target coefficient profile")
    _common_flags(p)
    p.add_argument("--target", required=True, help="CSV with columns i,c")
    p.add_argument("--wd", type=float, default=0.1, help="optimizer weight decay")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("rational", help="emit the uniform-coefficients schedule")
    _common_flags(p)
    p.add_argument("--peak", type=float, required=True, help="peak learning rate")
    p.add_argument("--wd", type=float, default=0.1, help="weight decay in the recurrence")
    p.add_argument("--steps", type=int, required=True, help="total optimizer steps")
    p.add_argument("--warmup", type=int, default=0, help="warmup steps (default: 0)")
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("simulate", help="run reference AdamW on a noisy quadratic")
    _common_flags(p)
    _schedule_flags(p)
    p.add_argument("--dim", type=int, default=10, help="problem dimension (default: 10)")
    p.add_argument("--mu", type=float, default=1.0, help="curvature (default: 1.0)")
    p.add_argument("--sigma2", type=float, default=0.0, help="gradient noise variance")
    p.add_argument("--d0", type=float, default=1.0, help="initial squared distance")
    p.add_argument("--batch", type=int, default=1, help="batch size (default: 1)")
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.95)
    p.add_argument("--eps", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a schedule x noise grid")
    _common_flags(p)
    p.add_argument("--config", required=True, help="JSON grid definition")
    p.add_argument(
        "--mode", default="analytic", choices=["analytic", "monte-carlo"]
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for manifest replay; cells run serially"
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a power law to x,y points")
    _common_flags(p)
    p.add_argument("--in", dest="in_path", required=True, help="CSV with columns x,y")
    p.set_defaults(handler=_cmd_fit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        outputs, plot = args.handler(args)
        # The plot comes before the manifest, so a plot error leaves none.
        if args.svg and plot is not None:
            name, series, style = plot
            write_text_file(_out_dir(args) / name, svg_line_plot(series, **style))
            outputs.append(name)
        _write_manifest(args, argv, outputs)
        return EXIT_OK
    except ValidationError as exc:
        print(f"lrdual: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"lrdual: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DomainError as exc:
        print(f"lrdual: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except LRDualError as exc:  # pragma: no cover - safety net
        print(f"lrdual: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"lrdual: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
