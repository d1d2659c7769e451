"""Shared test helpers: randomized schedule specs and smoothing sequences,
out-of-place references and the environment of a child ``python`` process."""

from __future__ import annotations

import math
import os
from itertools import count
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from lrdual import ScheduleKind, ScheduleSpec

ALL_KINDS = list(ScheduleKind)

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**overrides: str) -> dict:
    """This process's environment for a child ``python`` that imports ``lrdual``
    from ``src``, with numpy's BLAS thread count unset unless given here."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(overrides)
    return env


def random_spec_and_wd(rng: np.random.Generator, max_steps: int = 5000, alpha_cap: float = 0.9):
    """Random valid spec plus a weight decay keeping every alpha below alpha_cap."""
    kind = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
    total = int(rng.integers(2, max_steps + 1))
    warmup = int(rng.integers(0, max(1, total // 2)))
    peak_base = float(10.0 ** rng.uniform(-3, 0))
    rho = float(rng.choice([1.0, 0.5, 0.125]))
    ratio = float(rng.choice([0.0, 0.1, 0.5]))
    peak = rho * peak_base
    wd = float(rng.uniform(0.05, 1.0)) * alpha_cap / peak

    params = {}
    if kind is ScheduleKind.CYCLIC:
        params = {"period_steps": int(rng.integers(2, max(3, total)))}
    elif kind is ScheduleKind.RATIONAL:
        params = {"weight_decay": wd}
    elif kind is ScheduleKind.PIECEWISE:
        n = total - max(warmup, 1)
        params = {"multipliers": tuple(rng.uniform(0.0, 1.0, n))}
    spec = ScheduleSpec(
        kind=kind,
        total_steps=total,
        peak_base_lr=peak_base,
        warmup_steps=warmup,
        mup_factor=rho,
        decay_ratio=ratio,
        kind_params=params,
    )
    return spec, wd


@st.composite
def specs(draw, kinds=tuple(ScheduleKind)):
    kind = draw(st.sampled_from(kinds))
    total = draw(st.integers(min_value=2, max_value=300))
    # warmup stays below the step-kind milestone so every kind validates
    warmup = draw(st.integers(min_value=0, max_value=total // 2))
    peak_base = draw(st.floats(min_value=1e-4, max_value=1.0))
    rho = draw(st.sampled_from([1.0, 0.5, 0.125]))
    ratio = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    params = {}
    if kind is ScheduleKind.CYCLIC:
        params = {"period_steps": draw(st.integers(min_value=2, max_value=total + 3))}
    elif kind is ScheduleKind.RATIONAL:
        params = {"weight_decay": draw(st.floats(min_value=0.01, max_value=1.0))}
    elif kind is ScheduleKind.PIECEWISE:
        n = total - max(warmup, 1)
        mult = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
            )
        )
        params = {"multipliers": tuple(mult)}
    return ScheduleSpec(
        kind=kind,
        total_steps=total,
        peak_base_lr=peak_base,
        warmup_steps=warmup,
        mup_factor=rho,
        decay_ratio=ratio,
        kind_params=params,
    )


def edge_alphas(n, seed, variant="mixed"):
    """``n`` seeded inputs with alpha = 0, interior resets and alpha a few ulps below 1.

    ``variant`` "last_reset" ends on a reset; "leading_zeros" opens with a run
    of alpha = 0 inputs across the first 64-term block edge.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 0.9, n)
    a[rng.uniform(size=n) < 0.05] = 0.0
    a[rng.uniform(size=n) < 0.02] = 1.0
    if n > 4:
        a[1] = 0.0
        a[n // 2] = 1.0
        a[n // 3 + 1] = 1.0 - 3 * np.finfo(np.float64).epsneg
        a[2 * n // 3 + 1] = 1.0 - np.finfo(np.float64).epsneg
    if variant == "last_reset":
        a[-1] = 1.0
    elif variant == "leading_zeros":
        a[1:70] = 0.0
    a[0] = 1.0
    return a


# -- out-of-place references ----------------------------------------------------
#
# The library builds the dual tables and LR curves in place, in the same
# operation order as these straightforward formulas; tests require their
# results to be bit-identical.

_CUMSUM_BLOCK = 64


def reference_blocked_cumsum(x: np.ndarray) -> np.ndarray:
    """Inclusive cumulative sum summed within 64-term blocks, block totals carried."""
    n = len(x)
    if n <= _CUMSUM_BLOCK:
        return np.cumsum(x)
    pad = (-n) % _CUMSUM_BLOCK
    padded = np.concatenate([x, np.zeros(pad, dtype=x.dtype)])
    blocks = padded.reshape(-1, _CUMSUM_BLOCK)
    within = np.cumsum(blocks, axis=1)
    offsets = np.concatenate([
        np.zeros(1, dtype=x.dtype),
        np.cumsum(within[:-1, -1]),
    ])
    return (within + offsets[:, None]).reshape(-1)[:n]


def reference_log_tables(alphas: np.ndarray):
    """``(log_alpha, prefix, resets)`` with ``resets[k]`` counting resets in inputs 2..k+1."""
    a = np.asarray(alphas, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(a)
    is_reset = a >= 1.0
    steps = np.zeros(len(a), dtype=np.longdouble)
    live = ~is_reset
    steps[live] = np.log1p(-a[live].astype(np.longdouble))
    prefix = np.concatenate([
        np.zeros(1, dtype=np.longdouble),
        reference_blocked_cumsum(steps[1:]),
    ])
    resets = np.concatenate([[0], np.cumsum(is_reset[1:])])
    return log_alpha, prefix, resets


def reference_row(log_alpha, prefix, resets, t: int) -> np.ndarray:
    """Log-coefficients of inputs 1..t at step ``t``."""
    idx = np.arange(t)
    tail = np.asarray(prefix[t - 1] - prefix[idx], dtype=np.float64)
    log_c = log_alpha[:t] + tail
    log_c[(resets[t - 1] - resets[idx]) > 0] = -np.inf
    return log_c


def _reference_decay_shape(spec: ScheduleSpec, t: np.ndarray, w_eff: float) -> np.ndarray:
    T = spec.total_steps
    r = spec.decay_ratio
    kind = spec.kind
    params = spec.kind_params
    if kind is ScheduleKind.CONSTANT:
        return np.ones_like(t)
    if kind is ScheduleKind.LINEAR:
        s = (t - w_eff) / (T - w_eff)
        return 1.0 - (1.0 - r) * s
    if kind is ScheduleKind.COSINE:
        s = (t - w_eff) / (T - w_eff)
        return r + (1.0 - r) * (1.0 + np.cos(np.pi * s)) / 2.0
    if kind is ScheduleKind.INVSQRT:
        return np.sqrt(w_eff / t)
    if kind is ScheduleKind.STEP:
        # the last full-rate step, rounded up past float noise of 1e-9
        milestone = math.ceil(params.get("milestone_fraction", 0.9) * T - 1e-9)
        drop = params.get("drop_fraction", 0.001)
        return np.where(t <= milestone, 1.0, drop)
    if kind is ScheduleKind.WSD:
        fraction = params.get("cooldown_fraction", 0.225)
        start = T - math.ceil(fraction * (T - spec.warmup_steps) - 1e-9)
        return np.where(t <= start, 1.0, (T - t) / (T - start))
    if kind is ScheduleKind.CYCLIC:
        period = float(params["period_steps"])
        phase = np.mod(t - w_eff, period) / period
        tri = np.where(phase <= 0.5, 2.0 * phase, 2.0 * (1.0 - phase))
        return 1.0 - (1.0 - r) * tri
    if kind is ScheduleKind.RATIONAL:
        wd = float(params["weight_decay"])
        return 1.0 / (1.0 + wd * spec.peak_lr * (t - w_eff))
    if kind is ScheduleKind.PIECEWISE:
        mult = np.asarray(params["multipliers"], dtype=np.float64)
        return mult[(t - w_eff - 1.0).astype(np.intp)]
    raise AssertionError(f"unhandled kind {kind}")


def reference_lr_curve(spec: ScheduleSpec) -> np.ndarray:
    """All ``total_steps`` learning rates, masks and copies instead of in-place slices."""
    t = np.arange(1, spec.total_steps + 1, dtype=np.float64)
    w_eff = float(spec.effective_warmup)
    shape = np.empty_like(t)
    warm = t <= w_eff
    shape[warm] = t[warm] / w_eff
    decay = ~warm
    if decay.any():
        shape[decay] = _reference_decay_shape(spec, t[decay], w_eff)
    return spec.mup_factor * (spec.peak_base_lr * shape)


def reference_columns_text(header: str, *columns) -> str:
    """The whole table as rows ``index,col1,...``, one ``str.format`` per row.

    This was :func:`lrdual.fileio.columns_text` before it formatted in numpy
    blocks; its bytes must stay bit for bit the same.
    """
    row = "{}," + ",".join(["{:.17g}"] * len(columns)) + "\n"
    values = [np.asarray(column, dtype=np.float64).tolist() for column in columns]
    return header + "\n" + "".join(map(row.format, count(1), *values))


def assert_same_lines(got: str, want: str) -> None:
    """``got == want``, reporting the first differing line rather than a diff of the whole text."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert next(((g, w) for g, w in zip(got_lines, want_lines) if g != w), None) is None
    assert len(got_lines) == len(want_lines)
