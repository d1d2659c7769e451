"""Schedule shapes, their invariants, and the alpha bookkeeping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdual import (
    DomainError,
    ScheduleKind,
    ScheduleSpec,
    ValidationError,
    alpha_curve,
    average_alpha,
    lr_curve,
    mup_scale,
)
from lrdual.oracle import AdamWConfig, QuadraticProblem, order_fit_probe, stream, train
from lrdual.schedules import step_array

from helpers import reference_lr_curve, specs


def linear(total, warmup, peak_base=1.0, rho=1.0, ratio=0.0):
    return ScheduleSpec(
        kind=ScheduleKind.LINEAR,
        total_steps=total,
        peak_base_lr=peak_base,
        warmup_steps=warmup,
        mup_factor=rho,
        decay_ratio=ratio,
    )


class TestStepValues:
    def test_linear_d2z_endpoints_and_midpoint(self):
        curve = lr_curve(linear(100, 10))
        assert curve[10 - 1] == 1.0
        assert curve[100 - 1] == 0.0
        assert curve[55 - 1] == 0.5

    def test_cosine_decay_midpoint(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.COSINE,
            total_steps=100,
            peak_base_lr=1.0,
            warmup_steps=10,
            decay_ratio=0.1,
        )
        assert lr_curve(spec)[55 - 1] == pytest.approx(0.55, rel=1e-15)

    def test_long_run_d2z_fixture(self):
        spec = linear(11752, 1175, peak_base=1.6e-2, rho=0.125)
        curve = lr_curve(spec)
        assert len(curve) == 11752
        assert curve[1174] == mup_scale(1.6e-2, 0.125)
        assert curve[-1] == 0.0

    def test_one_value_per_step(self):
        # steps 1..10 and nothing past them
        assert len(lr_curve(linear(10, 1))) == 10


def edge_spec(kind, total, warmup, ratio):
    params = {}
    if kind is ScheduleKind.STEP:
        params = {"milestone_fraction": 0.5 if warmup < total // 2 else 1.0}
    elif kind is ScheduleKind.CYCLIC:
        params = {"period_steps": 7}
    elif kind is ScheduleKind.RATIONAL:
        params = {"weight_decay": 0.1}
    elif kind is ScheduleKind.PIECEWISE:
        rng = np.random.default_rng(total)
        params = {"multipliers": tuple(rng.uniform(0.0, 1.0, total - max(warmup, 1)))}
    return ScheduleSpec(
        kind=kind,
        total_steps=total,
        peak_base_lr=1.6e-2,
        warmup_steps=warmup,
        mup_factor=0.125,
        decay_ratio=ratio,
        kind_params=params,
    )


class TestLrCurve:
    @pytest.mark.parametrize("ratio", [0.0, 0.1])
    @pytest.mark.parametrize("kind", list(ScheduleKind))
    def test_bit_identical_to_out_of_place_reference(self, kind, ratio):
        # warmup 0, warmup T - 1 (one decay step), no decay phase at all
        # (T = 1) and a mid-run warmup, checked again at the seams.
        for total, warmup in [(1, 0), (2, 1), (50, 0), (50, 49), (50, 7), (1000, 100)]:
            if kind is ScheduleKind.WSD and total == 1:
                continue  # a one-step WSD run has no stable phase and is refused
            spec = edge_spec(kind, total, warmup, ratio)
            expected = reference_lr_curve(spec)
            curve = lr_curve(spec)
            assert curve.tobytes() == expected.tobytes(), (total, warmup)
            for t in {1, max(warmup, 1), min(warmup + 1, total), (total + 1) // 2, total}:
                assert curve[t - 1] == expected[t - 1], (total, warmup, t)

    def test_constant(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT, total_steps=3, peak_base_lr=0.5, warmup_steps=1
        )
        assert lr_curve(spec).tolist() == [0.5, 0.5, 0.5]

    def test_wsd_cooldown_is_final_fraction(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.WSD,
            total_steps=1000,
            peak_base_lr=1.0,
            warmup_steps=0,
            kind_params={"cooldown_fraction": 0.225},
        )
        curve = lr_curve(spec)
        assert np.all(curve[:775] == 1.0)
        assert np.all(np.diff(curve[775:]) < 0)
        assert curve[775] == pytest.approx(224.0 / 225.0, rel=1e-15)
        assert curve[-1] == 0.0

    def test_step_drop_at_milestone(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.STEP,
            total_steps=1000,
            peak_base_lr=1.0,
            warmup_steps=100,
            kind_params={"milestone_fraction": 0.9, "drop_fraction": 0.001},
        )
        curve = lr_curve(spec)
        assert np.all(curve[100:900] == 1.0)
        assert np.all(curve[900:] == 0.001)

    def test_cyclic_triangle(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CYCLIC,
            total_steps=9,
            peak_base_lr=1.0,
            warmup_steps=1,
            decay_ratio=0.5,
            kind_params={"period_steps": 4},
        )
        curve = lr_curve(spec)
        # descending from peak, trough at half period, back to peak
        assert curve[0] == 1.0
        assert curve[2] == 0.5  # phase 0.5
        assert curve[4] == 1.0  # full period
        assert not np.all(np.diff(curve[1:]) <= 0)

    def test_invsqrt_continuity_and_shape(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.INVSQRT, total_steps=400, peak_base_lr=1.0, warmup_steps=100
        )
        curve = lr_curve(spec)
        assert curve[99] == 1.0
        assert curve[100] == pytest.approx(math.sqrt(100 / 101), rel=1e-15)
        assert curve[399] == pytest.approx(0.5, rel=1e-15)

    def test_rational_kind_harmonic(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.RATIONAL,
            total_steps=4,
            peak_base_lr=1.0,
            warmup_steps=0,
            kind_params={"weight_decay": 1.0},
        )
        curve = lr_curve(spec)
        assert curve == pytest.approx([1.0, 0.5, 1.0 / 3.0, 0.25], rel=1e-15)

    def test_rational_past_the_float_range_matches_exact_arithmetic(self):
        # wd * peak * (t - W) passes the float range from t = 20 on
        spec = ScheduleSpec(
            kind=ScheduleKind.RATIONAL,
            total_steps=24,
            peak_base_lr=1e308,
            warmup_steps=2,
            kind_params={"weight_decay": 0.1},
        )
        peak, wd = Fraction(1e308), Fraction(0.1)
        exact = [peak * t / 2 for t in (1, 2)]
        exact += [peak / (1 + peak * wd * k) for k in range(1, 23)]
        curve = lr_curve(spec)
        assert max(abs(Fraction(got) - want) / want for got, want in zip(curve, exact)) < 1e-12

    def test_piecewise_post_warmup_values(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.PIECEWISE,
            total_steps=5,
            peak_base_lr=2.0,
            warmup_steps=2,
            kind_params={"multipliers": (0.7, 0.2, 0.0)},
        )
        assert lr_curve(spec).tolist() == [1.0, 2.0, 1.4, 0.4, 0.0]


class TestMupScale:
    def test_table_values(self):
        assert mup_scale(1.6e-2, 0.125) == 2.0e-3
        assert mup_scale(6.5e-2, 0.125) == 8.125e-3

    def test_identity(self):
        assert mup_scale(0.37, 1.0) == 0.37

    @pytest.mark.parametrize("eta,rho", [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, 1.5)])
    def test_rejects_bad_inputs(self, eta, rho):
        with pytest.raises(ValidationError):
            mup_scale(eta, rho)


class TestAlphaCurve:
    def test_constant_product(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT,
            total_steps=50,
            peak_base_lr=1.6e-2,
            warmup_steps=5,
            mup_factor=0.125,
        )
        alphas = alpha_curve(lr_curve(spec), 0.1)
        assert np.all(alphas[5:] == 2e-3 * 0.1)

    def test_zero_weight_decay(self):
        assert np.all(alpha_curve(lr_curve(linear(20, 2)), 0.0) == 0.0)

    def test_d2z_endpoint_zero(self):
        assert alpha_curve(lr_curve(linear(100, 10, peak_base=2e-3)), 0.1)[-1] == 0.0

    def test_alpha_one_is_an_exact_reset(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT, total_steps=5, peak_base_lr=2.0, warmup_steps=0
        )
        assert np.all(alpha_curve(lr_curve(spec), 0.5) == 1.0)

    def test_alpha_above_one_rejected(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT, total_steps=5, peak_base_lr=2.0, warmup_steps=0
        )
        with pytest.raises(DomainError, match="> 1 at step 1"):
            alpha_curve(lr_curve(spec), np.nextafter(0.5, 1.0))

    def test_negative_weight_decay_rejected(self):
        with pytest.raises(ValidationError):
            alpha_curve(lr_curve(linear(5, 0)), -0.1)


class TestAverageAlpha:
    def test_constant(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT, total_steps=40, peak_base_lr=0.02, warmup_steps=0
        )
        assert average_alpha(lr_curve(spec), 0.1) == pytest.approx(2e-3, rel=1e-15)

    def test_linear_ramp_halves_peak(self):
        spec = linear(20001, 0, peak_base=0.02)
        assert average_alpha(lr_curve(spec), 0.1) == pytest.approx(1e-3, rel=1e-3)

    def test_trapezoid_cross_check(self):
        # independent oracles: per-step summation, and an exact rational
        # trapezoid over the warmup ramp and decay wedge
        spec = linear(11752, 1175, peak_base=1.6e-2, rho=0.125)
        wd = 0.1
        curve = lr_curve(spec)
        got = average_alpha(curve, wd)

        summed = sum(float(curve[t - 1]) * wd for t in range(2, 11753)) / 11751
        assert got == pytest.approx(summed, rel=1e-12)

        a = Fraction(2e-3) * Fraction(0.1)
        warm = sum(Fraction(t, 1175) for t in range(2, 1176)) * a
        decay = sum((1 - Fraction(t - 1175, 11752 - 1175)) for t in range(1176, 11753)) * a
        exact = (warm + decay) / (11752 - 1)
        assert got == pytest.approx(float(exact), rel=1e-12)

    def test_needs_two_steps(self):
        with pytest.raises(ValidationError):
            average_alpha(
                lr_curve(ScheduleSpec(kind="constant", total_steps=1, peak_base_lr=0.1)), 0.1
            )


class TestStepArray:
    @pytest.mark.parametrize("total", [2**63 - 2, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1])
    def test_unallocatable_count_is_a_domain_error(self, total):
        # numpy wraps lengths from 2**63 - 2 to 2**64 - 2 to an empty arange
        with pytest.raises(DomainError, match=f"total_steps={total} is too large to allocate"):
            step_array(total)


BAD_LRS = {
    "empty": np.array([]),
    "scalar": np.float64(0.1),
    "matrix": np.full((5, 2), 0.1),
    "nan": np.array([0.1, np.nan, 0.1]),
    "inf": np.array([0.1, np.inf, 0.1]),
    "-inf": np.array([0.1, -np.inf, 0.1]),
    "negative": np.array([0.1, -1e-300, 0.1]),
    "text": ["0.1", "fast"],
}


LR_CONSUMERS = {
    "alpha_curve": lambda lrs: alpha_curve(lrs, 0.1),
    "stream": lambda lrs: next(stream(QuadraticProblem(dim=2), lrs, AdamWConfig())),
    "train": lambda lrs: train(QuadraticProblem(dim=2), lrs, AdamWConfig()),
    "order_fit_probe": lambda lrs: order_fit_probe(4, lrs, AdamWConfig()),
}


class TestLrArrays:
    @pytest.mark.parametrize("consumer", LR_CONSUMERS)
    @pytest.mark.parametrize("bad", BAD_LRS)
    def test_bad_lr_array_is_a_validation_error(self, consumer, bad):
        with pytest.raises(ValidationError, match="learning rate"):
            LR_CONSUMERS[consumer](BAD_LRS[bad])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "negative"])
    def test_bad_value_names_its_step(self, bad):
        with pytest.raises(ValidationError, match="at step 2;"):
            alpha_curve(BAD_LRS[bad], 0.1)

    def test_caller_array_is_left_as_it_was(self):
        lrs = lr_curve(linear(20, 2))
        kept = lrs.copy()
        alpha_curve(lrs, 0.1)
        average_alpha(lrs, 0.1)
        train(QuadraticProblem(dim=2), lrs, AdamWConfig())
        assert np.array_equal(lrs, kept)


class TestValidation:
    def test_warmup_must_be_below_total(self):
        with pytest.raises(ValidationError, match="warmup_steps"):
            linear(10, 10)

    def test_field_names_in_errors(self):
        with pytest.raises(ValidationError, match="peak_base_lr"):
            linear(10, 1, peak_base=-1.0)
        with pytest.raises(ValidationError, match="mup_factor"):
            linear(10, 1, rho=0.0)
        with pytest.raises(ValidationError, match="decay_ratio"):
            linear(10, 1, ratio=1.5)
        with pytest.raises(ValidationError, match="total_steps"):
            linear(0, 0)

    def test_unknown_kind_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown schedule kind 'bogus'"):
            ScheduleSpec(kind="bogus", total_steps=10, peak_base_lr=0.1)

    def test_cyclic_requires_period(self):
        with pytest.raises(ValidationError, match="period_steps"):
            ScheduleSpec(kind="cyclic", total_steps=10, peak_base_lr=0.1)

    def test_rational_requires_weight_decay(self):
        with pytest.raises(ValidationError, match="weight_decay"):
            ScheduleSpec(kind="rational", total_steps=10, peak_base_lr=0.1)

    def test_piecewise_length_checked(self):
        with pytest.raises(ValidationError, match="multipliers"):
            ScheduleSpec(
                kind="piecewise",
                total_steps=10,
                peak_base_lr=0.1,
                warmup_steps=2,
                kind_params={"multipliers": (0.5,) * 7},
            )
        with pytest.raises(ValidationError, match="multipliers"):
            ScheduleSpec(
                kind="piecewise",
                total_steps=10,
                peak_base_lr=0.1,
                warmup_steps=2,
                kind_params={"multipliers": (0.5,) * 7 + (1.5,)},
            )

    @pytest.mark.parametrize(
        "kind, params, unknown",
        [
            ("linear", {"zzz": 1}, "zzz"),
            ("constant", {"weight_decay": 0.1}, "weight_decay"),
            ("wsd", {"cooldown_frac": 0.5}, "cooldown_frac"),
            ("step", {"milestone_fraction": 0.5, "drop_frac": 0.1}, "drop_frac"),
        ],
    )
    def test_unknown_kind_params_key_rejected(self, kind, params, unknown):
        with pytest.raises(ValidationError, match=f"kind_params.{unknown} is not"):
            ScheduleSpec(kind=kind, total_steps=10, peak_base_lr=0.1, kind_params=params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("wsd", {"cooldown_fraction": "x"}),
            ("wsd", {"cooldown_fraction": [1]}),
            ("wsd", {"cooldown_fraction": True}),
            ("step", {"milestone_fraction": "0.5"}),
            ("step", {"drop_fraction": False}),
            ("rational", {"weight_decay": True}),
            ("cyclic", {"period_steps": True}),
            ("cyclic", {"period_steps": 5.0}),
            ("piecewise", {"multipliers": "abc"}),
            ("piecewise", {"multipliers": {}}),
            ("piecewise", {"multipliers": [True] * 9}),
            ("piecewise", {"multipliers": [[0.5], [0.5, 0.5]]}),
        ],
    )
    def test_kind_param_types_checked(self, kind, params):
        name = next(iter(params))
        with pytest.raises(ValidationError, match=f"kind_params.{name} must be"):
            ScheduleSpec(kind=kind, total_steps=10, peak_base_lr=0.1, kind_params=params)

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            # at construction 0.05 is refused: it places the drop inside warmup
            ("step", "milestone_fraction", 0.05),
            ("step", "drop_fraction", True),
            ("wsd", "cooldown_fraction", 0.5),
            ("wsd", "cooldown_fraction", "x"),
        ],
    )
    def test_kind_params_changed_after_construction_change_nothing(self, kind, name, value):
        params = {"step": {"milestone_fraction": 0.9, "drop_fraction": 0.001},
                  "wsd": {"cooldown_fraction": 0.225}}[kind]
        spec = ScheduleSpec(
            kind=kind, total_steps=20, peak_base_lr=0.1, warmup_steps=5, kind_params=params
        )
        before = lr_curve(spec)
        params[name] = value
        assert lr_curve(spec).tobytes() == before.tobytes()


# -- hypothesis-driven invariants ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_peak_invariance(spec):
    curve = lr_curve(spec)
    peak = spec.mup_factor * spec.peak_base_lr
    assert curve.max() == peak
    assert curve[spec.effective_warmup - 1] == peak
    assert np.all(curve >= 0.0)


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_curve_bit_identical_to_reference(spec):
    assert lr_curve(spec).tobytes() == reference_lr_curve(spec).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    spec=specs(kinds=(ScheduleKind.LINEAR, ScheduleKind.COSINE)),
)
def test_endpoint_contract(spec):
    final = lr_curve(spec)[-1]
    target = spec.decay_ratio * spec.mup_factor * spec.peak_base_lr
    assert final == pytest.approx(target, rel=1e-15, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(
    spec=specs(
        kinds=(
            ScheduleKind.LINEAR,
            ScheduleKind.COSINE,
            ScheduleKind.INVSQRT,
            ScheduleKind.RATIONAL,
        )
    )
)
def test_monotone_decay(spec):
    curve = lr_curve(spec)
    decay = curve[spec.effective_warmup - 1 :]
    assert np.all(np.diff(decay) <= 0.0)


@settings(max_examples=100, deadline=None)
@given(spec=specs(kinds=tuple(k for k in ScheduleKind if k is not ScheduleKind.RATIONAL)))
def test_mup_commutation_exact(spec):
    unscaled = ScheduleSpec(
        kind=spec.kind,
        total_steps=spec.total_steps,
        peak_base_lr=spec.peak_base_lr,
        warmup_steps=spec.warmup_steps,
        mup_factor=1.0,
        decay_ratio=spec.decay_ratio,
        kind_params=spec.kind_params,
    )
    assert np.array_equal(lr_curve(spec), spec.mup_factor * lr_curve(unscaled))


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=4, max_value=200),
    data=st.data(),
)
def test_warmup_is_kind_independent(total, data):
    # keep warmup below the step milestone so every kind accepts the spec
    warmup = data.draw(st.integers(min_value=1, max_value=max(1, total // 2)))
    curves = []
    for kind in ScheduleKind:
        params = {}
        if kind is ScheduleKind.CYCLIC:
            params = {"period_steps": 7}
        elif kind is ScheduleKind.RATIONAL:
            params = {"weight_decay": 0.1}
        elif kind is ScheduleKind.PIECEWISE:
            params = {"multipliers": (0.5,) * (total - warmup)}
        spec = ScheduleSpec(
            kind=kind,
            total_steps=total,
            peak_base_lr=0.25,
            warmup_steps=warmup,
            mup_factor=0.5,
            kind_params=params,
        )
        curves.append(lr_curve(spec)[:warmup])
    for other in curves[1:]:
        assert np.array_equal(curves[0], other)
