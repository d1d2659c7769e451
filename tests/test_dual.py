"""Dual coefficients: exactness, convexity, and the initial-weight approximations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdual import (
    DomainError,
    InfiniteTimescaleError,
    ScheduleKind,
    ScheduleSpec,
    SmoothingSequence,
    ValidationError,
    coefficients_at,
    init_coefficient,
    init_coefficient_approx,
    iter_coefficient_rows,
    lr_curve,
    timescale,
)
from lrdual.dual import materialize_log_coefficients

from helpers import edge_alphas, reference_log_tables, reference_row


def seq(*alphas):
    return SmoothingSequence(np.array(alphas, dtype=np.float64))


class TestSmoothingSequence:
    def test_first_entry_must_be_one(self):
        with pytest.raises(ValidationError):
            seq(0.5, 0.5)

    def test_entries_must_lie_in_unit_interval(self):
        with pytest.raises(DomainError):
            seq(1.0, -0.1)
        with pytest.raises(DomainError):
            seq(1.0, 1.1)

    def test_reset_value_one_is_legal(self):
        assert len(seq(1.0, 1.0, 0.3)) == 3

    def test_from_lrs_prepends_initial_input(self):
        spec = ScheduleSpec(
            kind=ScheduleKind.CONSTANT, total_steps=4, peak_base_lr=0.02, warmup_steps=0
        )
        s = SmoothingSequence.from_lrs(lr_curve(spec), 0.1)
        assert len(s) == 5
        assert s.alphas[0] == 1.0
        assert np.all(s.alphas[1:] == 0.002)


class TestCoefficientsAt:
    def test_worked_example_half_half(self):
        assert coefficients_at(seq(1.0, 0.5, 0.5)).c.tolist() == [0.25, 0.25, 0.5]

    def test_worked_example_half_quarter(self):
        assert coefficients_at(seq(1.0, 0.5, 0.25)).c.tolist() == [0.375, 0.375, 0.25]

    def test_single_input(self):
        out = coefficients_at(seq(1.0))
        assert out.t == 1
        assert out.c.tolist() == [1.0]

    def test_reset_kills_earlier_inputs(self):
        out = coefficients_at(seq(1.0, 0.25, 1.0, 0.5))
        assert out.c[0] == 0.0
        assert out.c[1] == 0.0
        assert out.c[2] == 0.5
        assert out.c[3] == 0.5
        assert np.isneginf(out.log_c[0])

    def test_zero_alpha_gives_zero_coefficient(self):
        out = coefficients_at(seq(1.0, 0.0, 0.5))
        assert out.c[1] == 0.0
        assert out.c.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("t", [5, 50, 500, 2000, 5000])
    def test_constant_alpha_geometric_closed_form(self, t):
        alpha = 0.1
        out = coefficients_at(SmoothingSequence(np.concatenate([[1.0], np.full(t - 1, alpha)])))
        i = np.arange(2, t + 1)
        # closed form alpha * (1-alpha)^(t-i), evaluated in extended
        # precision (double pow itself drifts several ulp at these exponents)
        base = np.longdouble(1.0) - np.longdouble(alpha)
        expected_tail = (np.longdouble(alpha) * base ** (t - i)).astype(np.float64)
        np.testing.assert_allclose(out.c[1:], expected_tail, rtol=1e-13)
        expected_head = float(base ** (t - 1))
        assert out.c[0] == pytest.approx(expected_head, rel=1e-13)

    def test_matches_direct_product_oracle(self):
        # brute-force evaluation of the defining product, including exact
        # zeros and full resets in the draw
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            alphas = rng.uniform(0.0, 1.0, n + 1)
            alphas[0] = 1.0
            alphas[rng.uniform(size=n + 1) < 0.05] = 0.0
            alphas[rng.uniform(size=n + 1) < 0.03] = 1.0
            alphas[0] = 1.0
            direct = np.array(
                [alphas[i] * np.prod(1.0 - alphas[i + 1 :]) for i in range(n + 1)]
            )
            got = coefficients_at(SmoothingSequence(alphas)).c
            np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-300)

    def test_underflowed_coefficients_flush_to_zero(self):
        t = 5000
        out = coefficients_at(SmoothingSequence(np.concatenate([[1.0], np.full(t - 1, 0.5)])))
        assert out.c[0] == 0.0
        assert np.isfinite(out.log_c[0])  # log survives even when exp underflows
        assert out.log_c[0] == pytest.approx((t - 1) * np.log(0.5), rel=1e-12)
        assert out.c.sum() == pytest.approx(1.0, abs=1e-12)


class TestCoefficientRows:
    def test_two_step_rows(self):
        rows = [materialize_log_coefficients(r) for r in iter_coefficient_rows(seq(1.0, 0.5))]
        assert [r.tolist() for r in rows] == [[1.0], [0.5, 0.5]]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        alphas = np.concatenate([[1.0], rng.uniform(0.0, 0.8, 120)])
        rows = list(iter_coefficient_rows(SmoothingSequence(alphas)))
        assert [len(r) for r in rows] == list(range(1, 122))
        for row in rows:
            assert abs(materialize_log_coefficients(row).sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("variant", ["mixed", "last_reset", "leading_zeros"])
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 66, 129, 4097])
    def test_bit_identical_to_out_of_place_reference(self, n, variant):
        # The tables are built in place; every row must keep the bytes of the
        # out-of-place formulas, also across the 64-term block edges.
        alphas = edge_alphas(n, seed=n, variant=variant)
        s = SmoothingSequence(alphas)
        tables = reference_log_tables(alphas)
        for t, row in enumerate(iter_coefficient_rows(s), start=1):
            assert row.tobytes() == reference_row(*tables, t).tobytes(), t
        assert coefficients_at(s).log_c.tobytes() == reference_row(*tables, n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_exact_fraction_products(self, n, seed):
        # c_{t,i} = alpha_i * prod_{j>i} (1 - alpha_j) in exact rationals. The
        # computed log_c carries a few roundings of its own magnitude, which
        # exp turns into a relative error; allow 4 ulps of that plus exp's own.
        alphas = edge_alphas(n, seed)
        exact_alphas = [Fraction(float(x)) for x in alphas]
        eps = np.finfo(np.float64).eps
        for t in range(1, n + 1):
            got = coefficients_at(SmoothingSequence(alphas[:t]))
            survive = Fraction(1)
            for i in range(t - 1, -1, -1):
                exact = exact_alphas[i] * survive
                survive *= 1 - exact_alphas[i]
                if exact == 0:
                    assert got.c[i] == 0.0, (t, i)
                    continue
                tol = Fraction(4 * eps * (1.0 + abs(float(got.log_c[i]))))
                assert abs(Fraction(float(got.c[i])) - exact) <= tol * exact, (t, i)

    def test_last_row_bit_identical_to_coefficients_at(self):
        rng = np.random.default_rng(11)
        alphas = np.concatenate([[1.0], rng.uniform(0.0, 0.9, 63)])
        s = SmoothingSequence(alphas)
        *_, last = iter_coefficient_rows(s)
        assert np.array_equal(last, coefficients_at(s).log_c)


class TestInitCoefficient:
    def test_constant_power(self):
        s = SmoothingSequence(np.concatenate([[1.0], np.full(9, 0.2)]))
        assert init_coefficient(s) == pytest.approx(0.8**9, rel=1e-14)

    def test_worked_example(self):
        assert init_coefficient(seq(1.0, 0.5, 0.5)) == pytest.approx(0.25, rel=1e-15)

    def test_reset_annihilates(self):
        assert init_coefficient(seq(1.0, 0.3, 1.0)) == 0.0

    def test_matches_first_materialized_coefficient(self):
        rng = np.random.default_rng(3)
        alphas = np.concatenate([[1.0], rng.uniform(0.0, 0.05, 400)])
        s = SmoothingSequence(alphas)
        assert init_coefficient(s) == coefficients_at(s).c[0]


class TestInitCoefficientApprox:
    def test_small_alpha_matches_exponential(self):
        approx = init_coefficient_approx(1e-4, 10001)
        assert approx == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_zero_alpha(self):
        assert init_coefficient_approx(0.0, 123) == 1.0

    def test_equality_for_constant_alpha(self):
        alpha = 3e-4
        t = 2001
        s = SmoothingSequence(np.concatenate([[1.0], np.full(t - 1, alpha)]))
        abar = float(np.mean(s.alphas[1:]))
        assert init_coefficient_approx(abar, t) == pytest.approx(
            init_coefficient(s), rel=1e-13
        )

    def test_linear_d2z_within_two_percent(self):
        for peak_alpha, t in [(1e-3, 5000), (1e-3, 500), (2e-4, 3000)]:
            ramp = peak_alpha * (1.0 - np.arange(t - 1) / (t - 1))
            s = SmoothingSequence(np.concatenate([[1.0], ramp]))
            exact = init_coefficient(s)
            approx = init_coefficient_approx(float(np.mean(ramp)), t)
            assert abs(approx - exact) / exact <= 0.02

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            init_coefficient_approx(1.0, 10)
        with pytest.raises(ValidationError):
            init_coefficient_approx(-0.1, 10)
        with pytest.raises(ValidationError):
            init_coefficient_approx(0.1, 0)


class TestTimescale:
    def test_values(self):
        assert timescale(2e-3, 0.1) == pytest.approx(5000.0, rel=1e-12)
        assert timescale(1e-3, 0.1) == pytest.approx(10000.0, rel=1e-12)

    def test_halving_decay_doubles_window(self):
        assert timescale(1e-3, 0.05) == pytest.approx(2 * timescale(1e-3, 0.1), rel=1e-12)

    def test_zero_decay_distinct_signal(self):
        with pytest.raises(InfiniteTimescaleError):
            timescale(1e-3, 0.0)

    def test_negative_inputs(self):
        with pytest.raises(ValidationError):
            timescale(-1e-3, 0.1)
        with pytest.raises(ValidationError):
            timescale(1e-3, -0.1)

    @pytest.mark.parametrize(
        "lr, weight_decay",
        [
            (1e-200, 1e-200),  # the product underflows to 0
            (1e-160, 1e-160),  # 1e-320 is subnormal and its reciprocal overflows
            (5e-324, 1.0),
            (1e300, 1e10),  # the product overflows
        ],
    )
    def test_window_outside_the_float_range_is_a_domain_error(self, lr, weight_decay):
        with pytest.raises(DomainError, match="the timescale, is outside the float range"):
            timescale(lr, weight_decay)

    def test_smallest_product_with_a_finite_window(self):
        # 1 / 2**-1024 = 2**1024 overflows; 1 / 2**-1023 is the largest power of two
        assert timescale(2.0**-1023, 1.0) == 2.0**1023
        with pytest.raises(DomainError):
            timescale(2.0**-1024, 1.0)


class TestFlattening:
    def test_d2z_flattens_relative_to_constant_at_equal_mean(self):
        # long-horizon regime: mean alpha times steps well above 1
        steps = 5000
        ramp = 8e-4 * (1.0 - np.arange(steps) / steps)
        abar = float(ramp.mean())
        assert steps * abar > 1.4
        decaying = SmoothingSequence(np.concatenate([[1.0], ramp]))
        constant = SmoothingSequence(np.concatenate([[1.0], np.full(steps, abar)]))
        c_dec = coefficients_at(decaying).c
        c_const = coefficients_at(constant).c
        assert c_dec[1:].max() <= c_const[1:].max()


@settings(max_examples=120, deadline=None)
@given(
    alphas=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=0, max_size=60
    )
)
def test_convexity_property(alphas):
    out = coefficients_at(SmoothingSequence(np.array([1.0] + alphas)))
    assert np.all(out.c >= 0.0)
    assert out.c.sum() == pytest.approx(1.0, abs=1e-12)
