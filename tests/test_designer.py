"""Rational schedule generation and the inverse coefficient problem."""

from fractions import Fraction

import numpy as np
import pytest

from lrdual import (
    DomainError,
    InfeasibleTargetError,
    SmoothingSequence,
    TargetProfile,
    ValidationError,
    alpha_curve,
    coefficients_at,
    rational_schedule,
    schedule_from_coefficients,
)


def exact_rational(peak, wd, total, warmup):
    """The rational schedule in exact arithmetic: warmup, then the recurrence."""
    w = max(warmup, 1)
    p, d = Fraction(peak), Fraction(wd)
    lrs = [p * t / w for t in range(1, w + 1)]
    while len(lrs) < total:
        lrs.append(lrs[-1] / (1 + lrs[-1] * d))
    return lrs


def max_relative_error(lrs, exact):
    return float(max(abs(Fraction(float(a)) - b) / b for a, b in zip(lrs, exact)))


class TestRationalSchedule:
    def test_harmonic_with_unit_decay(self):
        lrs = rational_schedule(1.0, 1.0, 6, warmup_steps=0)
        assert lrs[0] == 1.0
        assert lrs[1] == 0.5
        np.testing.assert_allclose(lrs, 1.0 / np.arange(1, 7), rtol=1e-14)

    def test_single_recurrence_step(self):
        lrs = rational_schedule(1.0, 0.1, 2, warmup_steps=0)
        assert lrs[1] == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_warmup_then_recurrence(self):
        lrs = rational_schedule(0.8, 0.5, 10, warmup_steps=4)
        np.testing.assert_allclose(lrs[:4], 0.8 * np.arange(1, 5) / 4, rtol=1e-15)
        assert max_relative_error(lrs, exact_rational(0.8, 0.5, 10, 4)) < 1e-15

    def test_paper_scale_matches_exact_recurrence(self):
        # A float recurrence drifts to 1.3e-14 here; the closed form stays
        # within a few ulps of the exact values.
        lrs = rational_schedule(2e-3, 0.1, 11752, warmup_steps=1175)
        assert len(lrs) == 11752
        assert max_relative_error(lrs, exact_rational(2e-3, 0.1, 11752, 1175)) < 1e-15

    def test_uniform_coefficients_after_warmup(self):
        peak, wd, total, warmup = 1.0, 0.5, 100, 10
        lrs = rational_schedule(peak, wd, total, warmup)
        alphas = SmoothingSequence(np.concatenate([[1.0], lrs * wd]))
        c = coefficients_at(alphas).c
        post = c[warmup + 1 :]  # inputs with index > warmup + 1
        assert post.max() / post.min() == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_decay_rejected(self):
        with pytest.raises(ValidationError, match=r"weight_decay must be a number in \(0, inf\)"):
            rational_schedule(1.0, 0.0, 10)

    def test_peak_alpha_above_one_rejected(self):
        # alpha_curve is the one alpha <= 1 rule; rational_schedule does not check it
        with pytest.raises(DomainError, match=r"smoothing alpha=2\.0 > 1 at step 1"):
            alpha_curve(rational_schedule(20.0, 0.1, 10), 0.1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            rational_schedule(-1.0, 0.1, 10)
        with pytest.raises(ValidationError):
            rational_schedule(1.0, 0.1, 10, warmup_steps=10)


class TestTargetProfile:
    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TargetProfile(np.array([0.5, 0.4]))

    def test_non_negative(self):
        with pytest.raises(ValidationError):
            TargetProfile(np.array([1.5, -0.5]))


class TestScheduleFromCoefficients:
    def test_worked_example(self):
        out = schedule_from_coefficients(TargetProfile(np.array([0.25, 0.25, 0.5])), 0.1)
        np.testing.assert_allclose(out.alphas, [1.0, 0.5, 0.5], rtol=1e-14)
        np.testing.assert_allclose(out.lrs, [10.0, 5.0, 5.0], rtol=1e-14)

    def test_uniform_profile_recovers_harmonic(self):
        out = schedule_from_coefficients(TargetProfile(np.full(3, 1.0 / 3.0)), 1.0)
        np.testing.assert_allclose(out.alphas, [1.0, 0.5, 1.0 / 3.0], rtol=1e-14)
        rational = rational_schedule(1.0, 1.0, 3, warmup_steps=0)
        np.testing.assert_allclose(out.alphas, rational, rtol=1e-12)

    def test_trivial_profile(self):
        out = schedule_from_coefficients(TargetProfile(np.array([1.0])), 0.1)
        assert out.alphas.tolist() == [1.0]
        assert out.lrs.tolist() == [10.0]

    def test_trailing_zero_coefficients(self):
        out = schedule_from_coefficients(
            TargetProfile(np.array([0.25, 0.25, 0.5, 0.0])), 0.1
        )
        np.testing.assert_allclose(out.alphas, [1.0, 0.5, 0.5, 0.0], rtol=1e-14)

    def test_profile_with_reset_roundtrips(self):
        # zero initial mass forces a full reset at the first positive index
        target = TargetProfile(np.array([0.0, 1.0 / 3, 1.0 / 3, 1.0 / 3]))
        out = schedule_from_coefficients(target, 0.1)
        assert out.alphas[1] == 1.0
        back = coefficients_at(SmoothingSequence(out.alphas)).c
        np.testing.assert_allclose(back, target.weights, atol=1e-14)

    def test_roundtrip_random_sequences(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 250))
            alphas = np.concatenate([[1.0], np.exp(rng.uniform(np.log(1e-6), np.log(0.5), n))])
            c = coefficients_at(SmoothingSequence(alphas)).c
            out = schedule_from_coefficients(TargetProfile(c), 0.1)
            np.testing.assert_allclose(out.alphas, alphas, rtol=1e-10)

    def test_negligible_mass_behind_reset_is_tolerated(self):
        # passes the 1e-12 sum check; the stranded 1e-13 leading mass is
        # below the feasibility slack and is dropped rather than rejected
        weights = np.array([1e-13, 0.3, 0.7 + 8e-13])
        out = schedule_from_coefficients(TargetProfile(weights), 0.1)
        assert out.alphas[0] == 1.0
        assert out.alphas[1] == 1.0

    def test_infeasible_mass_behind_reset(self):
        # guard-rail check: meaningful mass stranded behind a full reset is
        # reported, never silently dropped (reachable only for profiles that
        # bypass validation, e.g. with an inflated total)
        profile = TargetProfile.__new__(TargetProfile)
        object.__setattr__(profile, "weights", np.array([2e-9, 0.0, 2.0]))
        with pytest.raises(InfeasibleTargetError) as err:
            schedule_from_coefficients(profile, 0.1)
        assert err.value.index == 1

    def test_infeasible_alpha_above_one(self):
        # guard-rail check: a coefficient exceeding the mass up to its index
        # has no generating alpha in [0, 1]
        profile = TargetProfile.__new__(TargetProfile)
        object.__setattr__(profile, "weights", np.array([-0.5, 1.5]))
        with pytest.raises(InfeasibleTargetError) as err:
            schedule_from_coefficients(profile, 0.1)
        assert err.value.index == 2

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([0, 0.3, -0.3, 0.5, 0.5], (2, "unreachable behind a full reset")),
            ([0.2, 0.3, -0.5, 0.5, 0.5], (2, "unreachable behind a full reset")),
            ([0.5, -0.5, 3.0, -2.0, 1.0], (1, "initial-weights coefficient")),
            ([-0.5, 1.5, 0, 2.0], (2, "exceeds 1")),
            ([0, 0, 0.5, 0.5], [1.0, 0.0, 1.0, 0.5]),
        ],
    )
    def test_bypassed_profiles(self, weights, expected):
        # profiles that bypass validation reach every reset and infeasibility
        # branch; an infeasibility names the highest offending index, and a
        # zero-mass prefix before a reset recovers alpha 0
        profile = TargetProfile.__new__(TargetProfile)
        object.__setattr__(profile, "weights", np.array(weights, dtype=np.float64))
        if isinstance(expected, list):
            assert schedule_from_coefficients(profile, 0.1).alphas.tolist() == expected
            return
        index, message = expected
        with pytest.raises(InfeasibleTargetError, match=message) as err:
            schedule_from_coefficients(profile, 0.1)
        assert err.value.index == index

    def test_weight_decay_required_positive(self):
        with pytest.raises(ValidationError, match=r"weight_decay must be a number in \(0, inf\)"):
            schedule_from_coefficients(TargetProfile(np.array([1.0])), 0.0)

    def test_lrs_are_alphas_over_weight_decay(self):
        target = TargetProfile(np.array([0.1, 0.2, 0.3, 0.4]))
        for wd in (0.1, 0.3, 2.2250738585072014e-308, 1e300):
            out = schedule_from_coefficients(target, wd)
            assert out.lrs.tobytes() == (out.alphas / wd).tobytes()

    @pytest.mark.parametrize("wd", [1e-310, 5e-324, 5.5e-309])
    def test_overflowing_learning_rate_refused(self, wd):
        # 1 / wd, the pseudo-step's learning rate, is past the float range
        with pytest.raises(DomainError, match="overflows"):
            schedule_from_coefficients(TargetProfile(np.array([0.5, 0.5])), wd)
