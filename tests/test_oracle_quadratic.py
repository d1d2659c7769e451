"""Analytic gap recursion, the two-term bound, and Monte Carlo agreement."""

import numpy as np
import pytest

from lrdual import DomainError, ValidationError
from lrdual.oracle import (
    QuadraticProblem,
    check_sgd_stability,
    sgd_gap_bound,
    sgd_monte_carlo_gap,
    sgd_quadratic_expected_gap,
)


class TestQuadraticProblem:
    def test_start_point_distance(self):
        p = QuadraticProblem(dim=5, theta0_dist_sq=2.5)
        offset = p.theta0() - p.theta_star()
        assert np.dot(offset, offset) == pytest.approx(2.5, rel=1e-12)
        assert np.linalg.norm(p.theta_star()) > 0

    def test_effective_noise(self):
        p = QuadraticProblem(dim=1, noise_var=2.0, batch_size=8)
        assert p.effective_noise_var == 0.25

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadraticProblem(dim=0)
        with pytest.raises(ValidationError):
            QuadraticProblem(dim=2, curvature=-1.0)
        with pytest.raises(ValidationError):
            QuadraticProblem(dim=2, noise_var=-0.5)
        with pytest.raises(ValidationError):
            QuadraticProblem(dim=2, batch_size=0)

    def test_dim_too_large_to_allocate(self):
        # numpy refuses 1e20 entries before allocating anything
        with pytest.raises(DomainError, match="dim=100000000000000000000 is too large"):
            QuadraticProblem(dim=10**20)


class TestGapBound:
    def test_pure_bias_two_steps(self):
        bound = sgd_gap_bound(lr=0.5, mu=1.0, noise_var=0.0, d0=1.0, t=2)
        assert bound.total == 0.25
        assert bound.bias == 0.25
        assert bound.variance == 0.0

    def test_frozen_example(self):
        bound = sgd_gap_bound(lr=0.1, mu=1.0, noise_var=1.0, d0=1.0, t=10)
        # 0.9^10 + 0.1, evaluated ahead of time
        assert bound.total == pytest.approx(0.44867844010000004, rel=1e-14)
        assert bound.total == pytest.approx(0.44868, abs=5e-6)

    def test_long_horizon_floor_is_lr_times_variance(self):
        bound = sgd_gap_bound(lr=0.05, mu=1.0, noise_var=2.0, d0=1.0, t=5000)
        assert bound.total == pytest.approx(0.05 * 2.0, rel=1e-12)

    def test_requires_contraction(self):
        with pytest.raises(DomainError):
            sgd_gap_bound(lr=1.0, mu=1.0, noise_var=0.0, d0=1.0, t=2)
        with pytest.raises(DomainError):
            sgd_gap_bound(lr=0.0, mu=1.0, noise_var=0.0, d0=1.0, t=2)


class TestExpectedGap:
    def test_noiseless_geometric(self):
        gaps = sgd_quadratic_expected_gap(np.full(6, 0.5), mu=1.0, noise_var_eff=0.0, d0=1.0)
        np.testing.assert_allclose(gaps, 0.25 ** np.arange(1, 7), rtol=1e-13)

    def test_fixed_point_one_third(self):
        gaps = sgd_quadratic_expected_gap(
            np.full(200, 0.5), mu=1.0, noise_var_eff=1.0, d0=1.0
        )
        assert gaps[-1] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_instability_detected(self):
        with pytest.raises(DomainError):
            sgd_quadratic_expected_gap(np.array([0.1, 2.5]), 1.0, 0.0, 1.0)
        check_sgd_stability(np.array([0.1, 0.5]), 1.0)

    def test_bound_dominates_exact_recursion(self):
        # running two-term majorant: contraction product on d0 plus the
        # un-discounted noise injections
        lr, mu, s2, d0 = 0.2, 1.0, 0.7, 3.0
        lrs = np.full(300, lr)
        exact = sgd_quadratic_expected_gap(lrs, mu, s2, d0)
        t = np.arange(1, 301)
        majorant = (1 - lr * mu) ** (2 * t) * d0 + t * lr * lr * s2
        assert np.all(exact <= majorant + 1e-15)


class TestMonteCarlo:
    def test_matches_analytic_within_three_stderr(self):
        lrs = np.linspace(0.3, 0.0, 400)
        analytic = sgd_quadratic_expected_gap(lrs, 1.0, 0.5, 1.0)[-1]
        mean, stderr = sgd_monte_carlo_gap(lrs, 1.0, 0.5, 1.0, trials=1000, seed=11)
        assert abs(mean - analytic) <= 3 * stderr

    def test_deterministic_in_seed(self):
        lrs = np.full(50, 0.1)
        a = sgd_monte_carlo_gap(lrs, 1.0, 1.0, 1.0, trials=64, seed=5)
        b = sgd_monte_carlo_gap(lrs, 1.0, 1.0, 1.0, trials=64, seed=5)
        assert a == b
        c = sgd_monte_carlo_gap(lrs, 1.0, 1.0, 1.0, trials=64, seed=6)
        assert a != c

    def test_bit_pin(self):
        # recorded before the chain update became in place; any reordering
        # of its floating-point operations changes the repr
        lrs = np.linspace(0.05, 0.001, 300)
        result = sgd_monte_carlo_gap(lrs, 1.0, 0.7, 1.5, trials=500, seed=11)
        assert repr(result) == "(0.0038783169478009095, 0.0002493231851922123)"

    def test_needs_trials(self):
        with pytest.raises(ValidationError):
            sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=1, seed=0)

    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    @pytest.mark.parametrize(
        "mu, noise_var_eff, d0",
        [
            (float("nan"), 1.0, 1.0),
            (0.0, 1.0, 1.0),
            (1.0, -1.0, 1.0),
            (1.0, float("nan"), 1.0),
            (1.0, 1.0, -1.0),
            (1.0, 1.0, float("inf")),
        ],
    )
    def test_chain_inputs_checked(self, gap, mu, noise_var_eff, d0):
        # both gaps share one check; the d0 error is not an allocation error
        lrs = np.full(5, 0.1)
        with pytest.raises(DomainError, match="must be") as err:
            if gap == "analytic":
                sgd_quadratic_expected_gap(lrs, mu, noise_var_eff, d0)
            else:
                sgd_monte_carlo_gap(lrs, mu, noise_var_eff, d0, trials=10, seed=0)
        assert "allocate" not in str(err.value)

    def test_trials_too_large_to_allocate(self):
        with pytest.raises(DomainError, match="trials=100000000000000000000 is too large"):
            sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=10**20, seed=0)

    def test_noiseless_chains_collapse(self):
        lrs = np.full(20, 0.2)
        mean, stderr = sgd_monte_carlo_gap(lrs, 1.0, 0.0, 1.0, trials=16, seed=0)
        assert mean == pytest.approx(0.8**40, rel=1e-12)
        assert stderr == 0.0
