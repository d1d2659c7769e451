"""Analytic gap recursion, its stability rule, and Monte Carlo agreement."""

import numpy as np
import pytest

from lrdual import DomainError, ValidationError
from lrdual.oracle import QuadraticProblem, sgd_monte_carlo_gap, sgd_quadratic_expected_gap


def run_gap(gap, lrs, mu, noise_var_eff, d0):
    """The analytic or the Monte Carlo gap on the same chain arguments."""
    if gap == "analytic":
        return sgd_quadratic_expected_gap(lrs, mu, noise_var_eff, d0)
    return sgd_monte_carlo_gap(lrs, mu, noise_var_eff, d0, trials=10, seed=0)


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
        sgd_quadratic_expected_gap(np.array([0.1, 0.5]), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (2.0, DomainError, "unstable step size at step 3"),
            (-0.1, ValidationError, "learning rate -0.1 at step 3"),
            (float("nan"), ValidationError, "learning rate nan at step 3"),
        ],
    )
    def test_first_step_outside_zero_two_is_named(self, bad, error, message):
        # lr * mu must stay in [0, 2): the boundary is unstable, while a negative
        # or nan learning rate is not a learning rate at all
        with pytest.raises(error, match=message):
            sgd_quadratic_expected_gap(np.array([0.1, 1.9, bad, 3.0]), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "lrs, mu, s2, d0, pinned",
        [
            (np.linspace(0.05, 0.001, 300), 1.0, 0.7, 1.5,
             (0.013094071851585686, 0.004009706104184308)),
            (np.linspace(1.5, 0.0, 300), 1.3, 2.0, 0.5, (2.2222449644465487, 0.04373710765682645)),
        ],
    )
    def test_bit_pin(self, lrs, mu, s2, d0, pinned):
        # recorded when the recursion ran one chain per call; the column form
        # must not reorder its floating-point operations
        gaps = sgd_quadratic_expected_gap(lrs, mu, s2, d0)
        assert (float(gaps[99]), float(gaps[-1])) == pinned

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
        with pytest.raises(ValidationError, match="must be") as err:
            if gap == "analytic":
                sgd_quadratic_expected_gap(lrs, mu, noise_var_eff, d0)
            else:
                sgd_monte_carlo_gap(lrs, mu, noise_var_eff, d0, trials=10, seed=0)
        assert "allocate" not in str(err.value)

    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    @pytest.mark.parametrize(
        "lrs, message",
        [
            (np.array([]), r"non-empty 1-D array, got shape \(0,\)"),
            (np.full((2, 3), 0.1), r"non-empty 1-D array, got shape \(2, 3\)"),
            (np.array(0.1), r"non-empty 1-D array, got shape \(\)"),
            (np.array([0.1, -0.1]), "learning rate -0.1 at step 2"),
            (np.array([0.1, np.inf]), "learning rate inf at step 2"),
            (["0.1", "x"], "learning rates must be numbers"),
        ],
        ids=["empty", "2-d", "0-d", "negative", "infinite", "strings"],
    )
    def test_lr_array_checked(self, gap, lrs, message):
        # the schedule layer's LR-array rule: no run happens on an empty array,
        # and no bad shape escapes as a numpy error
        with pytest.raises(ValidationError, match=message):
            if gap == "analytic":
                sgd_quadratic_expected_gap(lrs, 1.0, 1.0, 1.0)
            else:
                sgd_monte_carlo_gap(lrs, 1.0, 1.0, 1.0, trials=10, seed=0)

    def test_trials_too_large_to_allocate(self):
        with pytest.raises(DomainError, match="trials=100000000000000000000 is too large"):
            sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=10**20, seed=0)

    def test_noiseless_chains_collapse(self):
        lrs = np.full(20, 0.2)
        mean, stderr = sgd_monte_carlo_gap(lrs, 1.0, 0.0, 1.0, trials=16, seed=0)
        assert mean == pytest.approx(0.8**40, rel=1e-12)
        assert stderr == 0.0


class TestMonteCarloChains:
    """Time-major LR columns with one noise variance per chain, taken by both
    gap functions."""

    LRS = np.column_stack([
        np.linspace(0.3, 0.0, 150), np.full(150, 0.05), np.linspace(0.01, 0.4, 150),
        np.linspace(0.3, 0.0, 150), np.full(150, 1.9),
    ])
    VARIANCES = [0.5, 0.0, 2.0, 0.0, 1e-3]

    def test_each_column_equals_its_one_chain_run(self):
        means, stderrs = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300,
                                             seed=17)
        assert means.shape == stderrs.shape == (5,)
        for c, var in enumerate(self.VARIANCES):
            one = sgd_monte_carlo_gap(self.LRS[:, c], 1.0, var, 1.5, trials=300, seed=17)
            assert (means[c], stderrs[c]) == one

    def test_each_expected_gap_column_equals_its_one_chain_run(self):
        gaps = sgd_quadratic_expected_gap(self.LRS, 1.0, self.VARIANCES, 1.5)
        assert gaps.shape == self.LRS.shape
        for c, var in enumerate(self.VARIANCES):
            one = sgd_quadratic_expected_gap(self.LRS[:, c], 1.0, var, 1.5)
            assert gaps[:, c].tobytes() == one.tobytes()

    def test_noiseless_chain_equals_a_full_width_run(self):
        # one column stands for every trial; the statistics still run over all
        # of them, so the rounding of mean and std is that of the full array
        theta = np.full(300, np.sqrt(1.5))
        for lr in self.LRS[:, 1]:
            theta *= 1.0 - lr * 1.0
        final_sq = theta * theta
        expected = (float(final_sq.mean()), float(final_sq.std(ddof=1) / np.sqrt(300)))
        assert sgd_monte_carlo_gap(self.LRS[:, 1], 1.0, 0.0, 1.5, trials=300, seed=0) == expected

    def test_chunking_does_not_change_results(self, monkeypatch):
        from lrdual.oracle import quadratic

        whole = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300, seed=17)
        drawn = []
        field = quadratic.normal_field
        monkeypatch.setattr(quadratic, "normal_field", lambda *a: drawn.append(a) or field(*a))
        # one chain per chunk: each of the three noisy chunks draws its fields
        monkeypatch.setattr(quadratic, "_CHUNK_BYTES", 8)
        chunked = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300, seed=17)
        assert len(drawn) == 3 * 150
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[1], whole[1])

    def test_one_field_per_step_and_none_for_noiseless_chains(self, monkeypatch):
        from lrdual.oracle import quadratic

        drawn = []
        field = quadratic.normal_field
        monkeypatch.setattr(quadratic, "normal_field", lambda *a: drawn.append(a) or field(*a))
        sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300, seed=17)
        assert drawn == [(17, t, 300) for t in range(1, 151)]
        drawn.clear()
        sgd_monte_carlo_gap(self.LRS, 1.0, [0.0] * 5, 1.5, trials=300, seed=17)
        assert drawn == []

    @pytest.mark.parametrize(
        "lrs, variances, message",
        [
            (np.full((5, 2), 0.1), [1.0], r"shape \(T, 1\), one per noise variance, got shape "
                                          r"\(5, 2\)"),
            (np.full(5, 0.1), [1.0], r"shape \(T, 1\), one per noise variance, got shape \(5,\)"),
            (np.full((5, 0), 0.1), [], r"shape \(T, 0\)"),
            (np.full((5, 2), 0.1), [1.0, -1.0], "chain 1: noise_var_eff must be"),
            (np.array([[0.1, 0.1], [0.1, -0.1]]), [1.0, 1.0],
             "chain 1: learning rate -0.1 at step 2"),
        ],
        ids=["columns", "1-d", "no-chains", "variance", "lr"],
    )
    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    def test_columns_checked(self, gap, lrs, variances, message):
        with pytest.raises(ValidationError, match=message):
            run_gap(gap, lrs, 1.0, variances, 1.0)

    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    def test_unstable_column_is_named(self, gap):
        lrs = np.full((5, 2), 0.1)
        lrs[3, 1] = 2.5
        with pytest.raises(DomainError, match="chain 1: unstable step size at step 4"):
            run_gap(gap, lrs, 1.0, [1.0, 1.0], 1.0)
