"""Analytic gap recursion, its stability rule, and Monte Carlo agreement."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lrdual import DomainError, ValidationError
from lrdual.oracle import QuadraticProblem, sgd_monte_carlo_gap, sgd_quadratic_expected_gap
from lrdual.oracle.rng import normal_field


def run_gap(gap, lrs, mu, noise_var_eff, d0):
    """The analytic or the Monte Carlo gap on the same chain arguments."""
    if gap == "analytic":
        return sgd_quadratic_expected_gap(lrs, mu, noise_var_eff, d0)
    return sgd_monte_carlo_gap(lrs, mu, noise_var_eff, d0, trials=10, seed=0)


def ulps(value, exact):
    """Distance of a float from an exact rational, in ulps of the rational."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


class TestQuadraticProblem:
    def test_start_point_distance(self):
        p = QuadraticProblem(dim=5, theta0_dist_sq=2.5)
        offset = p.theta0() - p.theta_star()
        assert np.dot(offset, offset) == pytest.approx(2.5, rel=1e-12)
        assert np.linalg.norm(p.theta_star()) > 0

    def test_effective_noise(self):
        p = QuadraticProblem(dim=1, noise_var=2.0, batch_size=8)
        assert p.effective_noise_var == 0.25

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(dim=0), "dim must be"),
            (dict(dim=2, curvature=-1.0), "curvature must be positive"),
            (dict(dim=2, noise_var=-0.5), "noise_var must be"),
            (dict(dim=2, batch_size=0), "batch_size must be"),
            # numpy's broadcast and conversion errors are not let through
            (dict(dim=3, curvature=[1.0, 2.0]), r"curvature .* 3 of them, .* of shape \(2,\)"),
            (dict(dim=3, curvature="a"), r"curvature .* got 'a' of shape \(\)"),
            (dict(dim=3, curvature=[[1.0], [1.0, 2.0]]), r"curvature .* of shape \(2,\)"),
            (dict(dim=2, curvature=np.ones((2, 2))), r"curvature .* of shape \(2, 2\)"),
        ],
        ids=["dim", "negative-curvature", "noise", "batch", "curvature-length",
             "curvature-string", "curvature-ragged", "curvature-2-d"],
    )
    def test_validation(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            QuadraticProblem(**fields)

    def test_dim_too_large_to_allocate(self):
        # numpy refuses 1e20 entries before allocating anything
        with pytest.raises(DomainError, match="dim=100000000000000000000 is too large"):
            QuadraticProblem(dim=10**20)


class TestExpectedGap:
    def test_noiseless_geometric(self):
        lrs = np.full(6, 0.5)
        gaps = [sgd_quadratic_expected_gap(lrs[:t], mu=1.0, noise_var_eff=0.0, d0=1.0)
                for t in range(1, 7)]
        np.testing.assert_allclose(gaps, 0.25 ** np.arange(1, 7), rtol=1e-13)

    def test_fixed_point_one_third(self):
        gap = sgd_quadratic_expected_gap(np.full(200, 0.5), mu=1.0, noise_var_eff=1.0, d0=1.0)
        assert gap == pytest.approx(1.0 / 3.0, rel=1e-12)

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
             (0.013094071851585681, 0.004009706104184305)),
            (np.linspace(1.5, 0.0, 300), 1.3, 2.0, 0.5, (2.2222449644465487, 0.04373710765682645)),
        ],
    )
    def test_bit_pin(self, lrs, mu, s2, d0, pinned):
        # recorded when the gap became A * d0 + B * s2 from one loop; the
        # direct recursion gave (0.013094071851585686, 0.004009706104184308)
        # on the first case and the same bits on the second
        gaps = [sgd_quadratic_expected_gap(lrs[:t], mu, s2, d0) for t in (100, len(lrs))]
        assert tuple(gaps) == pinned

    def test_zero_variance_reads_a_times_d0_alone(self):
        # lr^2 = 1e400 overflows, so B is inf; the entry at s2 = 0 must not
        # read it, and inf * 0 would be an invalid-value error here
        lrs, mu, d0 = np.full(50, 1e200), 1e-201, 1.5
        with np.errstate(over="ignore"):
            gaps = sgd_quadratic_expected_gap(lrs, mu, [0.0, 1.0], d0)
        bias = d0
        for contraction in np.square(1.0 - lrs * mu).tolist():
            bias = contraction * bias + 0.0  # the recursion at s2 = 0
        assert math.isfinite(gaps[0]) and gaps[0].tobytes() == np.float64(bias).tobytes()
        assert gaps[0] == sgd_quadratic_expected_gap(lrs, mu, 0.0, d0)
        assert gaps[1] == math.inf

    def test_bound_dominates_exact_recursion(self):
        # running two-term majorant: contraction product on d0 plus the
        # un-discounted noise injections
        lr, mu, s2, d0 = 0.2, 1.0, 0.7, 3.0
        lrs = np.full(300, lr)
        exact = np.array([sgd_quadratic_expected_gap(lrs[:t], mu, s2, d0) for t in range(1, 301)])
        t = np.arange(1, 301)
        majorant = (1 - lr * mu) ** (2 * t) * d0 + t * lr * lr * s2
        assert np.all(exact <= majorant + 1e-15)


class TestMonteCarlo:
    def test_matches_analytic_within_three_stderr(self):
        lrs = np.linspace(0.3, 0.0, 400)
        analytic = sgd_quadratic_expected_gap(lrs, 1.0, 0.5, 1.0)
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
        # recorded when each trial's final distance became P * sqrt(d0) -
        # sqrt(s2) * W; the direct recursion gave the same mean and a standard
        # error of 0.0002493231851922123. Any reordering of its floating-point
        # operations changes the repr
        lrs = np.linspace(0.05, 0.001, 300)
        result = sgd_monte_carlo_gap(lrs, 1.0, 0.7, 1.5, trials=500, seed=11)
        assert repr(result) == "(0.0038783169478009095, 0.00024932318519221223)"

    def test_needs_trials(self):
        with pytest.raises(ValidationError):
            sgd_monte_carlo_gap(np.full(5, 0.1), 1.0, 1.0, 1.0, trials=1, seed=0)

    @pytest.mark.parametrize(
        "gap, mu, noise_var_eff, d0",
        [
            *[(gap, *args) for gap in ("analytic", "monte-carlo") for args in [
                (float("nan"), 1.0, 1.0),
                (0.0, 1.0, 1.0),
                (1.0, -1.0, 1.0),
                (1.0, float("nan"), 1.0),
                (1.0, True, 1.0),
                (1.0, 1.0, -1.0),
                (1.0, 1.0, float("inf")),
            ]],
            # both take one variance or a non-empty 1-D sequence of them
            *[(gap, 1.0, variances, 1.0) for gap in ("analytic", "monte-carlo")
              for variances in [
                  [],
                  np.full((2, 1), 1.0),
                  [[1.0], [1.0, 2.0]],
                  [1.0, -1.0],
                  [1.0, float("nan")],
                  [1.0, True],
                  np.array([True]),
              ]],
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
            (np.full((2, 3, 1), 0.1), r"shape \(T, chains\), got shape \(2, 3, 1\)"),
            (np.array(0.1), r"non-empty 1-D array, got shape \(\)"),
            (np.array([0.1, -0.1]), "learning rate -0.1 at step 2"),
            (np.array([0.1, np.inf]), "learning rate inf at step 2"),
            (["0.1", "x"], "learning rates must be numbers"),
        ],
        ids=["empty", "3-d", "0-d", "negative", "infinite", "strings"],
    )
    def test_lr_array_checked(self, gap, lrs, message):
        # the schedule layer's LR-array rule: no run happens on an empty array,
        # and no bad shape escapes as a numpy error; a 2-D array is LR columns
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
    """Time-major LR columns and sequences of variances, taken by both gap
    functions."""

    LRS = np.column_stack([
        np.linspace(0.3, 0.0, 150), np.full(150, 0.05), np.linspace(0.01, 0.4, 150),
        np.linspace(0.3, 0.0, 150), np.full(150, 1.9),
    ])
    VARIANCES = [0.5, 0.0, 2.0, 1e-3]

    def test_each_entry_equals_its_one_chain_run(self):
        means, stderrs = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300,
                                             seed=17)
        assert means.shape == stderrs.shape == (5, 4)
        for c in range(5):
            for v, var in enumerate(self.VARIANCES):
                one = sgd_monte_carlo_gap(self.LRS[:, c], 1.0, var, 1.5, trials=300, seed=17)
                assert (means[c, v], stderrs[c, v]) == one

    @pytest.mark.parametrize(
        "lrs, variances, shape",
        [(LRS[:, 0], 0.5, None), (LRS[:, 0], [0.5, 0.0], (2,)), (LRS, 0.5, (5,)),
         (LRS, [0.5], (5, 1))],
        ids=["one-one", "one-many", "many-one", "many-many"],
    )
    def test_result_shape_is_columns_by_variances(self, lrs, variances, shape):
        # the exact gap's results come in the Monte Carlo's layout
        gap = sgd_quadratic_expected_gap(lrs, 1.0, variances, 1.5)
        result = sgd_monte_carlo_gap(lrs, 1.0, variances, 1.5, trials=40, seed=17)
        if shape is None:
            assert all(type(x) is float for x in (gap, *result))
        else:
            assert gap.shape == result[0].shape == result[1].shape == shape

    @pytest.mark.parametrize("variance", [0.5, 0.0])
    def test_each_expected_gap_column_equals_its_one_chain_run(self, variance):
        # at one variance, and at it among the others
        for variances, shape in ((variance, (5,)), ([variance, *self.VARIANCES], (5, 5))):
            gaps = sgd_quadratic_expected_gap(self.LRS, 1.0, variances, 1.5)
            assert gaps.shape == shape
            for c, v in np.ndindex(5, np.size(variances)):
                one = sgd_quadratic_expected_gap(self.LRS[:, c], 1.0, np.ravel(variances)[v], 1.5)
                assert gaps.reshape(5, -1)[c, v].tobytes() == np.float64(one).tobytes()

    def test_noiseless_chain_equals_a_full_width_run(self):
        # one column stands for every trial; the statistics still run over all
        # of them, so the rounding of mean and std is that of the full array
        theta = np.full(300, np.sqrt(1.5))
        for lr in self.LRS[:, 1]:
            theta *= 1.0 - lr * 1.0
        final_sq = theta * theta
        expected = (float(final_sq.mean()), float(final_sq.std(ddof=1) / np.sqrt(300)))
        assert sgd_monte_carlo_gap(self.LRS[:, 1], 1.0, 0.0, 1.5, trials=300, seed=0) == expected
        # at a variance of 0 beside noisy ones, W is computed and not read
        means, stderrs = sgd_monte_carlo_gap(self.LRS[:, 1], 1.0, [2.0, 0.0], 1.5, trials=300,
                                             seed=0)
        assert (means[1], stderrs[1]) == expected

    def test_chunking_does_not_change_results(self, monkeypatch):
        from lrdual.oracle import quadratic

        whole = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300, seed=17)
        drawn = []
        field = quadratic.normal_field
        monkeypatch.setattr(quadratic, "normal_field", lambda *a: drawn.append(a) or field(*a))
        # one chain per chunk: each of the five chunks draws its fields
        monkeypatch.setattr(quadratic, "_CHUNK_BYTES", 8)
        chunked = sgd_monte_carlo_gap(self.LRS, 1.0, self.VARIANCES, 1.5, trials=300, seed=17)
        assert len(drawn) == 5 * 150
        np.testing.assert_array_equal(chunked[0], whole[0])
        np.testing.assert_array_equal(chunked[1], whole[1])

    def test_one_field_per_step_and_none_without_noise(self, monkeypatch):
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
        "lrs, message",
        [
            (np.full((5, 0), 0.1), r"shape \(T, chains\), got shape \(5, 0\)"),
            (np.full((0, 2), 0.1), r"chain 0: learning rates must be a non-empty 1-D array"),
            (np.array([[0.1, 0.1], [0.1, -0.1]]), "chain 1: learning rate -0.1 at step 2"),
            ([["0.1", "0.1"], ["0.1", "x"]], "chain 1: learning rates must be numbers"),
        ],
        ids=["no-chains", "no-steps", "lr", "strings"],
    )
    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    def test_columns_checked(self, gap, lrs, message):
        with pytest.raises(ValidationError, match=message):
            run_gap(gap, lrs, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("gap", ["analytic", "monte-carlo"])
    def test_unstable_column_is_named(self, gap):
        lrs = np.full((5, 2), 0.1)
        lrs[3, 1] = 2.5
        with pytest.raises(DomainError, match="chain 1: unstable step size at step 4"):
            run_gap(gap, lrs, 1.0, 1.0, 1.0)


class TestExactReferences:
    """The exact gap's factors and the Monte Carlo's final distances against
    exact rational recursions on the same float inputs and noise draws."""

    LRS = np.linspace(0.6, 0.05, 12)
    MU = 1.3
    D0 = 2.25  # its square root, 1.5, is exact

    @pytest.mark.parametrize(
        "s2, d0, bound",
        [(0.0, D0, 3.5), (1.0, 0.0, 1.0), (0.7, D0, 2.0)],
        ids=["A*d0", "B", "direct"],
    )
    def test_expected_gap_factors(self, s2, d0, bound):
        # at every prefix of the curve, measured 3.10, 0.73 and 1.48 ulps;
        # every step rounds lr * mu and the contraction's square, and A
        # carries those roundings through
        gaps = [sgd_quadratic_expected_gap(self.LRS[:t], self.MU, s2, d0)
                for t in range(1, len(self.LRS) + 1)]
        e, mu = Fraction(d0), Fraction(self.MU)
        for t, lr in enumerate(map(Fraction, self.LRS.tolist())):
            e = (1 - lr * mu) ** 2 * e + lr * lr * Fraction(s2)
            assert ulps(gaps[t], e) <= bound

    @pytest.mark.parametrize("seed", range(4))
    def test_final_distance_is_p_minus_std_times_w(self, seed):
        # P * sqrt(d0) - sqrt(s2) * W against the direct recursion
        # theta_t = (1 - lr mu) theta - lr sqrt(s2) z_t, run exactly on the
        # same draws: mean within 4 ulps (3.76 measured, at the noiseless
        # variance), standard error within 2 (1.53 measured)
        variances, trials = [0.0, 0.25, 2.25], 16  # standard deviations 0, 0.5, 1.5
        means, stderrs = sgd_monte_carlo_gap(self.LRS, self.MU, variances, self.D0,
                                             trials=trials, seed=seed)
        mu = Fraction(self.MU)
        draws = [[Fraction(z) for z in normal_field(seed, t, trials).tolist()]
                 for t in range(1, len(self.LRS) + 1)]
        for v, var in enumerate(variances):
            std = Fraction(math.sqrt(var))
            theta = [Fraction(math.sqrt(self.D0))] * trials
            for lr, z in zip(map(Fraction, self.LRS.tolist()), draws):
                theta = [(1 - lr * mu) * th - lr * std * zk for th, zk in zip(theta, z)]
            squares = [th * th for th in theta]
            mean = sum(squares) / trials
            assert ulps(means[v], mean) <= 4
            if var:
                sq_stderr = sum((x - mean) ** 2 for x in squares) / ((trials - 1) * trials)
                stderr = Fraction(math.isqrt(math.floor(sq_stderr * 4**200)), 2**200)
                assert ulps(stderrs[v], stderr) <= 2
