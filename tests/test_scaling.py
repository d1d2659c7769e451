"""Power-law fitting: exact recovery, noise robustness, slope comparison."""

import numpy as np
import pytest

from lrdual import DomainError, ValidationError, fit_power_law, slope_gap


class TestFitPowerLaw:
    def test_two_point_exact(self):
        fit = fit_power_law([(1.0, 4.0), (4.0, 2.0)])
        assert fit.exponent == pytest.approx(-0.5, rel=1e-14)
        assert fit.coefficient == pytest.approx(4.0, rel=1e-14)
        assert fit.r_squared == 1.0

    def test_three_point_exact_line(self):
        fit = fit_power_law([(1.0, 2.0), (10.0, 20.0), (100.0, 200.0)])
        assert fit.exponent == pytest.approx(1.0, rel=1e-13)
        assert fit.coefficient == pytest.approx(2.0, rel=1e-13)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_random_power_laws(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c = float(10.0 ** rng.uniform(-2, 2))
            m = float(rng.uniform(-2, 2))
            x = np.sort(10.0 ** rng.uniform(0, 6, 20))
            fit = fit_power_law(list(zip(x, c * x**m)))
            assert fit.coefficient == pytest.approx(c, rel=1e-12)
            assert fit.exponent == pytest.approx(m, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_one_percent_noise_slope_recovery(self):
        rng = np.random.default_rng(42)
        x = 10.0 ** np.linspace(0, 6, 50)
        y = 3.0 * x**-0.05 * np.exp(0.01 * rng.standard_normal(50))
        fit = fit_power_law(list(zip(x, y)))
        assert abs(fit.exponent - (-0.05)) <= 0.005

    def test_scale_equivariance(self):
        x = np.array([1.0, 3.0, 9.0, 27.0])
        y = 2.0 * x**-0.7
        base = fit_power_law(list(zip(x, y)))
        k = 12.5
        scaled = fit_power_law(list(zip(k * x, y)))
        assert scaled.exponent == pytest.approx(base.exponent, rel=1e-10)
        assert scaled.coefficient == pytest.approx(
            base.coefficient * k ** (-base.exponent), rel=1e-10
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pts = [(float(x), float(2 * x**-0.3 + 0.01 * x)) for x in rng.uniform(1, 50, 12)]
        a = fit_power_law(pts)
        b = fit_power_law(list(reversed(pts)))
        assert a.exponent == pytest.approx(b.exponent, rel=1e-12)
        assert a.coefficient == pytest.approx(b.coefficient, rel=1e-12)
        assert a.r_squared == pytest.approx(b.r_squared, rel=1e-12)

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(DomainError):
            fit_power_law([(1.0, 1.0), (2.0, -1.0)])
        with pytest.raises(DomainError):
            fit_power_law([(0.0, 1.0), (2.0, 1.0)])

    def test_rejects_degenerate_x(self):
        with pytest.raises(DomainError):
            fit_power_law([(3.0, 1.0), (3.0, 2.0)])

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            fit_power_law([(1.0, 1.0)])

    def test_flat_data_has_unit_r_squared(self):
        fit = fit_power_law([(1.0, 5.0), (10.0, 5.0), (100.0, 5.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 1.0


class TestSlopeGap:
    def _fit_with_exponent(self, m):
        x = np.array([1.0, 10.0, 100.0])
        return fit_power_law(list(zip(x, 2.0 * x**m)))

    def test_constructed_gap(self):
        a = self._fit_with_exponent(-0.1025)
        b = self._fit_with_exponent(-0.1)
        assert slope_gap(a, b) == pytest.approx(-0.025, rel=1e-12)

    def test_identical_fits(self):
        a = self._fit_with_exponent(-0.4)
        assert slope_gap(a, a) == 0.0

    def test_sign_convention_steeper_is_negative(self):
        steeper = self._fit_with_exponent(-0.5)
        baseline = self._fit_with_exponent(-0.25)
        assert slope_gap(steeper, baseline) < 0.0

    def test_zero_baseline(self):
        flat = self._fit_with_exponent(0.0)
        other = self._fit_with_exponent(-0.1)
        with pytest.raises(DomainError):
            slope_gap(other, flat)
