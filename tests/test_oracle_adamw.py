"""Reference AdamW semantics and the update-combination reconstruction."""

import hashlib
import math

import numpy as np
import pytest

from lrdual import (
    DivergenceError,
    DomainError,
    NonFiniteGradientError,
    ScheduleKind,
    ScheduleSpec,
    ValidationError,
    coefficients_at,
)
from lrdual.oracle import (
    AdamWConfig,
    QuadraticProblem,
    reconstruct_from_updates,
    train,
)


def spec_of(kind="linear", total=50, warmup=5, peak=0.1, ratio=0.0):
    return ScheduleSpec(
        kind=ScheduleKind(kind),
        total_steps=total,
        peak_base_lr=peak,
        warmup_steps=warmup,
        decay_ratio=ratio,
    )


class TestAdamWStep:
    """Single steps of the update, driven through ``train`` by a gradient callable."""

    def test_first_step_moves_against_gradient_sign(self):
        config = AdamWConfig(weight_decay=0.0, epsilon=1e-12)
        trace = train(
            lambda step, theta: np.array([3.7, -2.2, 0.5]),
            spec_of(kind="constant", total=1, warmup=0, peak=0.01),
            config,
            theta0=np.zeros(3),
        )
        np.testing.assert_allclose(trace.thetas[1], [-0.01, 0.01, -0.01], rtol=1e-9)
        assert trace.steps == 1

    def test_zero_lr_freezes_parameters(self):
        # step 1 is the one warmup step, step 2 has lr = 0 and keeps theta;
        # the moments still advance, so a different g_2 changes theta_3
        spec = ScheduleSpec(
            kind=ScheduleKind.PIECEWISE, total_steps=3, peak_base_lr=0.1,
            warmup_steps=0, kind_params={"multipliers": (0.0, 1.0)},
        )
        config = AdamWConfig(weight_decay=0.1)

        def run(g2):
            grads = (np.array([1.0, -2.0]), g2, np.array([5.0, 5.0]))
            return train(
                lambda step, theta: grads[step - 1], spec, config, theta0=np.zeros(2)
            )

        same = run(np.array([5.0, 5.0]))
        other = run(np.array([-1.0, 3.0]))
        for trace in (same, other):
            assert trace.lrs[1] == 0.0
            assert np.array_equal(trace.thetas[2], trace.thetas[1])
        assert not np.array_equal(same.thetas[3], other.thetas[3])

    def test_two_steps_match_hand_unrolled_recurrence(self):
        # oracle: the definitional recurrence evaluated inline
        beta1, beta2, eps, lr, wd = 0.9, 0.999, 1e-8, 0.1, 0.0
        g1 = g2 = 1.0
        m1 = (1 - beta1) * g1
        v1 = (1 - beta2) * g1 * g1
        u1 = (m1 / (1 - beta1)) / (math.sqrt(v1 / (1 - beta2)) + eps)
        th1 = (1 - lr * wd) * 0.0 - lr * u1
        m2 = beta1 * m1 + (1 - beta1) * g2
        v2 = beta2 * v1 + (1 - beta2) * g2 * g2
        u2 = (m2 / (1 - beta1**2)) / (math.sqrt(v2 / (1 - beta2**2)) + eps)
        th2 = (1 - lr * wd) * th1 - lr * u2

        config = AdamWConfig(weight_decay=wd, beta1=beta1, beta2=beta2, epsilon=eps)
        grads = (np.array([g1]), np.array([g2]))
        trace = train(
            lambda step, theta: grads[step - 1],
            spec_of(kind="constant", total=2, warmup=0, peak=lr),
            config,
            theta0=np.zeros(1),
        )
        assert trace.thetas[1, 0] == pytest.approx(th1, rel=1e-15)
        assert trace.thetas[2, 0] == pytest.approx(th2, rel=1e-15)

    def test_non_finite_gradient_poisons(self):
        with pytest.raises(NonFiniteGradientError) as err:
            train(
                lambda step, theta: np.array([1.0, np.nan]),
                spec_of(), AdamWConfig(), theta0=np.zeros(2),
            )
        assert err.value.step == 1

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            AdamWConfig(beta1=1.0)
        with pytest.raises(ValidationError):
            AdamWConfig(beta2=-0.1)
        with pytest.raises(ValidationError):
            AdamWConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            AdamWConfig(epsilon=float("inf"))
        with pytest.raises(ValidationError):
            AdamWConfig(weight_decay=-0.5)


class TestTrain:
    def test_noiseless_descent(self):
        problem = QuadraticProblem(dim=1, curvature=1.0, noise_var=0.0, theta0_dist_sq=4.0)
        trace = train(problem, spec_of(total=200, warmup=20), AdamWConfig(), seed=0)
        optimum = problem.theta_star()
        start = np.linalg.norm(trace.thetas[0] - optimum)
        final = np.linalg.norm(trace.thetas[-1] - optimum)
        assert final < start

    def test_identical_seeds_bit_identical(self):
        problem = QuadraticProblem(dim=4, curvature=1.0, noise_var=0.5, theta0_dist_sq=1.0)
        spec = spec_of(total=100, warmup=10)
        a = train(problem, spec, AdamWConfig(), seed=7)
        b = train(problem, spec, AdamWConfig(), seed=7)
        assert np.array_equal(a.thetas, b.thetas)
        assert np.array_equal(a.updates, b.updates)
        c = train(problem, spec, AdamWConfig(), seed=8)
        assert not np.array_equal(a.thetas, c.thetas)

    def test_per_coordinate_curvature(self):
        problem = QuadraticProblem(
            dim=3, curvature=np.array([0.5, 1.0, 2.0]), noise_var=0.0,
            theta0_dist_sq=3.0,
        )
        trace = train(problem, spec_of(total=300, warmup=30), AdamWConfig(), seed=0)
        optimum = problem.theta_star()
        gaps = np.abs(trace.thetas[-1] - optimum)
        assert np.all(gaps < np.abs(trace.thetas[0] - optimum))

    def test_callable_sees_current_parameters(self):
        problem = QuadraticProblem(dim=3, curvature=1.5, noise_var=0.0, theta0_dist_sq=2.0)
        spec = spec_of(total=80, warmup=8)
        optimum = problem.theta_star()
        expected = train(problem, spec, AdamWConfig())
        called = train(
            lambda step, theta: problem.curvature * (theta - optimum),
            spec,
            AdamWConfig(),
            theta0=problem.theta0(),
        )
        assert np.array_equal(called.thetas, expected.thetas)

    def test_callable_keeps_the_parameters_it_is_handed(self):
        # every theta passed to the gradient must stay as it was handed over
        seen = []
        problem = QuadraticProblem(dim=3, curvature=1.5, noise_var=0.0, theta0_dist_sq=2.0)
        optimum = problem.theta_star()

        def gradient(step, theta):
            seen.append(theta)
            return problem.curvature * (theta - optimum)

        trace = train(gradient, spec_of(total=30, warmup=3), AdamWConfig(), theta0=problem.theta0())
        assert len(seen) == 30
        assert np.array_equal(np.array(seen), trace.thetas[:-1])

    def test_gradient_array_refused(self):
        grads = np.zeros((50, 3))
        with pytest.raises(ValidationError, match="gradient callable"):
            train(grads, spec_of(), AdamWConfig(), theta0=np.zeros(3))

    def test_callable_needs_theta0(self):
        with pytest.raises(ValidationError):
            train(lambda step, theta: np.zeros(2), spec_of(), AdamWConfig())

    def test_callable_gradient_of_another_length_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            train(lambda step, theta: np.ones(4), spec_of(), AdamWConfig(), theta0=np.zeros(3))

    def test_quadratic_theta0_of_another_length_rejected(self):
        with pytest.raises(ValidationError, match="dim=5"):
            train(QuadraticProblem(dim=5), spec_of(), AdamWConfig(), theta0=np.zeros(3))

    def test_divergence_reports_first_bad_step(self):
        # lr * wd > 2 flips the decay factor below -1 and the iterate blows up
        spec = spec_of(kind="constant", total=5000, warmup=0, peak=50.0)
        problem = QuadraticProblem(dim=1, curvature=1.0, noise_var=0.0, theta0_dist_sq=1.0)
        with pytest.raises(DivergenceError) as err:
            train(problem, spec, AdamWConfig(weight_decay=0.1), seed=0)
        assert err.value.step >= 1

    def test_zero_weight_decay_trace_has_no_updates(self):
        problem = QuadraticProblem(dim=2, curvature=1.0, noise_var=0.0, theta0_dist_sq=1.0)
        trace = train(problem, spec_of(total=20, warmup=2), AdamWConfig(weight_decay=0.0))
        assert trace.updates is None
        with pytest.raises(DomainError):
            trace.smoothing()
        with pytest.raises(DomainError):
            reconstruct_from_updates(trace, None)


class TestBitPins:
    """Digests of traces recorded before the update became in place; any
    reordering of the floating-point operations changes them."""

    SPEC = dict(total=300, warmup=30)

    @staticmethod
    def digest(array):
        return hashlib.sha256(array.tobytes()).hexdigest()

    def test_weight_decay_trace(self):
        trace = train(
            QuadraticProblem(dim=5, noise_var=0.5), spec_of(**self.SPEC),
            AdamWConfig(weight_decay=0.1), seed=3,
        )
        assert self.digest(trace.thetas) == (
            "061c6564efcfc327c49ab7d0e82c0111fe405838c25d9e2d54e08fc12c38b5ab"
        )
        assert self.digest(trace.updates) == (
            "d9f1cb32244c17ca1ce155c6ba220eea8a6b8408580130137c78305f90c69ff8"
        )

    def test_zero_weight_decay_trace(self):
        trace = train(
            QuadraticProblem(dim=5, noise_var=0.5), spec_of(**self.SPEC),
            AdamWConfig(weight_decay=0.0), seed=3,
        )
        assert self.digest(trace.thetas) == (
            "0f573532b4c48d28cf6f334f4849cd7d93a0db007d3b0f4d42b21c517c25ade8"
        )
        assert trace.updates is None


class TestReconstruction:
    def _trace(self, total=2000, dim=10, wd=0.1, noise=0.3, seed=3):
        problem = QuadraticProblem(
            dim=dim, curvature=1.0, noise_var=noise, theta0_dist_sq=float(dim)
        )
        spec = spec_of(total=total, warmup=total // 10)
        return train(problem, spec, AdamWConfig(weight_decay=wd), seed=seed)

    def test_duality_identity_2000_steps(self):
        trace = self._trace()
        coeffs = coefficients_at(trace.smoothing())
        _, rel = reconstruct_from_updates(trace, coeffs)
        assert rel < 1e-9

    def test_single_step_trace(self):
        trace = self._trace(total=1, dim=2, noise=0.0)
        coeffs = coefficients_at(trace.smoothing())
        _, rel = reconstruct_from_updates(trace, coeffs)
        assert rel < 1e-12

    def test_truncated_top_mass_reconstruction(self):
        trace = self._trace(total=1500)
        coeffs = coefficients_at(trace.smoothing())
        c = coeffs.c.copy()
        order = np.argsort(c)[::-1]
        keep_mass = np.cumsum(c[order])
        cutoff = int(np.searchsorted(keep_mass, 1.0 - 1e-12) + 1)
        mask = np.zeros_like(c, dtype=bool)
        mask[order[:cutoff]] = True
        truncated = type(coeffs)(t=coeffs.t, log_c=np.where(mask, coeffs.log_c, -np.inf))
        _, rel = reconstruct_from_updates(trace, truncated)
        assert rel < 1e-9

    def test_overflowed_inputs_are_a_domain_error(self):
        # at wd = 1e-320 the inputs x_t = -update / wd overflow to inf
        trace = self._trace(total=10, dim=3, wd=1e-320)
        assert np.isinf(trace.updates[1:]).any()
        with pytest.raises(DomainError, match="not finite"):
            reconstruct_from_updates(trace, coefficients_at(trace.smoothing()))

    def test_length_mismatch_rejected(self):
        trace = self._trace(total=50)
        short = coefficients_at(
            type(trace.smoothing())(trace.smoothing().alphas[:-1])
        )
        with pytest.raises(ValidationError):
            reconstruct_from_updates(trace, short)
