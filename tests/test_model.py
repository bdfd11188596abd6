"""Model primitives and the batch-reactor benchmark dynamics."""

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, DisturbanceBounds, batch_reactor,
                   output, sample_disturbance, step)

ZERO_W = np.zeros(3)
NO_U = np.zeros(0)


class TestBox:
    def test_contains_and_project(self):
        box = Box(np.array([0.0, -1.0]), np.array([2.0, np.inf]))
        assert box.dim == 2
        assert box.contains(np.array([1.0, 100.0]))
        assert not box.contains(np.array([-0.1, 0.0]))
        assert box.contains(np.array([-0.1, 0.0]), tol=0.2)
        np.testing.assert_allclose(box.project(np.array([3.0, -5.0])),
                                   [2.0, -1.0])

    def test_unbounded(self):
        box = Box.unbounded(3)
        assert box.contains(np.array([1e300, -1e300, 0.0]))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ConfigurationError):
            Box(np.array([0.0, 0.0]), np.array([1.0]))


class TestBatchReactor:
    def test_nominal_step(self, bench_model):
        # Hand-computed: x1+ = 3 + 0.1*(-2*0.16*9 + 2*0.0064*1) = 2.71328,
        # x2+ = 1 + 0.1*(0.16*9 - 0.0064*1) = 1.14336.
        x_next = step(bench_model, np.array([3.0, 1.0]), NO_U, ZERO_W)
        np.testing.assert_allclose(x_next, [2.71328, 1.14336], rtol=1e-14)

    def test_disturbed_step(self, bench_model):
        w = np.array([1e-3, -1e-3, 0.0])
        x_next = step(bench_model, np.array([3.0, 1.0]), NO_U, w)
        np.testing.assert_allclose(x_next, [2.71428, 1.14236], rtol=1e-14)

    def test_output(self, bench_model):
        y = output(bench_model, np.array([3.0, 1.0]), NO_U, ZERO_W)
        np.testing.assert_allclose(y, [4.0])
        y = output(bench_model, np.array([3.0, 1.0]), NO_U,
                   np.array([0.0, 0.0, 0.1]))
        np.testing.assert_allclose(y, [4.1])
        y = output(bench_model, np.array([0.1, 4.5]), NO_U, ZERO_W)
        np.testing.assert_allclose(y, [4.6])

    def test_batched_evaluation_matches_loop(self, bench_model):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 5.0, (7, 2))
        W = rng.uniform(-1e-3, 1e-3, (7, 3))
        U = np.zeros((7, 0))
        batched = bench_model.f(X, U, W)
        rowwise = np.array([bench_model.f(X[i], U[i], W[i]) for i in range(7)])
        np.testing.assert_allclose(batched, rowwise, rtol=0, atol=0)
        np.testing.assert_allclose(bench_model.h(X, U, W)[:, 0],
                                   X[:, 0] + X[:, 1] + W[:, 2])

    def test_matches_stacked_formula(self, bench_model):
        k1, k2, tau = 0.16, 0.0064, 0.1
        rng = np.random.default_rng(4)
        for shape in ((), (9,), (4, 5)):
            X = rng.uniform(0.0, 5.0, shape + (2,))
            W = rng.uniform(-1e-3, 1e-3, shape + (3,))
            x1, x2 = X[..., 0], X[..., 1]
            stacked = np.stack(
                [x1 + tau * (-2.0 * k1 * x1 ** 2 + 2.0 * k2 * x2) + W[..., 0],
                 x2 + tau * (k1 * x1 ** 2 - k2 * x2) + W[..., 1]], axis=-1)
            assert np.array_equal(bench_model.f(X, NO_U, W), stacked)

    def test_broadcasts_unbatched_argument(self, bench_model):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 5.0, (6, 2))
        W = rng.uniform(-1e-3, 1e-3, (6, 3))
        out = bench_model.f(X[0], NO_U, W)
        assert out.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(out[i], bench_model.f(X[0], NO_U, W[i]))
        out = bench_model.f(X, NO_U, W[0])
        assert out.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(out[i], bench_model.f(X[i], NO_U, W[0]))

    def test_state_set_default_nonnegative(self, bench_model):
        assert bench_model.x_set.contains(np.zeros(2))
        assert not bench_model.x_set.contains(np.array([-1e-9, 1.0]))
        free = batch_reactor(nonnegative_states=False)
        assert free.x_set.contains(np.array([-10.0, -10.0]))

    def test_dimension_checks(self, bench_model):
        with pytest.raises(ConfigurationError):
            step(bench_model, np.zeros(3), NO_U, ZERO_W)
        with pytest.raises(ConfigurationError):
            output(bench_model, np.zeros(2), NO_U, np.zeros(2))


class TestDisturbanceBounds:
    def test_sampling_respects_bounds(self):
        bounds = DisturbanceBounds(np.array([1e-3, 1e-3, 0.1]))
        rng = np.random.default_rng(0)
        samples = np.array([sample_disturbance(rng, bounds) for _ in range(500)])
        assert np.all(np.abs(samples) <= bounds.bounds)
        # Each coordinate should actually exercise most of its range.
        assert np.all(samples.max(axis=0) > 0.8 * bounds.bounds)
        assert np.all(samples.min(axis=0) < -0.8 * bounds.bounds)

    def test_deterministic_given_seed(self):
        bounds = DisturbanceBounds(np.array([1.0, 2.0]))
        a = sample_disturbance(np.random.default_rng(42), bounds)
        b = sample_disturbance(np.random.default_rng(42), bounds)
        np.testing.assert_array_equal(a, b)

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            DisturbanceBounds(np.array([-1.0]))

    def test_as_box_contains_zero(self):
        box = DisturbanceBounds(np.array([0.5, 0.0])).as_box()
        assert box.contains(np.zeros(2))
