"""Model primitives and the batch-reactor benchmark dynamics."""

import dataclasses

import numpy as np
import pytest

from etmhe import Box, ConfigurationError, batch_reactor, sample_disturbance

ZERO_W = np.zeros(3)


class TestBox:
    def test_contains_and_project(self):
        box = Box(np.array([0.0, -1.0]), np.array([2.0, np.inf]))
        assert box.dim == 2
        assert box.contains(np.array([1.0, 100.0]))
        assert not box.contains(np.array([-0.1, 0.0]))

    def test_unbounded(self):
        box = Box.unbounded(3)
        assert box.contains(np.array([1e300, -1e300, 0.0]))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ConfigurationError):
            Box(np.array([0.0, 0.0]), np.array([1.0]))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_nan_bound_rejected(self, side):
        bounds = {"lower": np.array([0.0, 0.0]), "upper": np.array([np.inf, np.inf])}
        bounds[side][0] = np.nan
        with pytest.raises(ConfigurationError, match=f"box {side} bound must not be NaN"):
            Box(**bounds)


class TestBatchReactor:
    def test_nominal_step(self, bench_model):
        # Hand-computed: x1+ = 3 + 0.1*(-2*0.16*9 + 2*0.0064*1) = 2.71328,
        # x2+ = 1 + 0.1*(0.16*9 - 0.0064*1) = 1.14336.
        x_next = bench_model.f(np.array([3.0, 1.0]), ZERO_W)
        np.testing.assert_allclose(x_next, [2.71328, 1.14336], rtol=1e-14)

    def test_disturbed_step(self, bench_model):
        w = np.array([1e-3, -1e-3, 0.0])
        x_next = bench_model.f(np.array([3.0, 1.0]), w)
        np.testing.assert_allclose(x_next, [2.71428, 1.14236], rtol=1e-14)

    def test_output(self, bench_model):
        y = bench_model.h(np.array([3.0, 1.0]), ZERO_W)
        np.testing.assert_allclose(y, [4.0])
        y = bench_model.h(np.array([3.0, 1.0]), np.array([0.0, 0.0, 0.1]))
        np.testing.assert_allclose(y, [4.1])
        y = bench_model.h(np.array([0.1, 4.5]), ZERO_W)
        np.testing.assert_allclose(y, [4.6])

    def test_batched_evaluation_matches_loop(self, bench_model):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 5.0, (7, 2))
        W = rng.uniform(-1e-3, 1e-3, (7, 3))
        batched = bench_model.f(X, W)
        rowwise = np.array([bench_model.f(X[i], W[i]) for i in range(7)])
        np.testing.assert_allclose(batched, rowwise, rtol=0, atol=0)
        np.testing.assert_allclose(bench_model.h(X, W)[:, 0],
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
            assert np.array_equal(bench_model.f(X, W), stacked)

    def test_broadcasts_unbatched_argument(self, bench_model):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 5.0, (6, 2))
        W = rng.uniform(-1e-3, 1e-3, (6, 3))
        out = bench_model.f(X[0], W)
        assert out.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(out[i], bench_model.f(X[0], W[i]))
        out = bench_model.f(X, W[0])
        assert out.shape == (6, 2)
        for i in range(6):
            assert np.array_equal(out[i], bench_model.f(X[i], W[0]))

    @pytest.mark.parametrize("name,bad", [("k1", np.nan), ("k2", np.inf),
                                          ("tau", -1.0), ("k1", -0.16), ("k2", -1.0)])
    def test_bad_parameters_rejected(self, name, bad):
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be finite and nonnegative"):
            batch_reactor(**{name: bad})
        # Zero is allowed: tau = 0 is a plant that does not move.
        assert batch_reactor(**{name: 0.0}).n == 2

    def test_state_set_default_nonnegative(self, bench_model):
        assert bench_model.x_set.contains(np.zeros(2))
        assert not bench_model.x_set.contains(np.array([-1e-9, 1.0]))
        free = dataclasses.replace(bench_model, x_set=Box.unbounded(2))
        assert free.x_set.contains(np.array([-10.0, -10.0]))


class TestSystemModel:
    @pytest.mark.parametrize("field", ["n", "q", "p"])
    def test_rejects_empty_dimension(self, bench_model, field):
        with pytest.raises(ConfigurationError, match="^invalid model dimensions$"):
            dataclasses.replace(bench_model, **{field: 0})

    @pytest.mark.parametrize("name", ["x_set", "w_set"])
    def test_rejects_set_of_other_dimension(self, bench_model, name):
        dim = getattr(bench_model, name).dim
        with pytest.raises(ConfigurationError,
                           match=f"^{name} dimension {dim + 1} != {dim}$"):
            dataclasses.replace(bench_model, **{name: Box.unbounded(dim + 1)})

    def test_disturbance_set_must_contain_zero(self, bench_model):
        w_set = Box(np.array([-1e-3, 1e-4, -0.1]), np.array([1e-3, 1e-3, 0.1]))
        with pytest.raises(ConfigurationError,
                           match="^disturbance set must contain zero$"):
            dataclasses.replace(bench_model, w_set=w_set)


class TestDisturbanceBounds:
    def test_sampling_respects_bounds(self):
        b = np.array([1e-3, 1e-3, 0.1])
        rng = np.random.default_rng(0)
        samples = np.array([sample_disturbance(rng, Box(-b, b)) for _ in range(500)])
        assert np.all(np.abs(samples) <= b)
        # Each coordinate should actually exercise most of its range.
        assert np.all(samples.max(axis=0) > 0.8 * b)
        assert np.all(samples.min(axis=0) < -0.8 * b)

    def test_deterministic_given_seed(self):
        box = Box(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        a = sample_disturbance(np.random.default_rng(42), box)
        b = sample_disturbance(np.random.default_rng(42), box)
        np.testing.assert_array_equal(a, b)

    def test_count_draws_like_single_calls(self):
        b = np.array([1e-3, 0.0, 0.1])
        box = Box(-b, b)
        many = sample_disturbance(np.random.default_rng(7), box, 6)
        rng = np.random.default_rng(7)
        single = np.array([sample_disturbance(rng, box) for _ in range(6)])
        assert many.shape == (6, 3)
        np.testing.assert_array_equal(many, single)
        # The same numbers as a draw on [-b, b] from the half-widths.
        np.testing.assert_array_equal(
            many, np.random.default_rng(7).uniform(-b, b, (6, 3)))

    def test_batch_reactor_disturbance_set_is_the_box(self):
        box = Box(np.array([-0.5, 0.0, -0.1]), np.array([0.5, 0.0, 0.2]))
        assert batch_reactor(w_bounds=box).w_set is box
