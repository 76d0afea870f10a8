"""Tests for the Adam optimizer."""

import math

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optimizers import Adam


def quadratic_grad(p: Parameter, target: np.ndarray) -> None:
    """Gradient of 0.5 * ||value - target||^2."""
    p.grad[...] = p.value - target


class TestAdam:
    def test_first_step_size_close_to_learning_rate(self):
        p = Parameter("w", np.array([0.0]))
        opt = Adam(learning_rate=0.01)
        p.grad[...] = np.array([3.0])
        opt.step([p])
        assert p.value[0] == pytest.approx(-0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = Parameter("w", np.array([10.0, -10.0]))
        opt = Adam(learning_rate=0.3)
        target = np.array([2.0, -1.0])
        for _ in range(300):
            quadratic_grad(p, target)
            opt.step([p])
        np.testing.assert_allclose(p.value, target, atol=1e-3)

    def test_state_is_per_parameter(self):
        a = Parameter("a", np.array([0.0]))
        b = Parameter("b", np.array([0.0]))
        opt = Adam(learning_rate=0.1)
        a.grad[...] = np.array([1.0])
        b.grad[...] = np.array([-1.0])
        opt.step([a, b])
        assert a.value[0] < 0 < b.value[0]

    def test_zero_grad_clears_gradients(self):
        p = Parameter("w", np.zeros(3))
        p.grad[...] = 1.0
        Adam(0.1).zero_grad([p])
        assert np.all(p.grad == 0.0)


class TestOptimizerContract:
    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, math.nan], ids=["zero", "negative", "nan"])
    def test_non_positive_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            Adam(learning_rate=learning_rate)

    def test_adam_step_size_ignores_gradient_scale(self):
        small = Parameter("s", np.array([0.0]))
        large = Parameter("l", np.array([0.0]))
        small.grad[...] = np.array([1e-3])
        large.grad[...] = np.array([1e3])
        Adam(learning_rate=0.05).step([small])
        Adam(learning_rate=0.05).step([large])
        assert small.value[0] == pytest.approx(large.value[0], rel=1e-3)

    def test_step_leaves_gradient_for_zero_grad(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.grad[...] = np.array([0.5, -0.5])
        Adam(0.1).step([p])
        np.testing.assert_array_equal(p.grad, [0.5, -0.5])
