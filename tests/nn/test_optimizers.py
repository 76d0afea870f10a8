"""Tests for optimizers."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optimizers import SGD, Adam


def quadratic_grad(p: Parameter, target: np.ndarray) -> None:
    """Gradient of 0.5 * ||value - target||^2."""
    p.grad[...] = p.value - target


class TestSGD:
    def test_single_step_moves_against_gradient(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        p.grad[...] = np.array([0.5, -0.5])
        SGD(learning_rate=0.1).step([p])
        np.testing.assert_allclose(p.value, [0.95, -1.95])

    def test_converges_on_quadratic(self):
        p = Parameter("w", np.array([5.0, -3.0]))
        target = np.array([1.0, 2.0])
        opt = SGD(learning_rate=0.2)
        for _ in range(100):
            quadratic_grad(p, target)
            opt.step([p])
        np.testing.assert_allclose(p.value, target, atol=1e-6)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)

    def test_zero_grad_clears_gradients(self):
        p = Parameter("w", np.zeros(3))
        p.grad[...] = 1.0
        SGD(0.1).zero_grad([p])
        assert np.all(p.grad == 0.0)


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

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)


class TestOptimizerContract:
    @pytest.mark.parametrize(
        "make",
        [lambda: SGD(learning_rate=-0.1), lambda: Adam(learning_rate=0.0)],
        ids=["sgd_negative", "adam_zero"],
    )
    def test_non_positive_learning_rate_rejected(self, make):
        with pytest.raises(ValueError, match="learning_rate"):
            make()

    def test_adam_step_size_ignores_gradient_scale(self):
        small = Parameter("s", np.array([0.0]))
        large = Parameter("l", np.array([0.0]))
        small.grad[...] = np.array([1e-3])
        large.grad[...] = np.array([1e3])
        Adam(learning_rate=0.05).step([small])
        Adam(learning_rate=0.05).step([large])
        assert small.value[0] == pytest.approx(large.value[0], rel=1e-3)

    @pytest.mark.parametrize("make", [lambda: SGD(0.1), lambda: Adam(0.1)], ids=["sgd", "adam"])
    def test_step_leaves_gradient_for_zero_grad(self, make):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.grad[...] = np.array([0.5, -0.5])
        make().step([p])
        np.testing.assert_array_equal(p.grad, [0.5, -0.5])

    def test_zero_gradient_is_a_no_op_for_sgd(self):
        p = Parameter("w", np.array([1.0, -1.0]))
        SGD(0.5).step([p])
        np.testing.assert_array_equal(p.value, [1.0, -1.0])
