"""Tests for neural-network layers: shapes, forward values, gradients, and costs.

Every layer's backward pass is checked against a central-difference numerical
gradient on small tensors — both the gradient with respect to the input and
(where applicable) with respect to the weights.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    GlobalMaxPool,
    MaxPool2D,
    Parameter,
    ReLU,
    ReLU6,
    SeparableConv2D,
    sigmoid,
)
from repro.nn.model import Sequential
from repro.nn.serialization import load_weights, save_weights

RNG = np.random.default_rng(0)


def _loss_and_grad(layer, x, target_shape=None):
    """Scalar loss = sum(out * w) for a fixed random weighting; returns (loss_fn, weighting)."""
    out = layer.forward(x, training=True)
    weighting = np.random.default_rng(99).random(out.shape)
    return out, weighting


def check_input_gradient(layer, x, rtol=1e-5, atol=1e-6):
    """Compare analytic dL/dx against central differences for L = sum(w * layer(x))."""
    x = np.asarray(x, dtype=np.float64)
    out = layer.forward(x, training=True)
    weighting = np.random.default_rng(99).random(out.shape)
    analytic = layer.backward(weighting)

    def loss():
        return float((layer.forward(x, training=False) * weighting).sum())

    eps = 1e-5
    numeric = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_num = numeric.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        plus = loss()
        flat_x[i] = orig - eps
        minus = loss()
        flat_x[i] = orig
        flat_num[i] = (plus - minus) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_parameter_gradients(layer, x, rtol=1e-4, atol=1e-6):
    """Compare analytic parameter gradients against central differences."""
    x = np.asarray(x, dtype=np.float64)
    out = layer.forward(x, training=True)
    weighting = np.random.default_rng(99).random(out.shape)
    for p in layer.parameters():
        p.zero_grad()
    layer.backward(weighting)

    def loss():
        return float((layer.forward(x, training=False) * weighting).sum())

    eps = 1e-5
    for p in layer.parameters():
        numeric = np.zeros_like(p.value)
        flat_v = p.value.reshape(-1)
        flat_n = numeric.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + eps
            plus = loss()
            flat_v[i] = orig - eps
            minus = loss()
            flat_v[i] = orig
            flat_n[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(p.grad, numeric, rtol=rtol, atol=atol)


def grads_allocated(parameters):
    """Which parameters hold a gradient buffer — read without touching ``grad``."""
    return [p.name for p in parameters if p._grad is not None]


class TestGradientLifecycle:
    """``Parameter.grad`` exists from its first use on, never before."""

    def _model(self, seed=0):
        return Sequential(
            [
                Conv2D(4, 3, name="conv"),
                ReLU(name="relu"),
                SeparableConv2D(3, 3, name="sep"),
                Conv2D(2, 1, name="pointwise"),
                GlobalMaxPool(name="max"),
                Dense(1, name="fc"),
            ],
            input_shape=(6, 6, 3),
            rng=np.random.default_rng(seed),
        )

    def test_inference_path_allocates_no_gradient(self, tmp_path):
        model = self._model()
        x = RNG.random((2, 6, 6, 3))
        model.forward(x)
        model.forward_with_taps(x, ["sep"], stop_at_last_tap=True)
        model.load_state_dict(self._model(seed=1).state_dict())
        load_weights(model, save_weights(self._model(seed=2), tmp_path / "w"))
        for p in model.parameters():
            p.zero_grad()
        assert grads_allocated(model.parameters()) == []

    def test_backward_allocates_then_accumulates_in_place(self):
        model = self._model()
        x = RNG.random((2, 6, 6, 3))
        upstream = np.ones((2, 1))
        model.forward(x, training=True)
        model.backward(upstream)
        params = model.parameters()
        assert grads_allocated(params) == [p.name for p in params]
        buffers = [p.grad for p in params]
        once = [g.copy() for g in buffers]
        assert any(np.any(g != 0.0) for g in once)
        model.forward(x, training=True)
        model.backward(upstream)
        for p, buffer, first in zip(params, buffers, once):
            assert p.grad is buffer
            np.testing.assert_array_equal(p.grad, first + first)
            p.zero_grad()
            assert p.grad is buffer
            assert not p.grad.any()

    def test_grad_is_a_plain_attribute_to_callers(self):
        p = Parameter("w", [1.0, 2.0, 3.0])
        assert grads_allocated([p]) == []
        assert p.grad.shape == (3,) and not p.grad.any()  # a read allocates zeros
        p.grad += 2.0
        p.grad[0] = 5.0
        np.testing.assert_array_equal(p.grad, [5.0, 2.0, 2.0])
        replacement = np.arange(3.0)
        p.grad = replacement
        assert p.grad is replacement

    def test_replacing_value_with_another_shape_drops_the_stale_gradient(self):
        p = Parameter("w", np.ones((2, 2)))
        p.grad += 1.0
        p.value = np.ones((3,))
        assert p.grad.shape == (3,) and not p.grad.any()

    def test_repr_names_shape_and_gradient_state_without_array_dumps(self):
        p = Parameter("conv/kernel", np.ones((3, 3, 2, 4)))
        assert repr(p) == "Parameter('conv/kernel', shape=(3, 3, 2, 4), grad=False)"
        p.grad += 1.0
        assert repr(p) == "Parameter('conv/kernel', shape=(3, 3, 2, 4), grad=True)"


class TestConv2D:
    def _build(self, **kwargs):
        layer = Conv2D(4, 3, **kwargs)
        layer.build((5, 6, 2), np.random.default_rng(1))
        return layer

    def test_output_shape_same_padding(self):
        layer = self._build()
        x = RNG.random((2, 5, 6, 2))
        assert layer.forward(x).shape == (2, 5, 6, 4)
        assert layer.output_shape((5, 6, 2)) == (5, 6, 4)

    def test_output_shape_stride_two(self):
        layer = Conv2D(3, 3, stride=2)
        layer.build((7, 9, 2), np.random.default_rng(1))
        assert layer.output_shape((7, 9, 2)) == (4, 5, 3)
        assert layer.forward(RNG.random((1, 7, 9, 2))).shape == (1, 4, 5, 3)

    def test_matches_manual_convolution_1x1(self):
        layer = Conv2D(2, 1)  # its bias starts at zero
        layer.build((3, 3, 2), np.random.default_rng(2))
        x = RNG.random((1, 3, 3, 2))
        expected = x @ layer.kernel.value[0, 0]
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_bias_added_per_filter(self):
        layer = self._build()
        layer.bias.value[:] = [1.0, 2.0, 3.0, 4.0]
        zero = np.zeros((1, 5, 6, 2))
        out = layer.forward(zero)
        np.testing.assert_allclose(out[0, 0, 0], [1.0, 2.0, 3.0, 4.0])

    def test_input_gradient(self):
        check_input_gradient(self._build(), RNG.random((2, 5, 6, 2)))

    def test_parameter_gradients(self):
        check_parameter_gradients(self._build(), RNG.random((2, 5, 6, 2)))

    def test_gradients_with_stride(self):
        layer = Conv2D(2, 3, stride=2)
        layer.build((7, 7, 2), np.random.default_rng(3))
        check_input_gradient(layer, RNG.random((1, 7, 7, 2)))

    def test_multiply_adds_formula(self):
        layer = self._build()
        # H * W * C_in * K^2 * F for same padding and stride 1.
        assert layer.multiply_adds((5, 6, 2)) == 5 * 6 * 2 * 9 * 4

    def test_forward_before_build_raises(self):
        with pytest.raises(RuntimeError):
            Conv2D(2, 3).forward(np.zeros((1, 4, 4, 1)))

    def test_invalid_filters_raises(self):
        with pytest.raises(ValueError):
            Conv2D(0, 3)


class TestDepthwiseConv2D:
    def _build(self, **kwargs):
        layer = DepthwiseConv2D(3, **kwargs)
        layer.build((5, 6, 3), np.random.default_rng(1))
        return layer

    def test_preserves_channel_count(self):
        layer = self._build()
        assert layer.forward(RNG.random((2, 5, 6, 3))).shape == (2, 5, 6, 3)

    def test_channels_do_not_mix(self):
        layer = self._build()
        layer.bias.value[:] = 0.0
        x = np.zeros((1, 5, 6, 3))
        x[0, :, :, 1] = 1.0  # only channel 1 carries signal
        out = layer.forward(x)
        assert np.allclose(out[..., 0], 0.0)
        assert np.allclose(out[..., 2], 0.0)

    def test_input_gradient(self):
        check_input_gradient(self._build(), RNG.random((1, 5, 6, 3)))

    def test_parameter_gradients(self):
        check_parameter_gradients(self._build(), RNG.random((1, 5, 6, 3)))

    def test_stride_two_output_shape(self):
        layer = DepthwiseConv2D(3, stride=2)
        layer.build((9, 11, 2), np.random.default_rng(0))
        assert layer.output_shape((9, 11, 2)) == (5, 6, 2)

    def test_multiply_adds_formula(self):
        layer = self._build()
        assert layer.multiply_adds((5, 6, 3)) == 5 * 6 * 3 * 9


class TestSeparableConv2D:
    def _build(self, stride=1):
        layer = SeparableConv2D(4, 3, stride=stride)
        layer.build((5, 6, 3), np.random.default_rng(1))
        return layer

    def test_output_shape(self):
        layer = self._build()
        assert layer.forward(RNG.random((2, 5, 6, 3))).shape == (2, 5, 6, 4)

    def test_only_the_pointwise_half_has_a_bias(self):
        layer = self._build()
        assert layer.depthwise.bias is None
        assert [p.name for p in layer.parameters()] == [
            f"{layer.name}/depthwise/depthwise_kernel",
            f"{layer.name}/pointwise/kernel",
            f"{layer.name}/pointwise/bias",
        ]
        biased = DepthwiseConv2D(3)  # the base DNN's depthwise layers keep theirs
        biased.build((5, 6, 3), np.random.default_rng(1))
        assert biased.bias is not None and biased.bias.value.shape == (3,)

    def test_equals_depthwise_then_pointwise(self):
        layer = self._build()
        x = RNG.random((1, 5, 6, 3))
        manual = layer.pointwise.forward(layer.depthwise.forward(x))
        np.testing.assert_allclose(layer.forward(x), manual)

    def test_input_gradient(self):
        check_input_gradient(self._build(), RNG.random((1, 5, 6, 3)))

    def test_parameter_gradients(self):
        check_parameter_gradients(self._build(), RNG.random((1, 5, 6, 3)))

    def test_multiply_adds_uses_factored_formula(self):
        layer = self._build()
        # H * W * M * (K^2 + F), the paper's separable-conv formula.
        assert layer.multiply_adds((5, 6, 3)) == 5 * 6 * 3 * (9 + 4)

    def test_parameter_count_smaller_than_standard_conv(self):
        sep = self._build()
        std = Conv2D(4, 3)
        std.build((5, 6, 3), np.random.default_rng(1))
        sep_params = sum(p.size for p in sep.parameters())
        std_params = sum(p.size for p in std.parameters())
        assert sep_params < std_params


class TestDense:
    def _build(self, units=3, input_shape=(4, 5, 2)):
        layer = Dense(units)
        layer.build(input_shape, np.random.default_rng(1))
        return layer

    def test_flattens_spatial_input(self):
        layer = self._build()
        assert layer.forward(RNG.random((2, 4, 5, 2))).shape == (2, 3)

    def test_matches_matmul(self):
        layer = self._build(units=2, input_shape=(6,))
        x = RNG.random((3, 6))
        expected = x @ layer.kernel.value + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_input_gradient(self):
        check_input_gradient(self._build(), RNG.random((2, 4, 5, 2)))

    def test_parameter_gradients(self):
        check_parameter_gradients(self._build(units=2, input_shape=(3, 2, 2)), RNG.random((2, 3, 2, 2)))

    def test_multiply_adds_formula(self):
        layer = self._build(units=7, input_shape=(4, 5, 2))
        assert layer.multiply_adds((4, 5, 2)) == 4 * 5 * 2 * 7

    def test_invalid_units(self):
        with pytest.raises(ValueError):
            Dense(0)


class TestPooling:
    def test_maxpool_shape_and_values(self):
        layer = MaxPool2D()
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = layer.forward(x)
        assert out.shape == (1, 2, 2, 1)
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_routes_to_max_only(self):
        layer = MaxPool2D()
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        layer.forward(x, training=True)
        grad = layer.backward(np.ones((1, 2, 2, 1)))
        assert grad.sum() == 4.0
        assert grad[0, 1, 1, 0] == 1.0
        assert grad[0, 0, 0, 0] == 0.0

    def test_maxpool_input_gradient_numerical(self):
        layer = MaxPool2D()
        check_input_gradient(layer, RNG.random((1, 4, 6, 2)))

    def test_maxpool_drops_an_odd_edge(self):
        """2x2 windows at stride 2 over the valid region: a 5x7 map pools to 2x3."""
        layer = MaxPool2D()
        x = np.arange(35, dtype=float).reshape(1, 5, 7, 1)
        assert layer.output_shape((5, 7, 1)) == (2, 3, 1)
        np.testing.assert_array_equal(layer.forward(x)[0, :, :, 0], [[8, 10, 12], [22, 24, 26]])

    def test_global_maxpool(self):
        layer = GlobalMaxPool()
        x = RNG.random((2, 3, 4, 5))
        out = layer.forward(x)
        np.testing.assert_allclose(out, x.reshape(2, 12, 5).max(axis=1))
        assert layer.output_shape((3, 4, 5)) == (5,)

    def test_global_maxpool_inference_equals_training_forward(self):
        """The direct max and the argmax/take pair agree, NaNs included."""
        x = RNG.standard_normal((3, 4, 5, 6))
        x[0, 1, 2, 3] = np.nan
        x[1, :, :, 0] = np.nan
        x[2, 0, 0, :] = x[2].max(axis=(0, 1))  # ties
        layer = GlobalMaxPool()
        inference = layer.forward(x, training=False)
        assert layer._cache is None
        assert inference.tobytes() == layer.forward(x, training=True).tobytes()
        assert np.isnan(inference[0, 3]) and np.isnan(inference[1, 0])

    def test_global_maxpool_gradient(self):
        check_input_gradient(GlobalMaxPool(), RNG.random((2, 3, 4, 2)))


class TestActivations:
    def test_relu_values(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_gradient(self):
        check_input_gradient(ReLU(), RNG.random((3, 4)) - 0.5)

    def test_relu6_clips_at_six(self):
        layer = ReLU6()
        x = np.array([[-1.0, 3.0, 8.0]])
        np.testing.assert_array_equal(layer.forward(x), [[0.0, 3.0, 6.0]])

    def test_relu6_gradient(self):
        check_input_gradient(ReLU6(), 8 * (RNG.random((3, 4)) - 0.5))

    def test_sigmoid_range_and_symmetry(self):
        x = np.array([[-50.0, 0.0, 50.0]])
        out = sigmoid(x)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.5)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-12)


class TestFlatten:
    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = RNG.random((2, 3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 60)
        assert layer.backward(out).shape == x.shape
