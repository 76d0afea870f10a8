"""Tests for the Sequential model container."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.model import Sequential, count_parameters
from repro.nn.optimizers import Adam


def small_model(rng=None):
    return Sequential(
        [
            Conv2D(4, 3, name="conv_a"),
            ReLU(name="relu_a"),
            Conv2D(8, 3, stride=2, name="conv_b"),
            ReLU(name="relu_b"),
            Flatten(name="flatten"),
            Dense(1, name="head"),
        ],
        input_shape=(8, 8, 3),
        rng=rng or np.random.default_rng(0),
        name="small",
    )


class TestConstruction:
    def test_builds_all_layers(self):
        model = small_model()
        assert model.built
        assert model.output_shape_ == (1,)

    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate layer names"):
            Sequential([ReLU(name="x"), ReLU(name="x")], input_shape=(4,))

    def test_unbuilt_model_raises_on_forward(self):
        model = Sequential([Dense(2, name="d")])
        with pytest.raises(RuntimeError):
            model.forward(np.zeros((1, 3)))

    def test_layer_output_shapes(self):
        shapes = small_model().layer_output_shapes()
        assert shapes["conv_a"] == (8, 8, 4)
        assert shapes["conv_b"] == (4, 4, 8)
        assert shapes["head"] == (1,)

    def test_unbuilt_model_answers_shape_and_cost_queries_at_any_shape(self):
        built = small_model()
        unbuilt = Sequential(built.layers, name="unbuilt")
        assert unbuilt.layer_output_shapes((8, 8, 3)) == built.layer_output_shapes()
        assert unbuilt.multiply_adds((8, 8, 3)) == built.multiply_adds()
        assert unbuilt.layer_output_shapes((16, 16, 3))["conv_b"] == (8, 8, 8)
        with pytest.raises(RuntimeError):
            unbuilt.layer_output_shapes()
        with pytest.raises(RuntimeError):
            unbuilt.multiply_adds()


class TestForwardBackward:
    def test_forward_shape(self):
        model = small_model()
        out = model.forward(np.random.default_rng(1).random((5, 8, 8, 3)))
        assert out.shape == (5, 1)

    def test_forward_with_taps_returns_requested_layers(self):
        model = small_model()
        x = np.random.default_rng(3).random((2, 8, 8, 3))
        out, taps = model.forward_with_taps(x, ["relu_a", "conv_b"])
        assert set(taps) == {"relu_a", "conv_b"}
        assert taps["relu_a"].shape == (2, 8, 8, 4)
        assert taps["conv_b"].shape == (2, 4, 4, 8)
        np.testing.assert_array_equal(out, model.forward(x))

    def test_forward_with_taps_can_stop_at_the_deepest_tap(self):
        model = small_model()
        x = np.random.default_rng(3).random((2, 8, 8, 3))
        _, full = model.forward_with_taps(x, ["relu_a", "conv_b"])
        out, early = model.forward_with_taps(x, ["relu_a", "conv_b"], stop_at_last_tap=True)
        assert out is early["conv_b"]
        assert out.shape != model.forward(x).shape  # the head did not run
        for name in ("relu_a", "conv_b"):
            assert early[name].tobytes() == full[name].tobytes()

    def test_stop_at_last_tap_without_taps_raises(self):
        with pytest.raises(ValueError, match="at least one tap"):
            small_model().forward_with_taps(np.zeros((1, 8, 8, 3)), [], stop_at_last_tap=True)

    def test_forward_with_taps_unknown_layer_raises(self):
        with pytest.raises(KeyError):
            small_model().forward_with_taps(np.zeros((1, 8, 8, 3)), ["nope"])

    def test_training_reduces_loss(self):
        """A small model must be able to fit a simple separable problem."""
        rng = np.random.default_rng(4)
        model = small_model(rng)
        x = rng.random((32, 8, 8, 3))
        y = (x[:, :, :, 0].mean(axis=(1, 2)) > 0.5).astype(float).reshape(-1, 1)
        loss_fn = SigmoidBinaryCrossEntropy()
        optimizer = Adam(learning_rate=5e-3)
        params = model.parameters()
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad(params)
            logits = model.forward(x, training=True)
            loss = loss_fn.forward(logits, y)
            if first_loss is None:
                first_loss = loss
            model.backward(loss_fn.backward(logits, y))
            optimizer.step(params)
        assert loss < 0.5 * first_loss


class TestIntrospection:
    def test_parameter_count(self):
        model = small_model()
        total = count_parameters(model.parameters())
        assert total == model.num_parameters()
        # conv_a: 3*3*3*4 + 4; conv_b: 3*3*4*8 + 8; head: 4*4*8*1 + 1
        assert total == (108 + 4) + (288 + 8) + (128 + 1)

    def test_multiply_adds_is_sum_of_layers(self):
        model = small_model()
        assert model.multiply_adds() == sum(model.per_layer_multiply_adds().values())

    def test_multiply_adds_with_alternate_input_shape(self):
        model = small_model()
        assert model.multiply_adds((16, 16, 3)) > model.multiply_adds((8, 8, 3))


class TestStateDict:
    def test_roundtrip(self):
        model_a = small_model(np.random.default_rng(5))
        model_b = small_model(np.random.default_rng(6))
        x = np.random.default_rng(7).random((2, 8, 8, 3))
        assert not np.allclose(model_a.forward(x), model_b.forward(x))
        model_b.load_state_dict(model_a.state_dict())
        np.testing.assert_allclose(model_a.forward(x), model_b.forward(x))

    def test_missing_key_raises(self):
        model = small_model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = small_model()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)
