"""Tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.layers import sigmoid
from repro.nn.losses import BinaryCrossEntropy, SigmoidBinaryCrossEntropy


def numerical_grad(loss, predictions, targets, eps=1e-6):
    grad = np.zeros_like(predictions)
    flat = predictions.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss.forward(predictions, targets)
        flat[i] = orig - eps
        minus = loss.forward(predictions, targets)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


class TestBinaryCrossEntropy:
    def test_confident_correct_prediction_has_low_loss(self):
        loss = BinaryCrossEntropy()
        assert loss.forward(np.array([0.999]), np.array([1.0])) < 0.01

    def test_confident_wrong_prediction_has_high_loss(self):
        loss = BinaryCrossEntropy()
        assert loss.forward(np.array([0.999]), np.array([0.0])) > 5.0

    def test_gradient_matches_numerical(self):
        loss = BinaryCrossEntropy()
        rng = np.random.default_rng(1)
        predictions = rng.uniform(0.05, 0.95, size=(6, 1))
        targets = rng.integers(0, 2, size=(6, 1)).astype(float)
        np.testing.assert_allclose(
            loss.backward(predictions, targets),
            numerical_grad(loss, predictions, targets),
            rtol=1e-4,
            atol=1e-6,
        )


class TestSigmoidBinaryCrossEntropy:
    def test_agrees_with_probability_bce(self):
        logits = np.array([[-2.0], [0.5], [3.0]])
        targets = np.array([[0.0], [1.0], [1.0]])
        stable = SigmoidBinaryCrossEntropy().forward(logits, targets)
        probs = 1.0 / (1.0 + np.exp(-logits))
        reference = BinaryCrossEntropy().forward(probs, targets)
        assert stable == pytest.approx(reference, rel=1e-9)

    def test_stable_for_extreme_logits(self):
        loss = SigmoidBinaryCrossEntropy()
        value = loss.forward(np.array([[1000.0], [-1000.0]]), np.array([[1.0], [0.0]]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_gradient_is_sigmoid_minus_target_over_n(self):
        loss = SigmoidBinaryCrossEntropy()
        logits = np.array([[0.7], [-1.2]])
        targets = np.array([[1.0], [0.0]])
        grad = loss.backward(logits, targets)
        expected = (1.0 / (1.0 + np.exp(-logits)) - targets) / logits.size
        np.testing.assert_allclose(grad, expected)

    def test_gradient_matches_numerical(self):
        loss = SigmoidBinaryCrossEntropy()
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 1))
        targets = rng.integers(0, 2, size=(5, 1)).astype(float)
        np.testing.assert_allclose(
            loss.backward(logits, targets),
            numerical_grad(loss, logits, targets),
            rtol=1e-5,
            atol=1e-7,
        )

    @given(
        logits=hnp.arrays(
            np.float64, (8, 1), elements=st.floats(-30, 30, allow_nan=False)
        ),
        targets=hnp.arrays(np.float64, (8, 1), elements=st.sampled_from([0.0, 1.0])),
    )
    @settings(max_examples=50, deadline=None)
    def test_loss_is_non_negative(self, logits, targets):
        assert SigmoidBinaryCrossEntropy().forward(logits, targets) >= 0.0


def masked_sigmoid(z):
    """The two-branch boolean-mask form both sigmoid copies used before they became one."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SPECIAL_LOGITS = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 800.0, -800.0, 1e-300, -1e-300]


class TestBranchFreeSigmoid:
    """``exp(-|z|)`` feeds each branch the argument the masked form fed it: same bits."""

    @given(
        logits=st.lists(
            st.one_of(
                st.sampled_from(SPECIAL_LOGITS),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=1,
            max_size=17,  # past one SIMD register and its scalar tail
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_masked_form(self, logits):
        z = np.array(logits, dtype=np.float64)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = sigmoid(z)
        reference = masked_sigmoid(z)
        # A NaN stays a NaN; its sign bit (which -|z| sets) is not part of the contract.
        finite = ~np.isnan(z)
        assert np.isnan(out[~finite]).all()
        assert out[finite].tobytes() == reference[finite].tobytes()
        assert out.dtype == np.float64 and out.shape == z.shape
        assert SigmoidBinaryCrossEntropy._sigmoid(z)[finite].tobytes() == out[finite].tobytes()

    def test_one_helper_serves_the_loss_and_the_layer(self):
        assert SigmoidBinaryCrossEntropy._sigmoid is sigmoid
        assert float(sigmoid(np.float64(-3.0))) == float(masked_sigmoid(np.array([-3.0]))[0])


class TestLossContract:
    @pytest.mark.parametrize(
        "loss, even_odds",
        [(BinaryCrossEntropy(), 0.5), (SigmoidBinaryCrossEntropy(), 0.0)],
        ids=["probabilities", "logits"],
    )
    def test_even_odds_cost_log_two(self, loss, even_odds):
        predictions = np.full((4, 1), even_odds)
        targets = np.array([[0.0], [1.0], [1.0], [0.0]])
        assert loss.forward(predictions, targets) == pytest.approx(np.log(2.0))

    @pytest.mark.parametrize(
        "loss, predictions",
        [
            (BinaryCrossEntropy(), np.array([[0.2], [0.7], [0.9]])),
            (SigmoidBinaryCrossEntropy(), np.array([[-1.0], [0.3], [2.0]])),
        ],
        ids=["probabilities", "logits"],
    )
    def test_flat_targets_align_with_column_predictions(self, loss, predictions):
        column = np.array([[1.0], [0.0], [1.0]])
        flat = column.ravel()
        assert loss.forward(predictions, flat) == loss.forward(predictions, column)
        np.testing.assert_array_equal(
            loss.backward(predictions, flat), loss.backward(predictions, column)
        )
