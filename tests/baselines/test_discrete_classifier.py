"""Tests for NoScope-style discrete classifiers."""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import (
    DiscreteClassifier,
    DiscreteClassifierConfig,
    discrete_classifier_pareto_configs,
)
from repro.core.training import TrainingConfig, train_classifier
from repro.perf.cost_model import CostModel

PIXEL_SHAPE = (24, 32, 3)
RNG = np.random.default_rng(0)


def build_dc(config=None):
    dc = DiscreteClassifier(config or DiscreteClassifierConfig())
    dc.build(PIXEL_SHAPE, rng=np.random.default_rng(1))
    return dc


class TestConfig:
    def test_defaults_valid(self):
        DiscreteClassifierConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernels": (32,)},  # fewer than 2 conv layers
            {"kernels": (32, 32, 32, 32, 32)},  # more than 4
            {"kernels": (8, 32), "strides": (1, 1)},  # kernel count below 16
            {"kernels": (32, 128), "strides": (1, 1)},  # kernel count above 64
            {"kernels": (32, 32), "strides": (1,)},  # stride length mismatch
            {"kernels": (32, 32), "strides": (4, 1)},  # stride out of range
            {"kernels": (32, 32), "strides": (0, 1)},  # stride below range
            {"threshold": 1.0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        base = dict(kernels=(32, 32), strides=(1, 1))
        base.update(kwargs)
        with pytest.raises(ValueError):
            DiscreteClassifierConfig(**base)

    def test_pareto_configs_follow_paper_design_space(self):
        configs = discrete_classifier_pareto_configs()
        assert len(configs) >= 4
        for config in configs:
            assert 2 <= len(config.kernels) <= 4
            assert all(16 <= k <= 64 for k in config.kernels)
            assert all(1 <= s <= 3 for s in config.strides)
            layers = DiscreteClassifier(config).model.layers
            convolutions = [layer for layer in layers if hasattr(layer, "kernel_size")]
            assert [layer.kernel_size for layer in convolutions] == [(3, 3)] * len(config.kernels)
            # One 2x2 pooling layer, right after the first convolution and its ReLU.
            assert [type(layer).__name__ for layer in layers].count("MaxPool2D") == 1
            assert type(layers[2]).__name__ == "MaxPool2D"

    def test_pareto_costs_span_paper_range_at_1080p(self):
        """Costs should span roughly the paper's 100M-2.5B multiply-add range."""
        model = CostModel(resolution=(1920, 1080))
        costs = [model.dc_cost(c) for c in discrete_classifier_pareto_configs()]
        assert min(costs) < 150e6
        assert max(costs) > 1.5e9
        assert max(costs) < 3.0e9


class TestDiscreteClassifier:
    def test_probabilities_in_unit_interval(self):
        dc = build_dc()
        probs = dc.predict_proba_batch(RNG.random((4, *PIXEL_SHAPE)))
        assert probs.shape == (4,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_single_and_batch_agree(self):
        dc = build_dc()
        x = RNG.random((3, *PIXEL_SHAPE))
        assert dc.predict_proba_batch(x[1:2])[0] == pytest.approx(dc.predict_proba_batch(x)[1])

    def test_separable_configuration_builds(self):
        dc = build_dc(DiscreteClassifierConfig(separable=True))
        assert dc.predict_proba_batch(RNG.random((2, *PIXEL_SHAPE))).shape == (2,)

    def test_unbuilt_usage_raises(self):
        dc = DiscreteClassifier(DiscreteClassifierConfig())
        with pytest.raises(RuntimeError):
            dc.predict_proba_batch(RNG.random((1, *PIXEL_SHAPE)))
        with pytest.raises(RuntimeError):
            dc.multiply_adds()
        assert dc.parameters() == []

    def test_unbuilt_graph_is_costed_at_any_shape(self):
        config = DiscreteClassifierConfig()
        unbuilt = DiscreteClassifier(config)
        assert unbuilt.multiply_adds(PIXEL_SHAPE) == build_dc(config).multiply_adds()
        assert unbuilt.parameters() == []

    def test_build_allocates_the_same_weights_as_a_fresh_classifier(self):
        costed = DiscreteClassifier(DiscreteClassifierConfig())
        costed.multiply_adds((1080, 1920, 3))
        costed.build(PIXEL_SHAPE, rng=np.random.default_rng(1))
        for a, b in zip(costed.parameters(), build_dc().parameters(), strict=True):
            np.testing.assert_array_equal(a.value, b.value)

    def test_trainable_on_pixel_task(self):
        dc = build_dc()
        rng = np.random.default_rng(5)
        x = rng.random((40, *PIXEL_SHAPE))
        y = (rng.random(40) > 0.5).astype(float)
        x[y == 1, :, :, 0] += 0.8  # positives are redder
        train_classifier(dc, x, y, TrainingConfig(epochs=4, batch_size=8, learning_rate=3e-3))
        probs = dc.predict_proba_batch(x)
        assert probs[y == 1].mean() > probs[y == 0].mean() + 0.1

    def test_multiply_adds_agree_with_cost_model(self):
        config = DiscreteClassifierConfig(kernels=(16, 32), strides=(2, 2))
        dc = DiscreteClassifier(config)
        dc.build((64, 96, 3), rng=np.random.default_rng(0))
        # Cost model takes (width, height); the built model was given (H, W, C).
        assert dc.multiply_adds() == CostModel(resolution=(96, 64)).dc_cost(config)

    def test_cost_grows_with_depth(self):
        shallow = build_dc(DiscreteClassifierConfig(kernels=(16, 16), strides=(2, 2)))
        deep = build_dc(DiscreteClassifierConfig(kernels=(32, 48, 64), strides=(1, 1, 1)))
        assert deep.multiply_adds() > shallow.multiply_adds()
