"""Tests for the three microclassifier architectures (Figure 2)."""

import numpy as np
import pytest

from repro.core.architectures import (
    ARCHITECTURES,
    FullFrameObjectDetectorMC,
    LocalizedBinaryClassifierMC,
    WindowedLocalizedBinaryClassifierMC,
    build_microclassifier,
)
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.training import TrainingConfig, train_classifier

FEATURE_SHAPE = (4, 6, 8)
RNG = np.random.default_rng(0)


def config(name="mc", layer="conv4_2/sep", threshold=0.5):
    return MicroClassifierConfig(name=name, input_layer=layer, threshold=threshold)


def build(architecture, **kwargs):
    return build_microclassifier(architecture, config(architecture), FEATURE_SHAPE, **kwargs)


def make_separable_dataset(n=40, shape=FEATURE_SHAPE, seed=1):
    """Feature maps whose label depends on channel 0's mean — learnable by all MCs."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, *shape))
    y = (x[..., 0].mean(axis=(1, 2)) > 0.5).astype(float)
    x[y == 1, :, :, 0] += 0.5
    return x, y


class TestBuildMicroclassifier:
    def test_factory_builds_each_architecture(self):
        assert isinstance(build("full_frame"), FullFrameObjectDetectorMC)
        assert isinstance(build("localized"), LocalizedBinaryClassifierMC)
        assert isinstance(build("windowed"), WindowedLocalizedBinaryClassifierMC)

    def test_unknown_architecture(self):
        with pytest.raises(ValueError, match="Unknown architecture"):
            build_microclassifier("transformer", config(), FEATURE_SHAPE)


class TestCommonBehaviour:
    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_probabilities_in_unit_interval(self, architecture):
        mc = build(architecture)
        probs = mc.predict_proba_batch(RNG.random((5, *FEATURE_SHAPE)))
        assert probs.shape == (5,)
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_single_and_batch_prediction_agree(self, architecture):
        # A frame scores the same alone as inside a larger batch.
        mc = build(architecture)
        x = RNG.random((3, *FEATURE_SHAPE))
        batch = mc.predict_proba_batch(x)
        assert mc.predict_proba_batch(x[1:2])[0] == pytest.approx(batch[1])

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_has_trainable_parameters(self, architecture):
        mc = build(architecture)
        assert mc.num_parameters() > 0

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_marginal_cost_positive_and_far_below_base_dnn(self, architecture, tiny_base_dnn):
        mc = build(architecture)
        assert 0 < mc.multiply_adds()

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_unbuilt_usage_raises(self, architecture):
        classes = {
            "full_frame": FullFrameObjectDetectorMC,
            "localized": LocalizedBinaryClassifierMC,
            "windowed": WindowedLocalizedBinaryClassifierMC,
        }
        mc = classes[architecture](config("raw"))
        with pytest.raises(RuntimeError):
            mc.predict_proba_batch(RNG.random((1, *FEATURE_SHAPE)))
        with pytest.raises(RuntimeError):
            mc.multiply_adds()

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_unbuilt_graph_is_costed_at_any_shape(self, architecture):
        unbuilt = ARCHITECTURES[architecture](config(architecture))
        assert unbuilt.multiply_adds(FEATURE_SHAPE) == build(architecture).multiply_adds()
        assert unbuilt.parameters() == []

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_cost_at_another_shape_is_the_cost_built_at_it(self, architecture):
        built_large = build_microclassifier(architecture, config(architecture), (12, 16, 32))
        built_small = build_microclassifier(architecture, config(architecture), (6, 8, 32))
        assert built_large.multiply_adds((6, 8, 32)) == built_small.multiply_adds()

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_build_after_costing_draws_the_same_weights(self, architecture):
        costed = ARCHITECTURES[architecture](config(architecture))
        costed.multiply_adds((68, 120, 512))
        costed.build(FEATURE_SHAPE, np.random.default_rng(0))
        for a, b in zip(costed.parameters(), build(architecture).parameters(), strict=True):
            np.testing.assert_array_equal(a.value, b.value)

    @pytest.mark.parametrize(
        "architecture, margin",
        [("full_frame", 0.05), ("localized", 0.15), ("windowed", 0.15)],
    )
    def test_trainable_on_separable_problem(self, architecture, margin):
        mc = build(architecture)
        x, y = make_separable_dataset()
        history = train_classifier(
            mc, x, y, TrainingConfig(epochs=4, batch_size=8, learning_rate=3e-3, seed=0)
        )
        probs = mc.predict_proba_batch(x)
        assert probs[y == 1].mean() > probs[y == 0].mean() + margin
        assert np.isfinite(history.final_loss)


# Figure 2's layer sizes at FEATURE_SHAPE, every weight in parameter order.
FIGURE2_WEIGHT_SHAPES = {
    "full_frame": [(1, 1, 8, 32), (32,), (1, 1, 32, 32), (32,), (1, 1, 32, 1), (1,)],
    "localized": [
        (3, 3, 8), (1, 1, 8, 16), (16,),  # sepconv1: depthwise without bias, pointwise
        (3, 3, 16), (1, 1, 16, 32), (32,),  # sepconv2, stride 2 -> (2, 3, 32)
        (192, 200), (200,), (200, 1), (1,),
    ],
    "windowed": [
        (1, 1, 8, 32), (32,),  # the shared 1x1 reduction
        (3, 3, 5 * 32, 32), (32,), (3, 3, 32, 32), (32,),  # a 5-frame window of reductions
        (192, 200), (200,), (200, 1), (1,),
    ],
}


@pytest.mark.parametrize("architecture", sorted(FIGURE2_WEIGHT_SHAPES))
def test_figure2_layer_sizes(architecture):
    shapes = [p.value.shape for p in build(architecture).parameters()]
    assert shapes == FIGURE2_WEIGHT_SHAPES[architecture]


class TestFullFrameObjectDetector:
    def test_translation_invariance_of_max_aggregation(self):
        """Moving a distinctive local pattern must not change the frame score."""
        mc = build("full_frame")
        base = np.zeros((1, *FEATURE_SHAPE))
        a = base.copy()
        a[0, 0, 0, :] = 5.0
        b = base.copy()
        b[0, 3, 5, :] = 5.0
        assert mc.predict_proba_batch(a)[0] == pytest.approx(mc.predict_proba_batch(b)[0], rel=1e-9)

    def test_cost_scales_linearly_with_spatial_size(self):
        mc = build("full_frame")
        small = mc.multiply_adds((4, 6, 8))
        large = mc.multiply_adds((8, 12, 8))
        assert large == 4 * small


class TestLocalizedBinaryClassifier:
    def test_uses_separable_convolutions(self):
        mc = build("localized")
        layer_names = mc.model.layer_names()
        assert any("sepconv" in name for name in layer_names)

    def test_cost_matches_paper_formula_structure(self):
        mc = build("localized", )
        h, w, c = FEATURE_SHAPE
        first = h * w * c * (9 + 16)
        second = -(-h // 2) * -(-w // 2) * 16 * (9 + 32)
        fc = -(-h // 2) * -(-w // 2) * 32 * 200
        head = 200
        assert mc.multiply_adds() == first + second + fc + head


class TestWindowedLocalizedBinaryClassifier:
    def test_stream_prediction_length(self):
        mc = build("windowed")
        feature_maps = RNG.random((9, *FEATURE_SHAPE))
        probs = mc.predict_proba_stream(feature_maps)
        assert probs.shape == (9,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_predict_window_requires_exact_window_length(self):
        mc = build("windowed")
        reduced = [mc.reduce_map(RNG.random(FEATURE_SHAPE)) for _ in range(mc.window - 1)]
        with pytest.raises(ValueError):
            mc.predict_window(reduced)

    def test_stream_prediction_uses_temporal_context(self):
        """A frame's score must depend on its neighbours, not only on itself."""
        mc = build("windowed")
        constant = np.tile(RNG.random(FEATURE_SHAPE), (5, 1, 1, 1))
        varied = constant.copy()
        varied[0] += 2.0
        varied[4] += 2.0
        p_constant = mc.predict_proba_stream(constant)[2]
        p_varied = mc.predict_proba_stream(varied)[2]
        assert p_constant != pytest.approx(p_varied, abs=1e-6)

    def test_marginal_cost_includes_one_reduction_plus_head(self):
        mc = build("windowed")
        reduce_cost = mc.reduce.multiply_adds(FEATURE_SHAPE)
        head_cost = mc.head.multiply_adds()
        assert mc.multiply_adds() == reduce_cost + head_cost
