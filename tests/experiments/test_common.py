"""Tests for the shared experiment context (training + evaluation harness).

These tests use a deliberately small synthetic dataset and a thin base DNN so
the whole module runs in tens of seconds while still exercising real feature
extraction, training, and event-level evaluation.
"""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import DiscreteClassifierConfig
from repro.core.training import TrainingConfig
from repro.experiments.common import ExperimentContext
from repro.video.annotations import FrameLabels
from repro.video.datasets import make_roadway_like

FAST_TRAINING = TrainingConfig(epochs=2.0, batch_size=16, learning_rate=2e-3, seed=0)


@pytest.fixture(scope="module")
def context():
    dataset = make_roadway_like(num_frames=150, width=96, height=40, seed=9)
    return ExperimentContext(dataset, alpha=0.125, seed=0)


class TestContextSetup:
    def test_tap_selection_uses_shallow_layer_for_small_objects(self, context):
        # At 1/20th of the paper's resolution, objects are a few pixels tall,
        # so the heuristic must choose an early layer.
        assert context.tap in ("conv2_1/sep", "conv2_2/sep", "conv3_2/sep")
        assert context.extractor.tap_layers == [context.tap]

    def test_crop_matches_dataset_spec(self, context):
        crop = context.crop()
        x0, y0, x1, y1 = context.dataset.spec.crop
        assert (crop.x0, crop.y0, crop.x1, crop.y1) == (x0, y0, x1, y1)

    def test_feature_maps_cached_per_stream(self, context, base_dnn_passes):
        first = context.feature_maps(context.dataset.train_stream)
        passes = base_dnn_passes(context.extractor.base_dnn)
        second = context.feature_maps(context.dataset.train_stream)
        assert passes == []
        assert first is second
        assert first.shape[0] == 150

    def test_cropped_feature_maps_shrink_height(self, context):
        full = context.feature_maps(context.dataset.test_stream)
        cropped = context.cropped_feature_maps(context.dataset.test_stream, context.crop())
        assert cropped.shape[1] < full.shape[1]
        assert cropped.shape[0] == full.shape[0]

    def test_pixels_batch_shape(self, context):
        pixels = context.pixels(context.dataset.test_stream)
        assert pixels.shape == (150, 40, 96, 3)


class TestTrainingAndEvaluation:
    def test_train_microclassifier_produces_evaluation(self, context):
        result = context.train_microclassifier("localized", training=FAST_TRAINING)
        assert result.kind == "microclassifier/localized"
        assert 0.0 <= result.event_f1 <= 1.0
        assert result.smoothed.shape == (150,)
        assert result.classifier.multiply_adds() > 0
        assert set(np.unique(result.smoothed)).issubset({0, 1})

    def test_train_discrete_classifier_produces_evaluation(self, context):
        result = context.train_discrete_classifier(
            DiscreteClassifierConfig(name="dc_test", kernels=(16, 16), strides=(2, 2)),
            training=FAST_TRAINING,
        )
        assert result.kind == "discrete_classifier"
        assert 0.0 <= result.event_f1 <= 1.0
        assert result.classifier.multiply_adds() > 0

    def test_threshold_calibration_changes_config(self, context):
        result = context.train_microclassifier("localized", training=FAST_TRAINING)
        assert 0.0 < result.classifier.config.threshold < 1.0

    def test_all_negative_training_split_keeps_the_default_threshold(self, context, monkeypatch):
        # No positive training frame gives calibration no signal: the sweep
        # must not lock in an arbitrary quantile of the probabilities.
        negatives = FrameLabels(np.zeros(len(context.dataset.train_stream), dtype=np.int8))
        monkeypatch.setattr(context.dataset, "train_labels", negatives)
        result = context.train_microclassifier(
            "localized", training=TrainingConfig(epochs=0.25, seed=0)
        )
        assert result.classifier.config.threshold == 0.5

    def test_evaluate_predictions_scores_against_test_labels(self, context):
        perfect = context.dataset.test_labels.labels.astype(float)
        breakdown = context.evaluate_predictions(perfect, threshold=0.5)
        assert breakdown.recall > 0.9
