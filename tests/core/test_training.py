"""Tests for the classifier trainer and the shared score / calibrate / fit steps."""

import math

import numpy as np
import pytest

from repro.baselines.discrete_classifier import DiscreteClassifier, DiscreteClassifierConfig
from repro.core.architectures import ARCHITECTURES, build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.training import (
    TrainingConfig,
    TrainingHistory,
    calibrate_threshold,
    fit_and_calibrate,
    score_classifier,
    train_classifier,
)

FEATURE_SHAPE = (3, 4, 6)


def make_mc(seed=0, architecture="localized"):
    cfg = MicroClassifierConfig("trainee", "conv4_2/sep")
    return build_microclassifier(
        architecture, cfg, FEATURE_SHAPE, rng=np.random.default_rng(seed)
    )


def training_batches(mc) -> list[int]:
    """A list that gets the size of every batch ``mc`` is trained on."""
    sizes: list[int] = []
    forward = mc.forward_logits

    def counted(x, training=False):
        if training:
            sizes.append(len(x))
        return forward(x, training=training)

    mc.forward_logits = counted
    return sizes


def make_dataset(n=32, seed=0, positive_fraction=0.5):
    rng = np.random.default_rng(seed)
    x = rng.random((n, *FEATURE_SHAPE))
    y = (rng.random(n) < positive_fraction).astype(float)
    x[y == 1, :, :, 1] += 1.0  # channel-1 boost marks positives
    return x, y


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0},
            {"learning_rate": math.nan},
            {"epochs": math.nan},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_fractional_epochs_allowed(self):
        """The paper trains on 0.5 epochs of data."""
        TrainingConfig(epochs=0.5)


class TestTrainClassifier:
    def test_reduces_loss_and_separates_classes(self):
        mc = make_mc()
        x, y = make_dataset()
        history = train_classifier(
            mc, x, y, TrainingConfig(epochs=5, batch_size=8, learning_rate=3e-3, seed=0)
        )
        assert isinstance(history, TrainingHistory)
        assert history.steps > 0
        assert history.final_loss < history.losses[0]
        probs = mc.predict_proba_batch(x)
        assert probs[y == 1].mean() > probs[y == 0].mean()

    def test_fractional_epoch_sees_fraction_of_samples(self):
        mc = make_mc()
        x, y = make_dataset(n=64)
        fed = training_batches(mc)
        train_classifier(mc, x, y, TrainingConfig(epochs=0.5, batch_size=8, seed=0))
        assert sum(fed) == 32

    def test_balanced_sampling_with_rare_positives(self):
        mc = make_mc()
        x, y = make_dataset(n=60, positive_fraction=0.1)
        fed = training_batches(mc)
        train_classifier(mc, x, y, TrainingConfig(epochs=3, batch_size=10, seed=0))
        probs = mc.predict_proba_batch(x)
        assert probs[y == 1].mean() > probs[y == 0].mean()
        assert sum(fed) >= 60

    def test_shape_mismatch_rejected(self):
        mc = make_mc()
        x, _ = make_dataset(n=8)
        with pytest.raises(ValueError, match="disagree on sample count"):
            train_classifier(mc, x, np.zeros(5))

    def test_empty_dataset_rejected(self):
        mc = make_mc()
        with pytest.raises(ValueError):
            train_classifier(mc, np.zeros((0, *FEATURE_SHAPE)), np.zeros(0))

    def test_final_loss_nan_when_untrained(self):
        history = TrainingHistory()
        assert np.isnan(history.final_loss)

    def test_all_negative_labels_do_not_crash(self):
        mc = make_mc()
        x, _ = make_dataset(n=16)
        history = train_classifier(mc, x, np.zeros(16), TrainingConfig(epochs=1, batch_size=8))
        assert history.steps > 0


def make_dc():
    dc = DiscreteClassifier(DiscreteClassifierConfig(name="dc", kernels=(16, 16), strides=(1, 1)))
    dc.build(FEATURE_SHAPE, rng=np.random.default_rng(0))
    return dc


class TestScoreClassifier:
    @pytest.mark.parametrize(
        "make", [lambda: make_mc(architecture="full_frame"), make_mc, make_dc],
        ids=["full_frame", "localized", "discrete"],
    )
    def test_scores_every_input_through_predict_proba_batch(self, make):
        classifier = make()
        x, _ = make_dataset(n=97)  # three full chunks and a ragged tail
        np.testing.assert_allclose(
            score_classifier(classifier, x), classifier.predict_proba_batch(x), rtol=0, atol=1e-12
        )

    def test_windowed_mc_scores_in_stream_order(self):
        mc = make_mc(architecture="windowed")
        x, _ = make_dataset(n=40)
        assert score_classifier(mc, x).tobytes() == mc.predict_proba_stream(x).tobytes()
        assert score_classifier(mc, x).tobytes() != mc.predict_proba_batch(x).tobytes()


class TestCalibrateThreshold:
    """An all-negative split must not calibrate a permissive threshold."""

    def test_zero_f1_sweep_keeps_the_configured_threshold(self):
        # Every candidate quantile of these probabilities fires on some
        # frames, and with all-negative labels each scores exactly F1 = 0;
        # an unguarded sweep returns the lowest quantile (~0.61 here) purely
        # because it was evaluated first.
        probabilities = np.linspace(0.6, 0.9, 40)
        labels = np.zeros(40, dtype=np.int8)
        assert calibrate_threshold(probabilities, labels, 0.5) == 0.5

    def test_all_negative_labels_short_circuit(self):
        # Probabilities driven near zero: high candidates would predict
        # nothing and score the degenerate empty-vs-empty F1 = 1.0, winning
        # with an arbitrary quantile.  No positives -> no signal -> keep.
        probabilities = np.full(40, 0.01)
        labels = np.zeros(40, dtype=np.int8)
        assert calibrate_threshold(probabilities, labels, 0.5) == 0.5

    def test_no_candidate_beating_zero_keeps_the_default(self):
        # One positive frame the classifier never ranks above a negative:
        # labels carry signal, yet every candidate scores F1 = 0.
        probabilities = np.linspace(0.9, 0.1, 40)
        labels = np.zeros(40, dtype=np.int8)
        labels[-1] = 1
        assert calibrate_threshold(probabilities, labels, 0.3) == 0.3

    def test_positive_signal_picks_the_best_candidate(self):
        labels = np.zeros(40, dtype=np.int8)
        labels[10:20] = 1
        probabilities = np.where(labels == 1, 0.8, 0.2)
        threshold = calibrate_threshold(probabilities, labels, 0.95)
        assert 0.2 < threshold <= 0.8

    def test_candidates_are_scored_after_the_pipelines_smoothing(self):
        # An event scored on every other frame, and two lone spikes at 0.7.
        # The pipeline's K=2-of-N=5 vote fills the event and erases the
        # spikes, so 0.7 wins; scored unsmoothed, 0.8 would.
        labels = np.zeros(60, dtype=np.int8)
        labels[20:30] = 1
        probabilities = np.full(60, 0.1)
        probabilities[20:30] = [0.8, 0.6] * 5
        probabilities[[5, 45]] = 0.7
        assert calibrate_threshold(probabilities, labels, 0.95) == pytest.approx(0.7)


class TestFitAndCalibrate:
    def test_writes_the_calibrated_threshold_into_the_config(self):
        mc = make_mc()
        x, y = make_dataset(n=48)
        config = TrainingConfig(epochs=2, batch_size=8, seed=0)
        history, probabilities = fit_and_calibrate(mc, x, y, config)
        assert history.steps > 0
        assert probabilities.tobytes() == score_classifier(mc, x).tobytes()
        assert mc.config.threshold == calibrate_threshold(probabilities, y, 0.5)

    def test_flip_augmentation_doubles_the_training_set(self):
        x, y = make_dataset(n=48)
        config = TrainingConfig(epochs=1, batch_size=8, seed=0)
        plain_mc, flipped_mc = make_mc(), make_mc()
        plain, flipped = training_batches(plain_mc), training_batches(flipped_mc)
        fit_and_calibrate(plain_mc, x, y, config)
        _, probabilities = fit_and_calibrate(flipped_mc, x, y, config, augment_flip=True)
        assert (sum(plain), sum(flipped)) == (48, 96)
        assert probabilities.shape == (48,)  # calibration scores the unaugmented split


def test_every_registered_architecture_trains_and_scores():
    x, y = make_dataset(n=24)
    for architecture in ARCHITECTURES:
        mc = make_mc(architecture=architecture)
        _, probabilities = fit_and_calibrate(mc, x, y, TrainingConfig(epochs=1, seed=0))
        assert probabilities.shape == (24,)
        assert 0.0 < mc.config.threshold < 1.0
