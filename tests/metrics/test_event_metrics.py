"""Tests for event-centric accuracy metrics (paper Section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.event_metrics import (
    event_f1_score,
    event_recall,
    existence_score,
    frame_precision,
    overlap_score,
)
from repro.video.annotations import EventAnnotation


class TestExistenceAndOverlap:
    def test_existence_rewards_any_detection(self):
        event = EventAnnotation(2, 6)
        assert existence_score(event, np.array([0, 0, 0, 1, 0, 0, 0])) == 1.0
        assert existence_score(event, np.array([1, 0, 0, 0, 0, 0, 1])) == 0.0

    def test_overlap_is_detected_fraction(self):
        event = EventAnnotation(2, 6)
        assert overlap_score(event, np.array([0, 0, 1, 1, 0, 0, 0])) == pytest.approx(0.5)
        assert overlap_score(event, np.array([0, 0, 1, 1, 1, 1, 0])) == pytest.approx(1.0)

    def test_event_beyond_prediction_length(self):
        event = EventAnnotation(10, 20)
        assert existence_score(event, np.zeros(5)) == 0.0
        assert overlap_score(event, np.zeros(5)) == 0.0


class TestEventRecall:
    def test_weights_existence_and_overlap(self):
        """EventRecall = 0.9 * Existence + 0.1 * Overlap (paper's alpha/beta)."""
        truth = np.array([0, 1, 1, 1, 1, 0])
        predictions = np.array([0, 1, 0, 0, 0, 0])  # one of four event frames
        expected = 0.9 * 1.0 + 0.1 * 0.25
        assert event_recall(truth, predictions) == pytest.approx(expected)

    def test_averages_over_events(self):
        truth = np.array([1, 1, 0, 0, 1, 1])
        predictions = np.array([1, 1, 0, 0, 0, 0])  # first event fully found, second missed
        expected = (1.0 + 0.0) / 2
        assert event_recall(truth, predictions) == pytest.approx(expected)

    def test_no_events_is_perfect_recall(self):
        assert event_recall(np.zeros(5), np.zeros(5)) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            event_recall(np.zeros(4), np.zeros(5))


class TestFramePrecision:
    def test_counts_correct_detections(self):
        truth = np.array([0, 1, 1, 0])
        predictions = np.array([1, 1, 0, 0])
        assert frame_precision(truth, predictions) == pytest.approx(0.5)

    def test_no_predictions_is_perfect_precision(self):
        assert frame_precision(np.array([1, 0]), np.array([0, 0])) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            frame_precision(np.zeros(3), np.zeros(4))


class TestEventF1:
    def test_perfect_prediction_scores_one(self):
        truth = np.array([0, 1, 1, 0, 1, 0])
        assert event_f1_score(truth, truth) == pytest.approx(1.0)

    def test_all_negative_prediction_scores_zero_when_events_exist(self):
        truth = np.array([0, 1, 1, 0])
        predictions = np.zeros(4)
        assert event_f1_score(truth, predictions) == pytest.approx(0.0, abs=1e-9)

    def test_harmonic_mean_of_components(self):
        truth = np.array([0, 1, 1, 1, 1, 0, 0, 0])
        predictions = np.array([0, 1, 1, 0, 0, 1, 1, 0])
        breakdown = event_f1_score(truth, predictions, return_breakdown=True)
        expected = 2 * breakdown.precision * breakdown.recall / (breakdown.precision + breakdown.recall)
        assert breakdown.f1 == pytest.approx(expected)
        assert breakdown.num_events == 1

    def test_false_positives_hurt_precision_not_recall(self):
        truth = np.array([0, 1, 1, 0, 0, 0])
        clean = np.array([0, 1, 1, 0, 0, 0])
        noisy = np.array([1, 1, 1, 1, 1, 1])
        clean_b = event_f1_score(truth, clean, return_breakdown=True)
        noisy_b = event_f1_score(truth, noisy, return_breakdown=True)
        assert noisy_b.recall == pytest.approx(clean_b.recall)
        assert noisy_b.precision < clean_b.precision
        assert noisy_b.f1 < clean_b.f1

    def test_missing_an_entire_event_is_much_worse_than_partial_coverage(self):
        """alpha=0.9 makes existence dominate: partial coverage of both events
        beats full coverage of one and none of the other."""
        truth = np.array([1, 1, 1, 1, 0, 1, 1, 1, 1])
        partial_both = np.array([1, 0, 0, 1, 0, 1, 0, 0, 1])
        one_full = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
        assert event_recall(truth, partial_both) > event_recall(truth, one_full)

    @given(
        truth=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_scores_bounded_in_unit_interval(self, truth):
        rng = np.random.default_rng(0)
        predictions = rng.integers(0, 2, size=len(truth))
        truth_arr = np.array(truth)
        f1 = event_f1_score(truth_arr, predictions)
        assert 0.0 <= f1 <= 1.0
        assert 0.0 <= event_recall(truth_arr, predictions) <= 1.0
        assert 0.0 <= frame_precision(truth_arr, predictions) <= 1.0

    @given(truth=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_predicting_exactly_the_truth_is_optimal(self, truth):
        truth_arr = np.array(truth)
        assert event_f1_score(truth_arr, truth_arr) == pytest.approx(1.0)
