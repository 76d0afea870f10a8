"""Tests for K-voting smoothing and transition detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.smoothing import KVotingSmoother, TransitionDetector
from repro.video.annotations import frame_labels_to_events


class TestKVotingSmoother:
    def test_paper_defaults(self):
        """N=5, K=2: positives four frames apart share one window, five apart do not."""
        smoother = KVotingSmoother()
        np.testing.assert_array_equal(smoother.smooth(np.array([1, 0, 0, 0, 1])), [0, 0, 1, 0, 0])
        np.testing.assert_array_equal(smoother.smooth(np.array([1, 0, 0, 0, 0, 1])), np.zeros(6))
        np.testing.assert_array_equal(smoother.smooth(np.array([1, 1])), [1, 1])

    def test_isolated_positive_is_removed_with_strict_voting(self):
        smoother = KVotingSmoother()
        decisions = np.array([0, 0, 0, 1, 0, 0, 0])
        np.testing.assert_array_equal(smoother.smooth(decisions), np.zeros(7))

    def test_two_nearby_positives_fill_the_gap(self):
        """K=2 of N=5 voting bridges short false-negative gaps (the paper's goal)."""
        smoother = KVotingSmoother()
        decisions = np.array([0, 1, 0, 1, 0, 0, 0, 0])
        smoothed = smoother.smooth(decisions)
        assert smoothed[2] == 1  # the gap between the detections is filled
        assert smoothed[:1].sum() == 1 or smoothed[0] in (0, 1)  # boundary frames defined
        assert smoothed[6] == 0 and smoothed[7] == 0

    def test_empty_input(self):
        assert KVotingSmoother().smooth(np.array([])).size == 0

    def test_rejects_multidimensional_input(self):
        with pytest.raises(ValueError):
            KVotingSmoother().smooth(np.zeros((2, 2)))

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_output_is_binary_and_same_length(self, decisions):
        smoothed = KVotingSmoother().smooth(np.array(decisions))
        assert smoothed.size == len(decisions)
        assert set(np.unique(smoothed)).issubset({0, 1})

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_all_negative_stays_negative(self, decisions):
        zeros = np.zeros(len(decisions), dtype=int)
        assert KVotingSmoother().smooth(zeros).sum() == 0

    @given(
        decisions=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
        flip_index=st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_adding_a_positive_never_removes_detections(self, decisions, flip_index):
        """K-voting is monotone: turning a 0 into a 1 can only add smoothed positives."""
        arr = np.array(decisions)
        if flip_index >= arr.size:
            flip_index = arr.size - 1
        more = arr.copy()
        more[flip_index] = 1
        smoother = KVotingSmoother()
        base = smoother.smooth(arr)
        extended = smoother.smooth(more)
        assert np.all(extended >= base)

    def test_matches_naive_reference_implementation(self, rng):
        decisions = rng.integers(0, 2, size=100)
        smoother = KVotingSmoother()
        fast = smoother.smooth(decisions)
        half = 2
        slow = np.zeros_like(decisions)
        for i in range(decisions.size):
            lo = max(0, i - half)
            hi = min(decisions.size, i + 5 - half)
            slow[i] = 1 if decisions[lo:hi].sum() >= 2 else 0
        np.testing.assert_array_equal(fast, slow)


class TestTransitionDetector:
    def test_detects_contiguous_runs(self):
        detector = TransitionDetector()
        events = detector.detect(np.array([0, 1, 1, 0, 1, 1, 1, 0]))
        assert events == [(1, 1, 3), (2, 4, 7)]

    def test_ids_increase_across_calls(self):
        detector = TransitionDetector()
        first = detector.detect(np.array([1, 1, 0]))
        second = detector.detect(np.array([0, 1, 1]), frame_offset=3)
        assert first == [(1, 0, 2)]
        assert second == [(2, 4, 6)]
        assert detector.allocate_event_id() == 3

    def test_frame_offset_shifts_boundaries(self):
        detector = TransitionDetector()
        events = detector.detect(np.array([1, 1]), frame_offset=100)
        assert events == [(1, 100, 102)]

    def test_empty_and_all_negative(self):
        detector = TransitionDetector()
        assert detector.detect(np.array([])) == []
        assert detector.detect(np.zeros(5)) == []
        assert detector.allocate_event_id() == 1

    @given(
        labels=st.lists(st.sampled_from([0, 1]), max_size=40),
        offset=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_are_the_annotation_runs(self, labels, offset):
        """Events are ``frame_labels_to_events``'s runs, shifted, numbered from 1."""
        events = TransitionDetector().detect(np.array(labels, dtype=int), frame_offset=offset)
        runs = frame_labels_to_events(labels)
        assert events == [
            (k + 1, run.start + offset, run.end + offset) for k, run in enumerate(runs)
        ]

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            TransitionDetector().detect(np.zeros((2, 3)))
