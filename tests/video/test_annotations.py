"""Tests for event annotations and label/event conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.annotations import (
    EventAnnotation,
    FrameLabels,
    events_to_frame_labels,
    frame_labels_to_events,
)


class TestEventAnnotation:
    def test_length_and_contains(self):
        event = EventAnnotation(5, 9)
        assert event.length == 4
        assert event.contains(5) and event.contains(8)
        assert not event.contains(9) and not event.contains(4)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            EventAnnotation(3, 3)
        with pytest.raises(ValueError):
            EventAnnotation(-1, 3)

    def test_overlap(self):
        a = EventAnnotation(0, 10)
        b = EventAnnotation(5, 15)
        c = EventAnnotation(20, 25)
        assert a.overlap(b) == 5
        assert b.overlap(a) == 5
        assert a.overlap(c) == 0

    def test_frames_range(self):
        assert list(EventAnnotation(2, 5).frames()) == [2, 3, 4]


class TestConversions:
    def test_labels_to_events_basic(self):
        events = frame_labels_to_events([0, 1, 1, 0, 0, 1, 0])
        assert [(e.start, e.end) for e in events] == [(1, 3), (5, 6)]

    def test_labels_to_events_edges(self):
        events = frame_labels_to_events([1, 1, 0, 1])
        assert [(e.start, e.end) for e in events] == [(0, 2), (3, 4)]

    def test_empty_labels(self):
        assert frame_labels_to_events([]) == []
        assert frame_labels_to_events([0, 0, 0]) == []

    def test_all_positive_is_one_event(self):
        events = frame_labels_to_events([1, 1, 1, 1])
        assert [(e.start, e.end) for e in events] == [(0, 4)]

    def test_events_to_labels(self):
        labels = events_to_frame_labels([EventAnnotation(1, 3), EventAnnotation(5, 6)], 7)
        np.testing.assert_array_equal(labels, [0, 1, 1, 0, 0, 1, 0])

    def test_events_past_end_are_clipped(self):
        labels = events_to_frame_labels([EventAnnotation(3, 10)], 5)
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])

    def test_event_entirely_past_end_is_ignored(self):
        labels = events_to_frame_labels([EventAnnotation(10, 12)], 5)
        assert labels.sum() == 0

    @given(st.lists(st.sampled_from([0, 1]), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_labels_events_labels(self, labels):
        events = frame_labels_to_events(labels)
        reconstructed = events_to_frame_labels(events, len(labels))
        np.testing.assert_array_equal(reconstructed, np.asarray(labels, dtype=np.int8))

    @given(st.lists(st.sampled_from([0, 1]), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_event_lengths_sum_to_positive_count(self, labels):
        events = frame_labels_to_events(labels)
        assert sum(e.length for e in events) == sum(labels)


class TestFrameLabels:
    def test_basic_statistics(self):
        labels = FrameLabels([0, 1, 1, 0, 1], task="demo")
        assert len(labels) == 5
        assert labels.num_positive == 3
        assert labels[1] == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            FrameLabels([0, 2, 1])

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            FrameLabels(np.zeros((2, 2)))

    def test_events_property(self):
        labels = FrameLabels([0, 1, 1, 0, 1])
        assert [(e.start, e.end) for e in labels.events()] == [(1, 3), (4, 5)]

    def test_events_roundtrip_through_frame_labels(self):
        original = FrameLabels([0, 1, 1, 0, 0, 1, 1, 1], task="dogs")
        events = original.events()
        assert {e.label for e in events} == {"dogs"}
        rebuilt = FrameLabels(events_to_frame_labels(events, len(original)))
        np.testing.assert_array_equal(rebuilt.labels, original.labels)
