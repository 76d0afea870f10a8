"""Tests for events and the per-MC event detector."""

import numpy as np
import pytest

from repro.core.events import Event, EventDetector, EventKey, EventRecord


class TestEvent:
    def test_length_and_frames(self):
        event = Event(1, "mc", 10, 14)
        assert event.length == 4
        assert list(event.frames()) == [10, 11, 12, 13]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Event(1, "mc", 5, 5)


class TestEventDetector:
    def test_smooths_then_detects(self):
        detector = EventDetector("mc_a")
        decisions = np.array([0, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        smoothed, events = detector.detect(decisions)
        assert smoothed.sum() > 0
        assert len(events) == 1
        assert events[0].mc_name == "mc_a"
        assert events[0].event_id == 1

    def test_event_ids_persist_across_chunks(self):
        detector = EventDetector("mc_a")
        _, first = detector.detect(np.array([1, 1, 0]))
        _, second = detector.detect(np.array([1, 1]), frame_offset=3)
        assert [e.event_id for e in first + second] == [1, 2]
        assert second[0].start == 3

    def test_isolated_blip_produces_no_event(self):
        detector = EventDetector("mc_a")
        _, events = detector.detect(np.array([0, 0, 0, 1, 0, 0, 0]))
        assert events == []


class TestEventKey:
    def test_str_form(self):
        assert str(EventKey("cam003", 2, 7)) == "cam003/e2/7"

    def test_validation(self):
        with pytest.raises(ValueError):
            EventKey("cam", -1, 0)
        with pytest.raises(ValueError):
            EventKey("cam", 0, -1)

    def test_distinct_epochs_distinct_keys(self):
        assert EventKey("cam", 0, 1) != EventKey("cam", 1, 1)
        assert len({EventKey("cam", e, 1) for e in range(3)}) == 3


class TestEventRecord:
    def make(self, **overrides):
        fields = dict(
            key=EventKey("cam0", 0, 1),
            mc_name="mc_a",
            start=2,
            end=6,
            source_start=4,
            source_end=12,
            peak_score=0.875,
            closed_at=1.5,
        )
        fields.update(overrides)
        return EventRecord(**fields)

    def test_length_and_serialization(self):
        record = self.make()
        assert record.length == 4
        payload = record.to_dict()
        assert payload["key"] == "cam0/e0/1"
        assert payload["camera"] == "cam0"
        assert payload["epoch"] == 0
        assert payload["event_id"] == 1
        assert payload["source_start"] == 4
        assert payload["source_end"] == 12
        assert payload["peak_score"] == 0.875
        assert payload["closed_at"] == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(end=2)
        with pytest.raises(ValueError):
            self.make(source_end=4)


class TestDetectorBoundaries:
    """Stream-edge semantics: open runs, window tails, and flush finality."""

    def test_open_run_closes_at_flush(self):
        detector = EventDetector("mc")
        mid_events = []
        for decision in [0, 0, 0, 0, 1, 1, 1]:
            _, events = detector.push(decision)
            mid_events.extend(events)
        assert mid_events == []  # run still open at stream end
        _, events = detector.flush()
        # K=2 of N=5 opens the run two frames before the first positive.
        assert [(e.event_id, e.start, e.end) for e in events] == [(1, 3, 7)]

    def test_window_tail_votes_emitted_at_flush(self):
        """Frames still pending in the voting window finalize at flush."""
        detector = EventDetector("mc")
        smoothed = []
        for decision in [1, 1]:
            finalized, events = detector.push(decision)
            smoothed.extend(finalized)
            assert events == []
        assert len(smoothed) < 2  # the tail is still held by the window
        tail, events = detector.flush()
        smoothed.extend(tail)
        assert [s.frame_index for s in smoothed] == [0, 1]
        assert [(e.event_id, e.start, e.end) for e in events] == [(1, 0, 2)]

    def test_push_after_flush_raises(self):
        detector = EventDetector("mc")
        detector.push(1)
        detector.flush()
        with pytest.raises(RuntimeError, match="flushed"):
            detector.push(0)

    def test_double_flush_raises(self):
        detector = EventDetector("mc")
        detector.flush()
        with pytest.raises(RuntimeError, match="flushed"):
            detector.flush()

    def test_detect_equals_push_then_flush(self):
        """The batch and online paths agree decision-for-decision."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            decisions = rng.integers(0, 2, size=40)
            batch = EventDetector("mc")
            batch_smoothed, batch_events = batch.detect(decisions)
            online = EventDetector("mc")
            online_smoothed, online_events = [], []
            for decision in decisions:
                finalized, events = online.push(int(decision))
                online_smoothed.extend(finalized)
                online_events.extend(events)
            finalized, events = online.flush()
            online_smoothed.extend(finalized)
            online_events.extend(events)
            assert [s.smoothed for s in online_smoothed] == list(batch_smoothed)
            assert [s.frame_index for s in online_smoothed] == list(range(len(decisions)))
            assert online_events == batch_events
