"""Tests for the edge node's local frame archive."""

import numpy as np
import pytest

from repro.edge.archive import FrameArchive
from repro.video.frame import Frame


def make_frame(index: int, size: int = 8) -> Frame:
    rng = np.random.default_rng(index)
    return Frame(index, rng.random((size, size, 3)).astype(np.float32))


class TestFrameArchive:
    def test_store_and_fetch(self):
        archive = FrameArchive(capacity_bytes=10 * 1024**2)
        for i in range(10):
            archive.store(make_frame(i))
        segment = archive.demand_fetch(3, 7)
        assert [f.index for f in segment.frames] == [3, 4, 5, 6]
        assert segment.missing == 0

    def test_eviction_is_oldest_first(self):
        frame_bytes = make_frame(0).pixels.nbytes
        archive = FrameArchive(capacity_bytes=frame_bytes * 3 + 1)
        for i in range(5):
            archive.store(make_frame(i))
        assert len(archive) == 3
        assert archive.oldest_index == 2
        assert 0 not in archive and 4 in archive

    def test_missing_counts_evicted_frames(self):
        frame_bytes = make_frame(0).pixels.nbytes
        archive = FrameArchive(capacity_bytes=frame_bytes * 2 + 1)
        for i in range(4):
            archive.store(make_frame(i))
        segment = archive.demand_fetch(0, 4)
        assert segment.missing == 2

    def test_restoring_same_index_does_not_double_count(self):
        archive = FrameArchive(capacity_bytes=10 * 1024**2)
        frame = make_frame(0)
        archive.store(frame)
        archive.store(frame)
        assert len(archive) == 1
        assert archive.bytes_used == pytest.approx(frame.pixels.nbytes)

    def test_fetch_event_context_extends_range(self):
        archive = FrameArchive(capacity_bytes=10 * 1024**2)
        for i in range(20):
            archive.store(make_frame(i))
        segment = archive.fetch_event_context(10, 12, context=3)
        assert segment.start == 7 and segment.end == 15

    def test_context_clamped_at_stream_start(self):
        archive = FrameArchive(capacity_bytes=10 * 1024**2)
        for i in range(5):
            archive.store(make_frame(i))
        segment = archive.fetch_event_context(1, 2, context=5)
        assert segment.start == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrameArchive(capacity_bytes=0)
        archive = FrameArchive(capacity_bytes=1024**2)
        with pytest.raises(ValueError):
            archive.demand_fetch(5, 5)
        with pytest.raises(ValueError):
            archive.fetch_event_context(0, 1, context=-1)

    def test_nan_capacity_rejected(self):
        # Every comparison with a NaN budget is False, so such an archive never evicted.
        with pytest.raises(ValueError, match="capacity_bytes"):
            FrameArchive(capacity_bytes=float("nan"))

    @pytest.mark.parametrize("capacity_bytes", [-1.0, float("-inf")])
    def test_negative_capacity_rejected(self, capacity_bytes):
        with pytest.raises(ValueError, match="capacity_bytes"):
            FrameArchive(capacity_bytes=capacity_bytes)

    def test_single_frame_larger_than_capacity_rejected(self):
        archive = FrameArchive(capacity_bytes=10)
        with pytest.raises(ValueError):
            archive.store(make_frame(0))
