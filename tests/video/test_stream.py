"""Tests for video stream abstractions."""

import numpy as np
import pytest

from repro.video.frame import Frame
from repro.video.stream import InMemoryVideoStream


class TestInMemoryVideoStream:
    def test_length_and_indexing(self, tiny_stream):
        assert len(tiny_stream) == 12
        assert tiny_stream[0].index == 0
        assert tiny_stream[11].index == 11

    def test_out_of_range_raises(self, tiny_stream):
        with pytest.raises(IndexError):
            tiny_stream.frame(12)
        with pytest.raises(IndexError):
            tiny_stream.frame(-1)

    def test_iteration_order(self, tiny_stream):
        indices = [f.index for f in tiny_stream]
        assert indices == list(range(12))

    def test_duration(self, tiny_stream):
        assert tiny_stream.duration == pytest.approx(12 / 15.0)

    def test_resolution_is_width_height(self, tiny_stream):
        assert tiny_stream.resolution == (32, 24)

    def test_from_arrays_assigns_indices(self, rng):
        arrays = [rng.random((8, 8, 3)).astype(np.float32) for _ in range(4)]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=10.0)
        assert [frame.index for frame in stream] == [0, 1, 2, 3]
        assert np.array_equal(stream[2].pixels, arrays[2])

    def test_mixed_resolutions_rejected(self, rng):
        frames = [
            Frame(0, rng.random((8, 8, 3)).astype(np.float32)),
            Frame(1, rng.random((9, 8, 3)).astype(np.float32)),
        ]
        with pytest.raises(ValueError, match="share one resolution"):
            InMemoryVideoStream(frames, frame_rate=10.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            InMemoryVideoStream([], frame_rate=10.0)

    def test_raw_bits_per_second_matches_paper_example(self):
        """A 1080p30 stream decompressed is ~1.5 Gb/s (paper Section 2.1)."""
        class Dummy(InMemoryVideoStream):
            pass

        stream = InMemoryVideoStream.from_arrays(
            [np.zeros((4, 4, 3), dtype=np.float32)], frame_rate=30.0
        )
        # Use the formula directly at 1080p dimensions.
        stream.width, stream.height, stream.frame_rate = 1920, 1080, 30.0
        assert stream.raw_bits_per_second() == pytest.approx(1.49e9, rel=0.01)

    def test_invalid_frame_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            InMemoryVideoStream.from_arrays([rng.random((4, 4, 3))], frame_rate=0.0)

    @pytest.mark.parametrize("frame_rate", [float("nan"), float("inf")])
    def test_non_finite_frame_rate_rejected(self, rng, frame_rate):
        frames = [Frame(0, rng.random((4, 4, 3)).astype(np.float32))]
        with pytest.raises(ValueError, match="frame_rate"):
            InMemoryVideoStream(frames, frame_rate=frame_rate)

    @pytest.mark.parametrize("frame_rate", [float("nan"), float("inf")])
    def test_from_arrays_rejects_a_non_finite_frame_rate(self, rng, frame_rate):
        with pytest.raises(ValueError, match="frame_rate"):
            InMemoryVideoStream.from_arrays([rng.random((4, 4, 3))], frame_rate=frame_rate)

    @pytest.mark.parametrize("frame_rate", [0.0, -1.0, float("-inf")])
    def test_non_positive_frame_rate_rejected(self, rng, frame_rate):
        frames = [Frame(0, rng.random((4, 4, 3)).astype(np.float32))]
        with pytest.raises(ValueError, match="frame_rate"):
            InMemoryVideoStream(frames, frame_rate=frame_rate)

    @pytest.mark.parametrize("frame_rate", [-1.0, float("-inf")])
    def test_from_arrays_rejects_a_negative_frame_rate(self, rng, frame_rate):
        with pytest.raises(ValueError, match="frame_rate"):
            InMemoryVideoStream.from_arrays([rng.random((4, 4, 3))], frame_rate=frame_rate)
