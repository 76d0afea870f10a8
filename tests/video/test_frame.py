"""Tests for the Frame container."""

import numpy as np
import pytest

from repro.video.frame import Frame


class TestFrame:
    def test_basic_properties(self, tiny_frame):
        assert tiny_frame.height == 24
        assert tiny_frame.width == 32
        assert tiny_frame.resolution == (32, 24)

    def test_pixels_cast_to_float32(self):
        frame = Frame(0, np.zeros((4, 4, 3), dtype=np.float64))
        assert frame.pixels.dtype == np.float32

    def test_rejects_non_rgb_shapes(self):
        with pytest.raises(ValueError):
            Frame(0, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            Frame(0, np.zeros((4, 4, 1)))

    def test_with_pixels_preserves_identity_fields(self, tiny_frame):
        new_pixels = np.zeros_like(tiny_frame.pixels)
        replaced = tiny_frame.with_pixels(new_pixels)
        assert replaced.index == tiny_frame.index
        assert np.all(replaced.pixels == 0)

    def test_event_membership_recording(self, tiny_frame):
        tiny_frame.record_event("mc_dogs", 3)
        tiny_frame.record_event("mc_bikes", 7)
        assert tiny_frame.event_memberships() == {"mc_dogs": 3, "mc_bikes": 7}

    def test_event_memberships_returns_copy(self, tiny_frame):
        tiny_frame.record_event("mc", 1)
        memberships = tiny_frame.event_memberships()
        memberships["mc"] = 99
        assert tiny_frame.event_memberships()["mc"] == 1

    def test_record_event_overwrites_same_mc(self, tiny_frame):
        tiny_frame.record_event("mc", 1)
        tiny_frame.record_event("mc", 2)
        assert tiny_frame.event_memberships() == {"mc": 2}
