"""Tests for the H.264 rate-distortion simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.codec import H264Simulator
from repro.video.stream import InMemoryVideoStream


@pytest.fixture
def codec() -> H264Simulator:
    return H264Simulator()


class TestRateModel:
    def test_detail_scale_saturates_at_high_bitrate(self, codec):
        assert codec.detail_scale_for_bpp(1.0) == 1.0
        assert codec.detail_scale_for_bpp(0.1) == pytest.approx(1.0)

    def test_detail_scale_decreases_with_bitrate(self, codec):
        scales = [codec.detail_scale_for_bpp(bpp) for bpp in (0.1, 0.05, 0.01, 0.001)]
        assert all(a >= b for a, b in zip(scales, scales[1:]))

    def test_detail_scale_has_floor(self, codec):
        assert codec.detail_scale_for_bpp(0.0) > 0.0
        assert codec.detail_scale_for_bpp(1e-9) > 0.0

    def test_quantization_levels_bounds(self, codec):
        assert codec.quantization_levels_for_bpp(10.0) == 256
        assert 8 <= codec.quantization_levels_for_bpp(1e-6) <= 256

    @given(bpp=st.floats(min_value=1e-6, max_value=10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_detail_scale_always_in_unit_interval(self, bpp):
        assert 0.0 < H264Simulator().detail_scale_for_bpp(bpp) <= 1.0


class TestEncoding:
    def test_total_bits_match_bitrate_budget(self, codec, tiny_stream):
        segment = codec.encode_stream(tiny_stream, target_bitrate=100_000)
        expected = 100_000 * tiny_stream.duration
        assert segment.total_bits == pytest.approx(expected, rel=0.05)

    def test_average_bandwidth_for_full_stream_is_bitrate(self, codec, tiny_stream):
        segment = codec.encode_stream(tiny_stream, target_bitrate=64_000)
        assert segment.average_bandwidth == pytest.approx(64_000, rel=0.05)

    def test_subset_upload_average_bandwidth_scales_with_selection(self, codec, tiny_stream):
        frames = [tiny_stream[i] for i in range(3)]
        segment = codec.encode(
            frames, 120_000, tiny_stream.frame_rate, tiny_stream.resolution,
            stream_duration=tiny_stream.duration,
        )
        # Only 3 of 12 frames uploaded at 120 kb/s -> average over the stream ~30 kb/s.
        assert segment.average_bandwidth == pytest.approx(120_000 * 3 / 12, rel=0.1)

    def test_busy_frames_cost_more_bits(self, codec, rng):
        static = [np.full((16, 16, 3), 0.5, dtype=np.float32) for _ in range(6)]
        busy = [rng.random((16, 16, 3)).astype(np.float32) for _ in range(6)]
        frames = static + busy
        stream = InMemoryVideoStream.from_arrays(frames, frame_rate=10.0)
        segment = codec.encode_stream(stream, target_bitrate=50_000)
        static_bits = sum(f.bits for f in segment.frames[1:5])
        busy_bits = sum(f.bits for f in segment.frames[7:11])
        assert busy_bits > static_bits

    def test_invalid_bitrate_rejected(self, codec, tiny_stream):
        with pytest.raises(ValueError):
            codec.encode_stream(tiny_stream, target_bitrate=0.0)

    def test_encoded_frame_indices_preserved(self, codec, tiny_stream):
        frames = [tiny_stream[4], tiny_stream[9]]
        segment = codec.encode(frames, 10_000, 15.0, tiny_stream.resolution)
        assert [f.index for f in segment.frames] == [4, 9]


class TestDistortion:
    def test_high_bitrate_is_nearly_lossless(self, codec, tiny_stream):
        decoded, _ = codec.transcode_stream(tiny_stream, target_bitrate=10_000_000)
        original = tiny_stream[5].pixels
        np.testing.assert_allclose(decoded[5].pixels, original, atol=0.02)

    def test_low_bitrate_destroys_small_details(self, codec):
        """A small bright object must survive high-bitrate encoding but vanish at low bitrate."""
        background = np.full((32, 48, 3), 0.4, dtype=np.float32)
        with_object = background.copy()
        with_object[10:13, 20:22] = [1.0, 0.0, 0.0]  # a 3x2-pixel red object
        frames = [with_object for _ in range(4)]
        stream = InMemoryVideoStream.from_arrays(frames, frame_rate=15.0)

        # Bitrates chosen so the high-quality encode stays above the
        # transparent bits-per-pixel threshold and the low-quality encode
        # falls far below it (0.004 bpp, the bottom of the Figure 4 sweep).
        pixels_per_second = 32 * 48 * 15
        hq, _ = codec.transcode_stream(stream, target_bitrate=0.2 * pixels_per_second)
        lq, _ = codec.transcode_stream(stream, target_bitrate=0.004 * pixels_per_second)

        def red_contrast(pixels):
            patch = pixels[10:13, 20:22]
            return float(patch[..., 0].mean() - patch[..., 1].mean())

        assert red_contrast(hq[0].pixels) > 0.5
        assert red_contrast(lq[0].pixels) < 0.25

    def test_block_average_preserves_mean(self, codec, rng):
        pixels = rng.random((17, 23, 3)).astype(np.float32)
        degraded = codec.degrade_pixels(pixels, detail_scale=0.25, levels=256)
        assert degraded.shape == pixels.shape
        assert degraded.mean() == pytest.approx(pixels.mean(), abs=0.02)

    def test_quantization_reduces_unique_levels(self, codec, rng):
        pixels = rng.random((16, 16, 3)).astype(np.float32)
        degraded = codec.degrade_pixels(pixels, detail_scale=1.0, levels=8)
        assert len(np.unique(np.round(degraded, 6))) <= 8

    def test_degraded_pixels_stay_in_range(self, codec, rng):
        pixels = rng.random((16, 16, 3)).astype(np.float32)
        degraded = codec.degrade_pixels(pixels, detail_scale=0.1, levels=16)
        assert degraded.min() >= 0.0 and degraded.max() <= 1.0

    def test_decode_keeps_frame_identity(self, codec, tiny_frame):
        segment = codec.encode([tiny_frame], 50_000, 15.0, (32, 24))
        decoded = codec.decode(tiny_frame, segment.frames[0])
        assert decoded.index == tiny_frame.index
        assert decoded.timestamp == tiny_frame.timestamp


class TestTranscodeStream:
    """Compress-everything's half of Figure 4: every frame, at whatever quality fits."""

    def test_average_bandwidth_is_target_bitrate(self, codec, tiny_pipeline_stream):
        _, segment = codec.transcode_stream(tiny_pipeline_stream, target_bitrate=80_000)
        assert segment.average_bandwidth == pytest.approx(80_000, rel=0.05)
        assert segment.target_bitrate == 80_000

    def test_decodes_every_frame_in_order(self, codec, tiny_stream):
        decoded, segment = codec.transcode_stream(tiny_stream, target_bitrate=50_000)
        assert [f.index for f in decoded] == list(range(len(tiny_stream)))
        assert [f.index for f in segment.frames] == list(range(len(tiny_stream)))
        assert all(f.pixels.shape == tiny_stream[0].pixels.shape for f in decoded)

    def test_lower_bitrate_loses_more_detail(self, codec, tiny_stream):
        # 24x32 at 15 fps: 2 Mb/s is far above transparent, 200 b/s is ~0.02 bits per pixel.
        _, high = codec.transcode_stream(tiny_stream, target_bitrate=2_000_000)
        _, low = codec.transcode_stream(tiny_stream, target_bitrate=200)
        assert all(f.detail_scale == 1.0 for f in high.frames)
        assert np.mean([f.detail_scale for f in low.frames]) < 0.5

    def test_source_stream_is_untouched(self, codec, tiny_stream):
        before = [tiny_stream[i].pixels.copy() for i in range(len(tiny_stream))]
        codec.transcode_stream(tiny_stream, target_bitrate=2_000)
        for i, pixels in enumerate(before):
            np.testing.assert_array_equal(tiny_stream[i].pixels, pixels)
