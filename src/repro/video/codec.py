"""H.264-style codec simulation.

FilterForward re-encodes matched event frames with H.264 at a user-chosen
bitrate before upload, and the "compress everything" baseline uploads the
whole stream heavily compressed.  This module provides a rate-distortion
*simulator* for those two uses:

* **Rate**: the bits spent on each encoded frame are derived from the target
  bitrate, modulated by per-frame content complexity (temporal difference
  from the previous frame), so static scenes compress better than busy ones —
  the property the paper relies on ("the larger proportion of unchanging
  pixels makes such streams more compressible", Section 5.2.2).
* **Distortion**: the decoded pixels are degraded according to the achieved
  bits-per-pixel: spatial detail is removed via block averaging and values
  are quantized.  Small objects (the paper's central challenge) disappear
  first, which is exactly the mechanism that makes "compress everything"
  lose accuracy in Figure 4.

The simulator is deliberately simple, calibrated so that ~2 Mb/s for a
1080p15 stream corresponds to "low quality" (paper Section 2.2.1) and
~0.1 bits/pixel is visually transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.video.frame import Frame
from repro.video.stream import VideoStream

__all__ = ["CompressedFrame", "EncodedSegment", "H264Simulator"]

# Bits per pixel at which the codec is effectively transparent (no visible
# detail loss).  0.10 bpp at 1080p15 is ~3.1 Mb/s, consistent with "good
# quality" H.264 for static surveillance scenes.
_TRANSPARENT_BPP = 0.10
# How strongly per-frame temporal complexity modulates the bit allocation.
_COMPLEXITY_WEIGHT = 0.5
# Detail scale is never allowed below this floor (the codec always keeps
# *some* structure).
_MIN_DETAIL_SCALE = 0.04


@dataclass(frozen=True)
class CompressedFrame:
    """One encoded frame: how many bits it consumed and how much detail survived."""

    index: int
    bits: float
    detail_scale: float
    quantization_levels: int


@dataclass
class EncodedSegment:
    """A contiguous (or selected) set of frames encoded at one target bitrate."""

    frames: list[CompressedFrame]
    target_bitrate: float
    frame_rate: float
    resolution: tuple[int, int]
    stream_duration: float

    @property
    def total_bits(self) -> float:
        """Total bits consumed by the encoded frames."""
        return float(sum(f.bits for f in self.frames))

    @property
    def average_bandwidth(self) -> float:
        """Average uplink bandwidth (bits/second) over the *whole* stream.

        FilterForward's uploads are bursty: matched frames are sent at the
        target bitrate, and nothing is sent in between, so the average over
        the stream duration is what counts against the uplink budget.
        """
        if self.stream_duration <= 0:
            return 0.0
        return self.total_bits / self.stream_duration


class H264Simulator:
    """Rate-distortion model of an H.264 encoder.

    The model is fixed and deterministic: detail survives in full at and
    above 0.10 bits per pixel, and a frame's bits scale with its temporal
    complexity at weight 0.5.
    """

    # -- rate model --------------------------------------------------------
    @staticmethod
    def temporal_diffs(frames: Sequence[Frame]) -> np.ndarray:
        """Per-frame mean absolute pixel difference from the previous frame.

        The first entry is a placeholder (it has no predecessor) and is
        replaced by the mean of the rest in
        :meth:`complexities_from_diffs`.  A streaming caller can produce the
        same array one frame at a time by remembering the previous frame's
        pixels.
        """
        diffs = np.empty(len(frames))
        if len(frames) == 0:
            return diffs
        diffs[0] = 1.0
        prev = frames[0].pixels
        for i, frame in enumerate(frames[1:], start=1):
            diffs[i] = float(np.mean(np.abs(frame.pixels - prev)))
            prev = frame.pixels
        return diffs

    def complexities_from_diffs(self, diffs: np.ndarray) -> np.ndarray:
        """Relative bit-cost multipliers (mean 1.0) from temporal differences."""
        diffs = np.asarray(diffs, dtype=np.float64)
        if diffs.size <= 1:
            return np.ones(diffs.size)
        diffs = diffs.copy()
        diffs[0] = diffs[1:].mean()
        mean = diffs.mean()
        if mean <= 0:
            return np.ones(diffs.size)
        relative = diffs / mean
        return 1.0 + _COMPLEXITY_WEIGHT * (relative - 1.0)

    def detail_scale_for_bpp(self, bits_per_pixel: float) -> float:
        """Fraction of spatial detail retained at ``bits_per_pixel``.

        1.0 means no loss; smaller values mean the effective resolution is
        reduced by ``1 / detail_scale`` in each dimension.
        """
        if bits_per_pixel <= 0:
            return _MIN_DETAIL_SCALE
        scale = np.sqrt(bits_per_pixel / _TRANSPARENT_BPP)
        return float(np.clip(scale, _MIN_DETAIL_SCALE, 1.0))

    def quantization_levels_for_bpp(self, bits_per_pixel: float) -> int:
        """Number of representable intensity levels at ``bits_per_pixel``."""
        scale = self.detail_scale_for_bpp(bits_per_pixel)
        return int(np.clip(round(256 * scale), 8, 256))

    # -- encoding ----------------------------------------------------------
    def encode(
        self,
        frames: Sequence[Frame],
        target_bitrate: float,
        frame_rate: float,
        resolution: tuple[int, int],
        stream_duration: float | None = None,
    ) -> EncodedSegment:
        """Encode ``frames`` at ``target_bitrate`` (bits/second).

        ``stream_duration`` is the duration of the *original* stream the
        frames were selected from; it defaults to the duration of the encoded
        frames themselves (i.e. a full-stream encode).
        """
        return self.encode_precomputed(
            [frame.index for frame in frames],
            self.complexities_from_diffs(self.temporal_diffs(frames)),
            target_bitrate,
            frame_rate,
            resolution,
            stream_duration=stream_duration,
        )

    def encode_precomputed(
        self,
        frame_indices: Sequence[int],
        complexities: np.ndarray,
        target_bitrate: float,
        frame_rate: float,
        resolution: tuple[int, int],
        stream_duration: float | None = None,
    ) -> EncodedSegment:
        """Encode from precomputed per-frame complexity multipliers.

        This is the streaming-friendly entry point: a caller that cannot hold
        the frames themselves accumulates temporal-difference scalars online
        (see :meth:`temporal_diffs`), converts them with
        :meth:`complexities_from_diffs`, and gets a bit-identical
        :class:`EncodedSegment` to :meth:`encode` on the same frames.
        """
        if target_bitrate <= 0:
            raise ValueError("target_bitrate must be positive")
        if frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if len(frame_indices) != len(complexities):
            raise ValueError("frame_indices and complexities must have equal length")
        width, height = resolution
        bits_per_frame_budget = target_bitrate / frame_rate
        bits_per_pixel = bits_per_frame_budget / (width * height)
        detail = self.detail_scale_for_bpp(bits_per_pixel)
        levels = self.quantization_levels_for_bpp(bits_per_pixel)
        encoded = [
            CompressedFrame(
                index=int(index),
                bits=float(bits_per_frame_budget * complexity),
                detail_scale=detail,
                quantization_levels=levels,
            )
            for index, complexity in zip(frame_indices, complexities)
        ]
        duration = (
            float(stream_duration)
            if stream_duration is not None
            else len(frame_indices) / frame_rate
        )
        return EncodedSegment(
            frames=encoded,
            target_bitrate=float(target_bitrate),
            frame_rate=float(frame_rate),
            resolution=(int(width), int(height)),
            stream_duration=duration,
        )

    def encode_stream(self, stream: VideoStream, target_bitrate: float) -> EncodedSegment:
        """Encode an entire stream at ``target_bitrate``."""
        frames = list(stream)
        return self.encode(
            frames,
            target_bitrate,
            stream.frame_rate,
            stream.resolution,
            stream_duration=stream.duration,
        )

    # -- distortion model --------------------------------------------------
    @staticmethod
    def _block_average(pixels: np.ndarray, block: int) -> np.ndarray:
        """Replace each ``block x block`` tile with its mean (vectorized)."""
        if block <= 1:
            return pixels
        h, w, c = pixels.shape
        pad_h = (-h) % block
        pad_w = (-w) % block
        padded = np.pad(pixels, ((0, pad_h), (0, pad_w), (0, 0)), mode="edge")
        ph, pw = padded.shape[:2]
        tiles = padded.reshape(ph // block, block, pw // block, block, c)
        means = tiles.mean(axis=(1, 3), keepdims=True)
        blurred = np.broadcast_to(means, tiles.shape).reshape(ph, pw, c)
        return blurred[:h, :w, :]

    def degrade_pixels(self, pixels: np.ndarray, detail_scale: float, levels: int) -> np.ndarray:
        """Apply the distortion implied by ``detail_scale`` and ``levels``."""
        block = max(1, int(round(1.0 / max(detail_scale, _MIN_DETAIL_SCALE))))
        degraded = self._block_average(np.asarray(pixels, dtype=np.float32), block)
        if levels < 256:
            degraded = np.round(degraded * (levels - 1)) / (levels - 1)
        return np.clip(degraded, 0.0, 1.0).astype(np.float32)

    def decode(self, frame: Frame, compressed: CompressedFrame) -> Frame:
        """Return the frame as it would look after encode/decode."""
        return frame.with_pixels(
            self.degrade_pixels(frame.pixels, compressed.detail_scale, compressed.quantization_levels)
        )

    def transcode_stream(
        self, stream: VideoStream, target_bitrate: float
    ) -> tuple[list[Frame], EncodedSegment]:
        """Encode the whole stream and return the decoded (degraded) frames.

        This is what the "compress everything" baseline sends to the cloud:
        every frame, but at whatever quality the bitrate allows.
        """
        segment = self.encode_stream(stream, target_bitrate)
        decoded = [self.decode(frame, comp) for frame, comp in zip(stream, segment.frames)]
        return decoded, segment
