"""Config and result types of the FilterForward edge pipeline.

The pipeline itself mirrors Figure 1 of the paper and lives in
:mod:`repro.core.streaming`: decoded frames flow through the shared feature
extractor; every installed microclassifier consumes the feature maps it
subscribed to; per-frame decisions are smoothed into events; and matched
frames are re-encoded with H.264 at the application's chosen bitrate and
"uploaded" (accounted against the uplink).  This module holds the knobs
(:class:`PipelineConfig`), what one stream produces (:class:`PipelineResult`,
one :class:`MicroClassifierResult` per MC), and the per-MC input cropping
(:func:`mc_input_feature_map`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import Event
from repro.core.microclassifier import MicroClassifier
from repro.video.codec import EncodedSegment
from repro.video.frame import Frame

__all__ = [
    "PipelineConfig",
    "MicroClassifierResult",
    "PipelineResult",
    "mc_input_feature_map",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline-wide knobs.

    ``batch_size`` bounds how many frames are scored per microclassifier
    inference call.  Smoothing is always the paper's N=5, K=2 K-voting.
    """

    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


def mc_input_feature_map(
    mc: MicroClassifier, frame: Frame, activations: dict[str, np.ndarray]
) -> np.ndarray:
    """One MC's (optionally cropped) input feature map for one frame."""
    feature_map = activations[mc.input_layer]
    if mc.crop is not None:
        y0, y1, x0, x1 = mc.crop.to_feature_coords(
            (frame.height, frame.width), feature_map.shape[:2]
        )
        feature_map = feature_map[y0:y1, x0:x1, :]
    return feature_map


@dataclass
class MicroClassifierResult:
    """Everything one microclassifier produced for one stream."""

    mc_name: str
    probabilities: np.ndarray
    smoothed: np.ndarray
    events: list[Event]
    matched_frame_indices: np.ndarray
    encoded: EncodedSegment | None = None

    @property
    def num_matched_frames(self) -> int:
        """Number of frames this MC selected for upload (after smoothing)."""
        return int(self.matched_frame_indices.size)

    @property
    def average_bandwidth(self) -> float:
        """Average uplink bandwidth (bits/s) this MC's uploads consumed."""
        return self.encoded.average_bandwidth if self.encoded is not None else 0.0

    def event_bits(self, event: Event) -> float:
        """Encoded bits of the matched frames inside one event.

        ``event`` spans *stream positions*; ``encoded.frames`` holds one
        compressed frame per matched position, in matched order (their own
        ``index`` is the source frame index, which differs on any stream
        that does not start at frame 0).
        """
        if self.encoded is None:
            return 0.0
        first, last = np.searchsorted(self.matched_frame_indices, (event.start, event.end))
        return sum((compressed.bits for compressed in self.encoded.frames[first:last]), 0.0)


@dataclass
class PipelineResult:
    """The outcome of running the pipeline over one stream."""

    per_mc: dict[str, MicroClassifierResult]
    num_frames: int
    stream_duration: float
    uploaded_frame_indices: np.ndarray
    total_uploaded_bits: float
    base_dnn_multiply_adds_per_frame: int
    mc_multiply_adds_per_frame: dict[str, int] = field(default_factory=dict)

    @property
    def average_uplink_bandwidth(self) -> float:
        """Average bandwidth (bits/s) across all MC uploads, over the stream duration."""
        if self.stream_duration <= 0:
            return 0.0
        return self.total_uploaded_bits / self.stream_duration

    @property
    def upload_fraction(self) -> float:
        """Fraction of stream frames that were uploaded by at least one MC."""
        if self.num_frames == 0:
            return 0.0
        return self.uploaded_frame_indices.size / self.num_frames
