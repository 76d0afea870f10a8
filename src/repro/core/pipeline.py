"""The end-to-end FilterForward edge pipeline.

The pipeline mirrors Figure 1 of the paper: decoded frames flow through the
shared feature extractor; every installed microclassifier consumes the
feature maps it subscribed to; per-frame decisions are smoothed into events;
matched frames are re-encoded with H.264 at the application's chosen bitrate
and "uploaded" (accounted against the uplink); and the original stream is
archived on local disk for demand-fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.events import Event
from repro.core.microclassifier import MicroClassifier
from repro.features.extractor import FeatureExtractor
from repro.video.codec import EncodedSegment, H264Simulator
from repro.video.frame import Frame
from repro.video.stream import VideoStream

__all__ = [
    "PipelineConfig",
    "MicroClassifierResult",
    "PipelineResult",
    "FilterForwardPipeline",
    "validate_microclassifiers",
    "mc_input_feature_map",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline-wide knobs.

    ``smoothing_window``/``smoothing_votes`` are the paper's N=5, K=2
    K-voting defaults; ``batch_size`` bounds how many frames are scored per
    microclassifier inference call.
    """

    smoothing_window: int = 5
    smoothing_votes: int = 2
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be at least 1")
        if not 1 <= self.smoothing_votes <= self.smoothing_window:
            raise ValueError("smoothing_votes must be in [1, smoothing_window]")


def validate_microclassifiers(
    extractor: FeatureExtractor, microclassifiers: list[MicroClassifier]
) -> None:
    """Shared install-time checks for the batch and streaming pipelines."""
    if not microclassifiers:
        raise ValueError("FilterForwardPipeline requires at least one microclassifier")
    names = [mc.name for mc in microclassifiers]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ValueError(f"Duplicate microclassifier names: {sorted(duplicates)}")
    missing_taps = {mc.input_layer for mc in microclassifiers} - set(extractor.tap_layers)
    if missing_taps:
        raise ValueError(
            f"Extractor does not tap layer(s) {sorted(missing_taps)} required by "
            "installed microclassifiers"
        )


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
    decisions: np.ndarray
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


class FilterForwardPipeline:
    """Runs many microclassifiers against one camera stream on the edge node.

    Parameters
    ----------
    extractor:
        The shared feature extractor (one base-DNN pass per frame).
    microclassifiers:
        Installed microclassifiers; each declares the base-DNN layer (and
        optional crop) it consumes via its config.
    config:
        Pipeline knobs.
    codec:
        H.264 simulator used to re-encode matched frames for upload.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        microclassifiers: list[MicroClassifier],
        config: PipelineConfig | None = None,
        codec: H264Simulator | None = None,
    ) -> None:
        validate_microclassifiers(extractor, microclassifiers)
        self.extractor = extractor
        self.microclassifiers = list(microclassifiers)
        self.config = config or PipelineConfig()
        self.codec = codec or H264Simulator()

    # -- feature collection --------------------------------------------------
    def collect_feature_maps(self, stream: VideoStream) -> dict[str, np.ndarray]:
        """Run the base DNN over the stream and gather each MC's input batch.

        Returns a mapping from MC name to an ``(N, H, W, C)`` array of that
        MC's (cropped) feature maps, in frame order.  The base DNN runs once
        per frame regardless of how many MCs are installed — this is the
        computation sharing at the heart of FilterForward.
        """
        per_mc: dict[str, list[np.ndarray]] = {mc.name: [] for mc in self.microclassifiers}
        for frame in stream:
            activations = self.extractor.extract(frame)
            for mc in self.microclassifiers:
                per_mc[mc.name].append(mc_input_feature_map(mc, frame, activations))
        return {name: np.stack(maps, axis=0) for name, maps in per_mc.items()}

    # -- end-to-end -----------------------------------------------------------
    def streaming_session(
        self,
        frame_rate: float,
        resolution: tuple[int, int] | None = None,
        annotate_frames: bool = True,
    ):
        """Open a :class:`~repro.core.streaming.StreamingPipeline` session.

        The session shares this pipeline's extractor, microclassifiers,
        config, and codec, and produces identical results frame by frame in
        O(1) memory.
        """
        from repro.core.streaming import StreamingPipeline

        return StreamingPipeline(
            self.extractor,
            self.microclassifiers,
            config=self.config,
            codec=self.codec,
            frame_rate=frame_rate,
            resolution=resolution,
            annotate_frames=annotate_frames,
        )

    def process_stream(self, stream: VideoStream, annotate_frames: bool = True) -> PipelineResult:
        """Filter one stream: score, smooth, detect events, and account uploads.

        Frames are decoded exactly once: the stream is fed through the
        incremental :class:`~repro.core.streaming.StreamingPipeline`, which
        scores, smooths, and accounts uploads frame by frame instead of
        materializing per-MC feature-map batches.
        """
        session = self.streaming_session(
            stream.frame_rate, stream.resolution, annotate_frames=annotate_frames
        )
        for frame in stream:
            session.push(frame)
        return session.finish(stream_duration=stream.duration)

    # -- cost accounting -------------------------------------------------------
    def multiply_adds_per_frame(self) -> dict[str, int]:
        """Per-frame multiply-adds: the shared base DNN plus each MC's marginal cost."""
        costs = {"base_dnn": self.extractor.multiply_adds_per_frame()}
        for mc in self.microclassifiers:
            costs[mc.name] = mc.multiply_adds()
        return costs
