"""The FilterForward pipeline, executed incrementally in O(1) heavy state.

:class:`StreamingPipeline` is the one way to filter a stream (Figure 1 of
the paper): it consumes one decoded frame at a time and produces per-frame
probabilities, K-voting smoothed decisions, events, and upload accounting
identical to scoring the whole stream in batch, without ever materializing
per-microclassifier feature-map batches.  Memory is O(1) in the
*heavyweight* sense: the frames and feature maps held at any moment are
bounded by the configuration, not the stream length (per-frame scalars —
probabilities, smoothed decisions, source indices — still accumulate, since
they are the result).  The bounded heavy state is:

* one chunk of up to ``batch_size`` feature maps per *bank* — the MCs of one
  architecture on one input, grouped at bind time and scored together (as soon
  as the chunk fills, with the same chunk boundaries the batch path uses, so
  probabilities are bit-identical);
* a ring of reduced maps for windowed banks (``window + batch_size`` entries);
* the frames still inside the smoothing lookahead (``batch_size`` plus a few
  window widths), needed for event annotation and codec rate accounting;
* O(1) scalars per matched frame for the deferred H.264 bit accounting
  (the codec's content-adaptive rate model normalizes over the whole matched
  sequence, so encoded segments are assembled at :meth:`finish`).

This is the execution substrate of the multi-camera fleet runtime
(:mod:`repro.fleet`): a camera pushes frames as they arrive and learns about
matches and closed events with bounded latency, instead of replaying the
whole stream three times as the original offline flow did.  The end of the
stream is one more update: :meth:`~StreamingPipeline.flush` returns what only
the end resolves (the lookahead's last decisions and every still-open event).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.architectures import WindowedLocalizedBinaryClassifierMC
from repro.core.events import Event, EventDetector, EventKey, EventRecord
from repro.core.microclassifier import MicroClassifier
from repro.core.pipeline import MicroClassifierResult, PipelineConfig, PipelineResult
from repro.features.extractor import FeatureExtractor
from repro.video.codec import H264Simulator
from repro.video.frame import Frame
from repro.video.stream import VideoStream

__all__ = ["StreamUpdate", "StreamingPipeline"]


@dataclass(frozen=True)
class StreamUpdate:
    """What one :meth:`StreamingPipeline.push` (or the final ``flush``) resolved.

    ``new_matches`` are ``(mc_name, position)`` pairs, a position being the
    0-based index of a frame in *pushed order* (equal to ``Frame.index`` when
    an intact stream is pushed; under load shedding positions stay dense
    while source indices gap).  Smoothing lookahead and chunked scoring mean
    a push typically finalizes frames a few positions behind the one just
    pushed.  ``closed_records`` are the events this push closed.  Together
    the updates of every push and of ``flush`` carry each match and each
    event exactly once.
    """

    new_matches: tuple[tuple[str, int], ...] = ()
    closed_records: tuple[EventRecord, ...] = ()


@dataclass
class _McState:
    """Per-microclassifier incremental state."""

    mc: MicroClassifier
    detector: EventDetector
    # Live decision-threshold override (None = the MC's trained/configured
    # threshold).  Kept on the session, not on the MC, so a trained model
    # shared by many sessions is never mutated by one camera's control loop.
    threshold_override: float | None = None
    probabilities: list[float] = field(default_factory=list)
    smoothed: list[int] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    decisions_fed: int = 0
    # Deferred codec accounting for matched frames.
    matched_source_indices: list[int] = field(default_factory=list)
    matched_diffs: list[float] = field(default_factory=list)
    prev_matched_pixels: np.ndarray | None = None

    @property
    def finalized(self) -> int:
        return len(self.smoothed)

    @property
    def threshold(self) -> float:
        """The decision threshold currently in effect for this MC."""
        if self.threshold_override is not None:
            return self.threshold_override
        return self.mc.config.threshold


@dataclass
class _Bank:
    """The unit the MC stage scores: the installed MCs with one ``bank_key()``.

    They read one (cropped) feature map: queued once, lowered once per layer.  Bank
    state lives on the session, never on an MC (a trained MC serves many sessions).
    """

    states: list[_McState]
    chunk: list[np.ndarray] = field(default_factory=list)
    crop_slices: tuple[slice, slice] | None = None  # resolved by the first frame
    # Windowed banks: stacked (M, H, W, R) reductions by stream position.
    reduced: "OrderedDict[int, np.ndarray]" = field(default_factory=OrderedDict)
    reduced_count: int = 0

    def __post_init__(self) -> None:
        self.first, *self.peers = (state.mc for state in self.states)
        self.is_windowed = isinstance(self.first, WindowedLocalizedBinaryClassifierMC)

    def queue_input(self, frame: Frame, activations: dict[str, np.ndarray]) -> None:
        """Queue the members' common input for ``frame``."""
        feature_map = activations[self.first.input_layer]
        if self.first.crop is not None:
            if self.crop_slices is None:
                y0, y1, x0, x1 = self.first.crop.to_feature_coords(
                    (frame.height, frame.width), feature_map.shape[:2]
                )
                self.crop_slices = (slice(y0, y1), slice(x0, x1))
            feature_map = feature_map[self.crop_slices]
        self.chunk.append(feature_map)

    def record(self, rows: np.ndarray) -> None:
        """Append one ``(n,)`` row of probabilities per member."""
        for state, row in zip(self.states, rows.tolist()):
            state.probabilities.extend(row)


class StreamingPipeline:
    """Frame-by-frame FilterForward execution with bounded memory.

    Parameters
    ----------
    extractor:
        The shared feature extractor (one base-DNN pass per pushed frame).
    microclassifiers:
        Installed microclassifiers: at least one, uniquely named, each
        reading a layer the extractor taps.
    config:
        Pipeline knobs; ``batch_size`` bounds both scoring latency and the
        feature-map memory held per MC.
    frame_rate:
        Nominal frame rate of the pushed sequence (used for upload
        accounting at :meth:`finish`).
    resolution:
        ``(width, height)``; inferred from the first pushed frame if omitted.
    annotate_frames:
        Record event memberships into frame metadata as runs are detected.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        microclassifiers: list[MicroClassifier],
        config: PipelineConfig | None = None,
        frame_rate: float = 30.0,
        resolution: tuple[int, int] | None = None,
        annotate_frames: bool = True,
    ) -> None:
        if not microclassifiers:
            raise ValueError("StreamingPipeline requires at least one microclassifier")
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
        if not 0.0 < frame_rate < math.inf:  # written so that a NaN fails it
            raise ValueError("frame_rate must be positive and finite")
        self.extractor = extractor
        self.microclassifiers = list(microclassifiers)
        self.config = config or PipelineConfig()
        self.codec = H264Simulator()
        self.frame_rate = float(frame_rate)
        self.resolution = resolution
        self.annotate_frames = bool(annotate_frames)
        self._states = [
            _McState(mc=mc, detector=EventDetector(mc.name)) for mc in self.microclassifiers
        ]
        # Banks are resolved once, at bind time: regrouping per push would tax
        # every fleet camera, whose single MC is a bank of one.
        by_key: dict[tuple, list[_McState]] = {}
        for state in self._states:
            by_key.setdefault(state.mc.bank_key(), []).append(state)
        self._banks = [_Bank(states) for states in by_key.values()]
        # Name -> states resolved once at bind time, so the actuation hot
        # path (threshold reads during decision draining, control-plane
        # SetCameraThreshold) never rescans the state list per call.
        self._states_by_name: dict[str, list[_McState]] = {}
        for state in self._states:
            self._states_by_name.setdefault(state.mc.name, []).append(state)
        self._pending: "OrderedDict[int, Frame]" = OrderedDict()
        self._num_pushed = 0
        self._flushed = False
        self._result: PipelineResult | None = None
        # Global event identity: (camera_id, session_epoch) prefix for the
        # EventRecords this session emits.  Defaults suit a standalone
        # pipeline; the fleet runtime rebinds via bind_identity() so keys
        # survive camera migration (epoch bumps on reattach).
        self._camera_id = "stream"
        self._session_epoch = 0
        # Each pushed frame's source index, kept for downstream consumers
        # (fleet tracing, upload scheduling); O(1) per frame.
        self.source_indices: list[int] = []

    def bind_identity(self, camera_id: str, session_epoch: int = 0) -> None:
        """Set the ``(camera_id, session_epoch)`` prefix of emitted event keys.

        The fleet runtime calls this at install time; ``session_epoch``
        increments on every migration reattach so the per-detector
        ``event_id`` counter restarting from 0 never aliases two physical
        events under one global key.
        """
        if session_epoch < 0:
            raise ValueError("session_epoch must be non-negative")
        self._camera_id = str(camera_id)
        self._session_epoch = int(session_epoch)

    # -- streaming interface -------------------------------------------------
    @property
    def finalized_through(self) -> int:
        """Number of frames whose smoothed decisions are final for all MCs."""
        return min(state.finalized for state in self._states)

    def push(self, frame: Frame) -> StreamUpdate:
        """Ingest one decoded frame; returns what this push finalized."""
        if self._flushed:
            raise RuntimeError("StreamingPipeline already finished its stream")
        if self.resolution is None:
            self.resolution = (frame.width, frame.height)
        position = self._num_pushed
        self._num_pushed += 1
        self._pending[position] = frame
        self.source_indices.append(int(frame.index))

        activations = self.extractor.extract(frame)
        for bank in self._banks:
            bank.queue_input(frame, activations)

        new_matches: list[tuple[str, int]] = []
        records: list[EventRecord] = []
        if len(self._banks[0].chunk) >= self.config.batch_size:
            self._score_chunks(final=False)
            self._drain_decisions(new_matches, records)
        return StreamUpdate(new_matches=tuple(new_matches), closed_records=tuple(records))

    def flush(self) -> StreamUpdate:
        """End the stream: score what is queued and close every open event.

        Returns the matches and records only the end of the stream resolves.
        Called once; ``push`` and ``set_threshold`` raise after it.
        """
        if self._flushed:
            raise RuntimeError("StreamingPipeline already flushed")
        self._flushed = True
        self._score_chunks(final=True)
        new_matches: list[tuple[str, int]] = []
        records: list[EventRecord] = []
        self._drain_decisions(new_matches, records, final=True)
        self._pending.clear()
        return StreamUpdate(new_matches=tuple(new_matches), closed_records=tuple(records))

    def finish(self, stream_duration: float | None = None) -> PipelineResult:
        """Assemble the final result, flushing first when nobody has.

        ``stream_duration`` defaults to the number of frames pushed over ``frame_rate``.
        """
        if self._result is not None:
            return self._result
        if not self._flushed:
            self.flush()

        duration = (
            float(stream_duration)
            if stream_duration is not None
            else self._num_pushed / self.frame_rate
        )
        per_mc: dict[str, MicroClassifierResult] = {}
        uploaded: set[int] = set()
        total_bits = 0.0
        for state in self._states:
            probabilities = np.array(state.probabilities, dtype=np.float64)
            smoothed = np.array(state.smoothed, dtype=np.int8)
            matched = np.flatnonzero(smoothed)
            encoded = None
            if matched.size:
                complexities = self.codec.complexities_from_diffs(
                    np.array(state.matched_diffs, dtype=np.float64)
                )
                encoded = self.codec.encode_precomputed(
                    state.matched_source_indices,
                    complexities,
                    state.mc.config.upload_bitrate,
                    self.frame_rate,
                    self.resolution,
                    stream_duration=duration,
                )
                total_bits += encoded.total_bits
                uploaded.update(int(i) for i in matched)
            per_mc[state.mc.name] = MicroClassifierResult(
                mc_name=state.mc.name,
                probabilities=probabilities,
                smoothed=smoothed,
                events=state.events,
                matched_frame_indices=matched,
                encoded=encoded,
            )
        self._result = PipelineResult(
            per_mc=per_mc,
            num_frames=self._num_pushed,
            stream_duration=duration,
            uploaded_frame_indices=np.array(sorted(uploaded), dtype=np.int64),
            total_uploaded_bits=total_bits,
            base_dnn_multiply_adds_per_frame=self.extractor.multiply_adds_per_frame(),
            mc_multiply_adds_per_frame={
                mc.name: mc.multiply_adds() for mc in self.microclassifiers
            },
        )
        return self._result

    def process_stream(self, stream: VideoStream) -> PipelineResult:
        """Filter one whole stream: push every frame of ``stream`` and finish.

        Uploads are accounted at the session's ``frame_rate``, so a stream at
        another rate (or at another resolution than the session's) raises
        ``ValueError`` instead of being silently mis-accounted.
        """
        if stream.frame_rate != self.frame_rate:
            raise ValueError(
                f"stream frame rate {stream.frame_rate} differs from the session's "
                f"{self.frame_rate}"
            )
        if self.resolution is not None and self.resolution != stream.resolution:
            raise ValueError(
                f"stream resolution {stream.resolution} differs from the session's "
                f"{self.resolution}"
            )
        for frame in stream:
            self.push(frame)
        return self.finish(stream_duration=stream.duration)

    # -- live threshold actuation ---------------------------------------------
    def _states_for(self, mc_name: str | None) -> list[_McState]:
        if mc_name is None:
            return self._states
        states = self._states_by_name.get(mc_name)
        if not states:
            known = sorted(self._states_by_name)
            raise KeyError(f"No microclassifier {mc_name!r} in this session (have {known})")
        return states

    def set_threshold(self, threshold: float, mc_name: str | None = None) -> None:
        """Override the decision threshold of one (or every) installed MC.

        The override lives on this session only — the underlying
        :class:`MicroClassifier` (possibly shared with other sessions through
        a trained-model cache) keeps its configured threshold.  It applies to
        decisions drained after the call; already-finalized decisions are
        never rewritten.  This is the actuation point of the control plane's
        ``SetCameraThreshold`` action (runtime threshold drift).
        """
        if self._flushed:
            raise RuntimeError("StreamingPipeline already finished its stream")
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        for state in self._states_for(mc_name):
            state.threshold_override = float(threshold)

    def current_threshold(self, mc_name: str | None = None) -> float:
        """The decision threshold in effect (first installed MC when unnamed)."""
        return self._states_for(mc_name)[0].threshold

    # -- scoring -------------------------------------------------------------
    def _score_chunks(self, final: bool) -> None:
        """Score every bank's queued chunk (all chunks fill in lockstep)."""
        for bank in self._banks:
            if bank.chunk:
                # A one-frame chunk stays a view of the tap: no stacking copy.
                chunk, bank.chunk = bank.chunk, []
                batch = chunk[0][None] if len(chunk) == 1 else np.stack(chunk, axis=0)
                if bank.is_windowed:
                    reduced = bank.first.reduce_batch(batch, bank.peers)
                    for k in range(reduced.shape[1]):
                        bank.reduced[bank.reduced_count] = reduced[:, k]
                        bank.reduced_count += 1
                else:
                    bank.record(bank.first.predict_proba_batch(batch, bank.peers))
            if bank.is_windowed:
                self._emit_windowed_probabilities(bank, final)

    def _emit_windowed_probabilities(self, bank: _Bank, final: bool) -> None:
        """Score windowed frames whose temporal context is now available.

        Mirrors ``predict_proba_stream``: frame *i*'s window is the reduced
        maps at positions ``clip([i - half, i + half], 0, n - 1)``, so edge
        frames replicate the boundary reduction.  The right clamp only
        applies once the stream end is known.
        """
        scored = bank.states[0].probabilities
        half = bank.first.window // 2
        last = bank.reduced_count - 1
        while len(scored) < self._num_pushed:
            i = len(scored)
            if not final and i + half > last:
                break
            window = [bank.reduced[min(max(j, 0), last)] for j in range(i - half, i + half + 1)]
            bank.record(bank.first.predict_window(window, bank.peers)[:, None])
            # Reductions earlier than the next frame's left edge are done.
            cutoff = (i + 1) - half
            while bank.reduced and next(iter(bank.reduced)) < cutoff:
                bank.reduced.popitem(last=False)

    # -- smoothing, events, accounting ----------------------------------------
    def _drain_decisions(
        self,
        new_matches: list[tuple[str, int]],
        closed_records: list[EventRecord],
        final: bool = False,
    ) -> None:
        for state in self._states:
            while state.decisions_fed < len(state.probabilities):
                probability = state.probabilities[state.decisions_fed]
                state.decisions_fed += 1
                finalized, ended = state.detector.push(1 if probability >= state.threshold else 0)
                self._apply_finalized(state, finalized, new_matches)
                state.events.extend(ended)
                closed_records.extend(self._make_record(state, event) for event in ended)
            if final:
                finalized, ended = state.detector.flush()
                self._apply_finalized(state, finalized, new_matches)
                state.events.extend(ended)
                closed_records.extend(self._make_record(state, event) for event in ended)
        self._evict_finalized_frames()

    def _make_record(self, state: _McState, event: Event) -> EventRecord:
        """Promote a closed :class:`Event` to a globally identified record.

        Valid at close time: an event only closes once every position in its
        span is finalized, so the probabilities and source indices it covers
        are already materialized.
        """
        return EventRecord(
            key=EventKey(self._camera_id, self._session_epoch, event.event_id),
            mc_name=event.mc_name,
            start=event.start,
            end=event.end,
            source_start=self.source_indices[event.start],
            source_end=self.source_indices[event.end - 1] + 1,
            peak_score=max(state.probabilities[event.start : event.end]),
        )

    def _apply_finalized(self, state: _McState, finalized, new_matches) -> None:
        for decision in finalized:
            state.smoothed.append(decision.smoothed)
            if not decision.smoothed:
                continue
            frame = self._pending[decision.frame_index]
            if self.annotate_frames:
                frame.record_event(state.mc.name, decision.event_id)
            if state.prev_matched_pixels is None:
                diff = 1.0  # placeholder; complexities_from_diffs overwrites it
            else:
                diff = float(np.mean(np.abs(frame.pixels - state.prev_matched_pixels)))
            state.matched_diffs.append(diff)
            state.prev_matched_pixels = frame.pixels
            state.matched_source_indices.append(int(frame.index))
            new_matches.append((state.mc.name, decision.frame_index))

    def _evict_finalized_frames(self) -> None:
        horizon = self.finalized_through
        while self._pending and next(iter(self._pending)) < horizon:
            self._pending.popitem(last=False)
