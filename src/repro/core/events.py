"""Events and the per-microclassifier event detector.

An event is a contiguous run of positively classified frames for one
microclassifier, after K-voting smoothing.  Applications use the event ID
stored in each frame's metadata to determine event boundaries and to
demand-fetch surrounding context from the edge node's archive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.smoothing import KVotingSmoother, StreamingKVotingSmoother, TransitionDetector

__all__ = ["Event", "EventDetector", "EventKey", "EventRecord", "SmoothedDecision"]


@dataclass(frozen=True)
class Event:
    """A detected event for one microclassifier.

    ``end`` is exclusive: frames ``start .. end-1`` belong to the event.
    """

    event_id: int
    mc_name: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("Event end must be greater than start")

    @property
    def length(self) -> int:
        """Number of frames in the event."""
        return self.end - self.start

    def frames(self) -> range:
        """Frame indices covered by the event."""
        return range(self.start, self.end)


@dataclass(frozen=True)
class EventKey:
    """Globally unique identity of one detected event.

    ``Event.event_id`` alone is only unique within one detector instance:
    when a camera migrates, its pipeline is rebuilt on the destination node
    and the per-detector counter restarts from 0, so two distinct physical
    events could alias downstream.  ``session_epoch`` — bumped on every
    migration reattach — disambiguates them: the triple is stable across the
    whole fleet and across restarts.
    """

    camera_id: str
    session_epoch: int
    event_id: int

    def __post_init__(self) -> None:
        if self.session_epoch < 0:
            raise ValueError("session_epoch must be non-negative")
        if self.event_id < 0:
            raise ValueError("event_id must be non-negative")

    def __str__(self) -> str:
        return f"{self.camera_id}/e{self.session_epoch}/{self.event_id}"


@dataclass(frozen=True)
class EventRecord:
    """A closed event as a first-class, globally identified record.

    This is what an edge node ships to the datacenter — the product of the
    whole filtering pipeline.  Spans are half-open: stream positions
    ``start .. end-1`` (dense pushed order) and source frame indices
    ``source_start .. source_end-1`` (gappy under shedding) belong to the
    event.  ``closed_at`` is the simulated wall-clock time the run closed
    (i.e. when the record became available to publish); ``-1.0`` means the
    owning runtime has not stamped it yet.
    """

    key: EventKey
    mc_name: str
    start: int
    end: int
    source_start: int
    source_end: int
    peak_score: float
    closed_at: float = -1.0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("EventRecord end must be greater than start")
        if self.source_end <= self.source_start:
            raise ValueError("EventRecord source_end must be greater than source_start")

    @property
    def length(self) -> int:
        """Number of frames in the event (stream positions)."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-friendly form for delivery logs and reports."""
        return {
            "key": str(self.key),
            "camera": self.key.camera_id,
            "epoch": self.key.session_epoch,
            "event_id": self.key.event_id,
            "mc": self.mc_name,
            "start": self.start,
            "end": self.end,
            "source_start": self.source_start,
            "source_end": self.source_end,
            "peak_score": round(self.peak_score, 6),
            "closed_at": round(self.closed_at, 6),
        }


@dataclass(frozen=True)
class SmoothedDecision:
    """One finalized smoothed decision emitted by the online detector.

    ``event_id`` is the ID of the (possibly still open) event the frame
    belongs to, or ``None`` for negative frames.
    """

    frame_index: int
    smoothed: int
    event_id: int | None


class EventDetector:
    """Smooths one microclassifier's decisions and assembles events.

    Combines :class:`~repro.core.smoothing.KVotingSmoother` (N=5, K=2, per
    the paper) with a :class:`TransitionDetector` that assigns
    monotonically increasing event IDs.

    Two modes share the same ID counter and produce identical results:

    * **batch** — :meth:`detect` smooths a whole decision array at once;
    * **online** — :meth:`push` ingests one decision per frame, emitting
      smoothed decisions as their (clamped) voting window completes and
      closing events as runs end; :meth:`flush` finalizes the stream tail.
    """

    def __init__(self, mc_name: str) -> None:
        self.mc_name = mc_name
        self.smoother = KVotingSmoother()
        self.transition_detector = TransitionDetector()
        self._online_smoother = StreamingKVotingSmoother()
        self._position = 0
        self._open_start: int | None = None
        self._open_id: int | None = None
        self._flushed = False

    def detect(self, decisions: np.ndarray, frame_offset: int = 0) -> tuple[np.ndarray, list[Event]]:
        """Smooth raw per-frame decisions and return (smoothed, events)."""
        smoothed = self.smoother.smooth(decisions)
        raw_events = self.transition_detector.detect(smoothed, frame_offset=frame_offset)
        events = [Event(eid, self.mc_name, start, end) for eid, start, end in raw_events]
        return smoothed, events

    # -- online mode ---------------------------------------------------------
    def push(self, decision: int) -> tuple[list[SmoothedDecision], list[Event]]:
        """Ingest one raw per-frame decision.

        Returns ``(finalized, closed_events)``: the smoothed decisions this
        push finalized (possibly none — the voting window introduces a small
        lookahead) and any events whose runs ended.
        """
        if self._flushed:
            raise RuntimeError("EventDetector already flushed; push is no longer valid")
        return self._ingest(self._online_smoother.push(decision), final=False)

    def flush(self) -> tuple[list[SmoothedDecision], list[Event]]:
        """Finalize the stream: emit the smoothed tail and close any open event."""
        if self._flushed:
            raise RuntimeError("EventDetector already flushed")
        self._flushed = True
        return self._ingest(self._online_smoother.flush(), final=True)

    def _ingest(
        self, smoothed_values: list[int], final: bool
    ) -> tuple[list[SmoothedDecision], list[Event]]:
        finalized: list[SmoothedDecision] = []
        closed: list[Event] = []
        for value in smoothed_values:
            if value:
                if self._open_start is None:
                    self._open_start = self._position
                    self._open_id = self.transition_detector.allocate_event_id()
                event_id: int | None = self._open_id
            else:
                if self._open_start is not None:
                    closed.append(
                        Event(self._open_id, self.mc_name, self._open_start, self._position)
                    )
                    self._open_start = None
                    self._open_id = None
                event_id = None
            finalized.append(
                SmoothedDecision(frame_index=self._position, smoothed=int(value), event_id=event_id)
            )
            self._position += 1
        if final and self._open_start is not None:
            closed.append(Event(self._open_id, self.mc_name, self._open_start, self._position))
            self._open_start = None
            self._open_id = None
        return finalized, closed
