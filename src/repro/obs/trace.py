"""Frame-lifecycle tracing: deterministic span trees per sampled frame.

A :class:`Tracer` follows individual frames through the fleet runtime —
ingest, admission, queueing, the phased service schedule, and the uplink —
and records each one's lifecycle as a tree of :class:`Span`\\ s.  Tracing
every frame would dominate the simulation, so frames are *sampled*
deterministically: a frame is traced iff
``crc32(f"{camera_id}/{frame_index}") % sample_every == 0``.  The key uses
only stable identifiers (never object ids or wall-clock), so two runs with
the same seed trace exactly the same frames and produce bit-identical
output, and a frame keeps its sampling decision across a migration.

Span trees *telescope*: a traced frame's top-level children partition the
root interval (``queue`` ends where ``service`` starts, ``service`` ends
where ``upload_wait`` starts, …), so queue + service + uplink spans sum to
the frame's full ingest→upload latency by construction.  The per-stage
service sub-spans (decode / base DNN / MC batches) come from the worker
pool's :class:`~repro.edge.scheduler.PhasedSchedule`.

Export is Chrome trace-event JSON (``ph``/``ts``/``dur``/``pid``/``tid``),
loadable in ``chrome://tracing`` or Perfetto: one *process* per edge node,
one *thread* per camera, one complete ``X`` event per span plus instant
(``i``) events for admission decisions and drops.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "FrameTrace", "NodeTracer", "Tracer"]

# Trace-event timestamps are microseconds; round to 1e-3 us (ns) so the
# JSON stays tidy while remaining exact for simulated times.
_US_PER_SECOND = 1e6


def _us(seconds: float) -> float:
    """Seconds on the simulated clock -> trace-event microseconds."""
    return round(seconds * _US_PER_SECOND, 3)


@dataclass(frozen=True)
class Span:
    """One timed interval of a frame's lifecycle (children nest inside)."""

    name: str
    category: str
    start: float
    end: float
    children: tuple["Span", ...] = ()
    args: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"Span {self.name!r} ends before it starts")

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start

    def walk(self):
        """Yield this span, then every descendant depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class FrameTrace:
    """Mutable lifecycle record of one sampled frame on one node.

    The runtime fills fields in as events happen; :meth:`to_span` freezes
    the record into a telescoping span tree at export time.  A frame that
    was dropped simply never gets the later fields — the tree degrades
    gracefully (queue-only for an evicted frame, an instant for a frame
    rejected at the door).
    """

    camera_id: str
    frame_index: int
    arrival: float
    admitted: bool | None = None
    enqueued: bool = False
    dispatched_at: float | None = None
    phases: tuple[tuple[str, float, float], ...] = ()
    completed_at: float | None = None
    dropped_at: float | None = None
    drop_reason: str | None = None
    upload_description: str | None = None
    upload_start: float | None = None
    upload_end: float | None = None
    annotations: dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """When this frame's lifecycle ended (arrival if it never started)."""
        if self.upload_end is not None:
            return self.upload_end
        if self.completed_at is not None:
            return self.completed_at
        if self.dropped_at is not None:
            return self.dropped_at
        return self.arrival

    @property
    def end_to_end_seconds(self) -> float:
        """Full ingest→end latency of the frame."""
        return self.end - self.arrival

    def to_span(self) -> Span:
        """The frame's telescoping span tree (root covers arrival→end)."""
        children: list[Span] = []
        if self.dispatched_at is not None:
            children.append(Span("queue", "queue", self.arrival, self.dispatched_at))
            service_end = (
                self.completed_at if self.completed_at is not None else self.dispatched_at
            )
            phase_spans = tuple(
                Span(name, "service", start, end) for name, start, end in self.phases
            )
            children.append(
                Span("service", "service", self.dispatched_at, service_end, phase_spans)
            )
            if self.upload_start is not None and self.upload_end is not None:
                children.append(Span("upload_wait", "upload", service_end, self.upload_start))
                children.append(
                    Span(
                        "upload",
                        "upload",
                        self.upload_start,
                        self.upload_end,
                        args=(
                            {"description": self.upload_description}
                            if self.upload_description
                            else {}
                        ),
                    )
                )
        elif self.enqueued and self.dropped_at is not None:
            children.append(Span("queue", "queue", self.arrival, self.dropped_at))
        args: dict[str, object] = {
            "camera": self.camera_id,
            "frame_index": self.frame_index,
        }
        if self.admitted is not None:
            args["admitted"] = self.admitted
        if self.drop_reason is not None:
            args["drop_reason"] = self.drop_reason
        for key in sorted(self.annotations):
            args[key] = self.annotations[key]
        return Span(
            f"{self.camera_id}/frame{self.frame_index:05d}",
            "frame",
            self.arrival,
            self.end,
            tuple(children),
            args,
        )

    def unaccounted_seconds(self) -> float:
        """Root duration minus the sum of top-level children (≈0 by design)."""
        root = self.to_span()
        return root.duration - sum(child.duration for child in root.children)


class NodeTracer:
    """One edge node's view of the cluster :class:`Tracer`.

    :meth:`begin_frame` opens a sampled frame's :class:`FrameTrace` and
    hands it to the fleet runtime, the record's one writer (its upload
    included: the runtime holds each transfer with the frames it carries).
    """

    def __init__(self, tracer: "Tracer", node_id: str, pid: int) -> None:
        self.tracer = tracer
        self.node_id = node_id
        self.pid = pid
        self._traces: dict[tuple[str, int], FrameTrace] = {}

    def begin_frame(self, camera_id: str, frame_index: int, now: float) -> FrameTrace | None:
        """Open a lifecycle record at ingest if the frame is sampled (else None)."""
        if not self.tracer.sampled(camera_id, frame_index):
            return None
        trace = FrameTrace(camera_id=camera_id, frame_index=int(frame_index), arrival=now)
        self._traces[(camera_id, int(frame_index))] = trace
        return trace

    def trace(self, camera_id: str, frame_index: int) -> FrameTrace | None:
        """The lifecycle record of a frame on this node (None when not sampled)."""
        return self._traces.get((camera_id, int(frame_index)))

    def frame_traces(self) -> list[FrameTrace]:
        """All lifecycle records on this node, sorted by (camera, frame)."""
        return [self._traces[key] for key in sorted(self._traces)]


class Tracer:
    """Cluster-wide frame-lifecycle tracer with deterministic sampling.

    ``sample_every=N`` traces roughly one frame in N; ``sample_every=1``
    traces everything (tests).  Call :meth:`node` to get the per-node
    recording surface the runtimes write through, and
    :meth:`write_chrome_trace` (or :meth:`chrome_trace_json`) to export.
    """

    def __init__(self, sample_every: int = 64) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.sample_every = int(sample_every)
        self._nodes: dict[str, NodeTracer] = {}

    def sampled(self, camera_id: str, frame_index: int) -> bool:
        """Deterministic sampling decision keyed on camera id + frame index."""
        if self.sample_every == 1:
            return True
        key = f"{camera_id}/{int(frame_index)}".encode()
        return zlib.crc32(key) % self.sample_every == 0

    def node(self, node_id: str) -> NodeTracer:
        """The recording surface for ``node_id`` (created on first use).

        Process ids are assigned in creation order, so creating nodes in a
        fixed order (as the sharded runtime does) keeps exports stable.
        """
        if node_id not in self._nodes:
            self._nodes[node_id] = NodeTracer(self, node_id, pid=len(self._nodes) + 1)
        return self._nodes[node_id]

    @property
    def node_ids(self) -> list[str]:
        """Nodes that have a recording surface, in creation order."""
        return list(self._nodes)

    def frame_traces(self) -> list[FrameTrace]:
        """Every lifecycle record across all nodes (node order, then key)."""
        return [trace for node in self._nodes.values() for trace in node.frame_traces()]

    # -- Chrome trace-event export ---------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event object (``{"traceEvents": ...}``).

        One process per node, one thread per camera (sorted camera ids get
        ascending tids per node), one complete (``X``) event per span, and
        instant (``i``) events for ingest, admission, and drops.  Everything
        is emitted in a deterministic order.
        """
        events: list[dict] = []
        for node in self._nodes.values():
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": node.pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": f"edge {node.node_id}"},
                }
            )
            traces = node.frame_traces()
            cameras = sorted({trace.camera_id for trace in traces})
            tids = {camera_id: tid for tid, camera_id in enumerate(cameras, start=1)}
            for camera_id in cameras:
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": node.pid,
                        "tid": tids[camera_id],
                        "ts": 0,
                        "args": {"name": camera_id},
                    }
                )
            for trace in traces:
                pid, tid = node.pid, tids[trace.camera_id]
                for span in trace.to_span().walk():
                    event = {
                        "ph": "X",
                        "name": span.name,
                        "cat": span.category,
                        "ts": _us(span.start),
                        "dur": _us(span.duration),
                        "pid": pid,
                        "tid": tid,
                    }
                    if span.args:
                        event["args"] = dict(span.args)
                    events.append(event)
                events.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "name": "ingest",
                        "cat": "lifecycle",
                        "ts": _us(trace.arrival),
                        "pid": pid,
                        "tid": tid,
                    }
                )
                if trace.admitted is not None:
                    events.append(
                        {
                            "ph": "i",
                            "s": "t",
                            "name": "admission",
                            "cat": "lifecycle",
                            "ts": _us(trace.arrival),
                            "pid": pid,
                            "tid": tid,
                            "args": {"admitted": trace.admitted},
                        }
                    )
                if trace.dropped_at is not None:
                    events.append(
                        {
                            "ph": "i",
                            "s": "t",
                            "name": "dropped",
                            "cat": "lifecycle",
                            "ts": _us(trace.dropped_at),
                            "pid": pid,
                            "tid": tid,
                            "args": {"reason": trace.drop_reason},
                        }
                    )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_trace_json(self) -> str:
        """The trace as a deterministic JSON string."""
        return json.dumps(self.to_chrome_trace(), sort_keys=True, separators=(",", ":"))

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.chrome_trace_json() + "\n", encoding="utf-8")
        return path
