"""Outside-in wall-clock spans around the public ``repro`` API.

The traced rep of a workload wraps the public callables listed in
:data:`BOUNDARIES` -- class methods and module functions, never a
``_private`` name, never an edit under ``src/`` -- and records one span per
call: name, start, end and the span that was open when it started.  A
layer's *self time* is its span's duration minus the part of that interval
its child spans cover, so the self times of all spans in a rep add up to the
rep's wall clock exactly once.

Wrapping is undone when the traced rep ends (:meth:`Tracer.unwrap`): every
patched attribute is restored to the very object it held before.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# A boundary crossed more often than this in one rep keeps its aggregate
# (count, inclusive and self seconds) and drops its per-call spans:
# event_storm crosses four boundaries ~200k times each.
SPAN_CAP = 50_000

# span name -> public callables it is measured around ("module:owner.attr",
# or "module:function" for a module-level name).
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("video.render", "repro.video.synthetic:SurveillanceSceneGenerator.spawn_objects"),
    ("video.render", "repro.video.synthetic:SurveillanceSceneGenerator.render_stream"),
    ("video.codec", "repro.video.codec:H264Simulator.temporal_diffs"),
    ("video.codec", "repro.video.codec:H264Simulator.complexities_from_diffs"),
    ("video.codec", "repro.video.codec:H264Simulator.encode_precomputed"),
    ("nn.build", "repro.nn.model:Sequential.build"),
    # BatchedScorer calls the name it imported, so that is the one to wrap.
    ("nn.batched_forward", "repro.core.batched:batched_forward_with_taps"),
    ("nn.single_forward", "repro.nn.model:Sequential.forward_with_taps"),
    ("features.extract", "repro.features.extractor:FeatureExtractor.extract"),
    ("features.prime", "repro.features.extractor:FeatureExtractor.prime"),
    ("core.mc_forward", "repro.core.architectures:FullFrameObjectDetectorMC.predict_proba_batch"),
    ("core.mc_forward", "repro.core.architectures:LocalizedBinaryClassifierMC.predict_proba_batch"),
    ("core.mc_forward", "repro.core.architectures:WindowedLocalizedBinaryClassifierMC.predict_proba_batch"),
    # The streaming path scores a windowed MC through predict_window.
    ("core.mc_forward", "repro.core.architectures:WindowedLocalizedBinaryClassifierMC.predict_window"),
    ("core.push", "repro.core.streaming:StreamingPipeline.push"),
    ("core.finish", "repro.core.streaming:StreamingPipeline.finish"),
    ("core.stream_init", "repro.core.streaming:StreamingPipeline.__init__"),
    ("core.event_detect", "repro.core.events:EventDetector.push"),
    ("core.event_detect", "repro.core.events:EventDetector.flush"),
    ("core.prefetch", "repro.core.batched:BatchedScorer.prefetch"),
    ("core.prime", "repro.core.batched:BatchedScorer.prime"),
    ("fleet.start", "repro.fleet.runtime:FleetRuntime.start"),
    ("fleet.des", "repro.fleet.runtime:FleetRuntime.advance_until"),
    ("fleet.finalize", "repro.fleet.runtime:FleetRuntime.finalize"),
    ("fleet.telemetry_snapshot", "repro.fleet.telemetry:TelemetryRegistry.snapshot"),
    ("fleet.telemetry_merge", "repro.fleet.telemetry:TelemetryRegistry.merge"),
    ("fleet.placement", "repro.fleet.placement:PlacementPolicy.place"),
    ("fleet.cluster_report", "repro.fleet.sharding:ShardedFleetRuntime.run"),
    ("control.tick", "repro.control.loop:ControlLoop.tick"),
    ("control.tick", "repro.control.hierarchy:HierarchicalControlPlane.tick"),
    ("obs.scrape", "repro.obs.timeline:MetricsTimeline.scrape"),
    ("edge.upload", "repro.edge.uplink:ConstrainedUplink.upload"),
    ("edge.drain", "repro.edge.uplink:WorkConservingUplink.drain"),
    ("events.plan", "repro.events.broker:SimulatedBroker.plan"),
    ("events.offer", "repro.events.outbox:NodeOutbox.offer"),
    ("events.ingest", "repro.events.ingest:DatacenterIngest.ingest"),
)


def resolve(target: str) -> tuple[object, str]:
    """``"module:Class.attr"`` -> ``(Class, "attr")``; ``"module:fn"`` -> ``(module, "fn")``."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr.startswith("_") and not attr.startswith("__"):
        raise ValueError(f"{target} is not a public name")
    return owner, attr


def patch(owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> object:
    """Replace ``owner.attr`` by ``wrap(original)``; returns the raw original.

    The original is read from the owner's own namespace so that a
    ``staticmethod`` stays one and restoring it with ``setattr`` puts back
    the identical object.
    """
    raw = vars(owner)[attr]
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attr, wrap(raw))
    return raw


@contextmanager
def patched(owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    """``patch`` for the length of a ``with`` block."""
    raw = patch(owner, attr, wrap)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder for one traced rep (single-threaded)."""

    def __init__(
        self, span_cap: int = SPAN_CAP, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.span_cap = span_cap
        self.clock = clock
        # (name, start, end, parent index or -1); filled in when the call ends.
        self.spans: list[tuple[str, float, float, int] | None] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        # Open calls, innermost last: [seconds covered by children, span index].
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span called ``name``."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, cap, clock = self._stack, self.spans, self.span_cap, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if totals[0] < cap:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if index >= 0:
                    spans[index] = (name, start, end, int(parent[1]) if parent else -1)

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code.

        Same arithmetic as :meth:`traced`, which keeps its copy inline
        because it sits on the hot path of every wrapped call.
        """
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            elapsed = end - start
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += elapsed - frame[0]
            if parent is not None:
                parent[0] += elapsed
            self.spans[index] = (name, start, end, int(parent[1]) if parent else -1)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, owner: object, attr: str) -> None:
        """Trace ``owner.attr`` under ``name`` until :meth:`unwrap`."""
        raw = patch(owner, attr, lambda fn: self.traced(name, fn))
        self._patches.append((owner, attr, raw))

    def wrap_boundaries(self) -> None:
        """Trace every callable in :data:`BOUNDARIES`."""
        for name, target in BOUNDARIES:
            self.wrap(name, *resolve(target))

    def unwrap(self) -> None:
        """Restore every wrapped attribute to the object it held before."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return int(sum(self.totals.get(name, (0, 0.0, 0.0))[0] for name in names))

    def self_seconds(self, *names: str) -> float:
        return float(sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names))

    def durations(self, name: str) -> list[float]:
        """Inclusive per-call seconds of the kept spans called ``name``."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def kept_spans(self) -> list[tuple[int, str, float, float, int]]:
        """``(index, name, start, end, parent)`` of spans whose name stayed under the cap."""
        capped = {name for name, totals in self.totals.items() if totals[0] > self.span_cap}
        return [
            (index, *span)
            for index, span in enumerate(self.spans)
            if span is not None and span[0] not in capped
        ]

    def write_chrome_trace(self, path: str | Path, workload: str) -> Path:
        """Write the kept spans as Chrome trace-event JSON (loads in Perfetto)."""
        kept = self.kept_spans()
        origin = min((start for _, _, start, _, _ in kept), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "workload": workload},
            }
            for index, name, start, end, parent in kept
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path
