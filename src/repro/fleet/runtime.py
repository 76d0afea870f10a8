"""The multi-camera fleet runtime: simulated-clock streaming execution.

:class:`FleetRuntime` runs many cameras against one edge node under a
deterministic discrete-event simulation:

1. every camera's frames *arrive* on the simulated clock at its native frame
   rate (:class:`~repro.fleet.camera.CameraFeed`);
2. arrivals pass node-wide admission control and the camera's bounded
   :class:`~repro.fleet.queues.FrameQueue` (overload sheds load according to
   the queue's drop policy — backpressure made explicit);
3. a :class:`~repro.fleet.worker.WorkerPool` multiplexes queued frames
   through each camera's incremental
   :class:`~repro.core.streaming.StreamingPipeline`, spending the paper's
   phased per-frame schedule of simulated time per frame;
4. matched events are re-encoded and charged against one shared
   :class:`~repro.edge.uplink.ConstrainedUplink`;
5. every step feeds the :class:`~repro.fleet.telemetry.TelemetryRegistry`,
   and :meth:`FleetRuntime.run` returns a :class:`FleetReport` with
   per-camera and aggregate statistics.

Only the *clock* is simulated — frames really are scored by the NumPy
pipelines, so decisions, events, and upload bits are the true FilterForward
outputs for each camera's content.

Beyond ``run()``, the runtime exposes an *incremental* execution surface for
the control plane (:mod:`repro.control`): :meth:`FleetRuntime.start` /
:meth:`FleetRuntime.advance_until` / :meth:`FleetRuntime.finalize` let a
driver interleave several nodes on one clock and actuate between events —
live drop-policy changes (:meth:`set_drop_policy`), per-camera admission
quotas (:meth:`set_camera_quota`), and whole-camera handoff between nodes
(:meth:`detach_camera` / :meth:`attach_camera`, the migration mechanism).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
import math
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.core.architectures import build_microclassifier
from repro.core.batched import BatchedScorer
from repro.core.microclassifier import MicroClassifier, MicroClassifierConfig
from repro.core.events import EventRecord
from repro.core.pipeline import PipelineConfig
from repro.core.streaming import StreamingPipeline
from repro.fleet.accuracy import (
    ACCURACY_TASKS,
    CameraAccuracy,
    FleetAccuracy,
    predictions_from_result,
)
from repro.edge.scheduler import Phase, PhasedSchedule
from repro.edge.uplink import ConstrainedUplink, LinkPort
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor
from repro.fleet.camera import CameraFeed, CameraSpec, reject_duplicate_ids
from repro.fleet.queues import AdmissionController, DropPolicy, FrameQueue
from repro.fleet.telemetry import TelemetryRegistry, jain_fairness
from repro.fleet.worker import WorkerPool, default_schedule
from repro.obs.slo import SLOConfig, SLOReport, SLOTracker
from repro.obs.trace import FrameTrace, NodeTracer, Tracer
from repro.perf.cost_model import CostModel
from repro.video.frame import Frame

if TYPE_CHECKING:
    from repro.events.plane import DeliveryReport
    from repro.nn.model import Sequential

__all__ = [
    "FleetConfig",
    "CameraReport",
    "CameraLiveStats",
    "CameraHandoff",
    "FleetReport",
    "FleetRuntime",
    "default_pipeline_factory",
    "resolution_scaled_schedule",
]

PipelineFactory = Callable[[CameraSpec], StreamingPipeline]


@dataclass(frozen=True)
class FleetConfig:
    """Node-level knobs of the fleet runtime.

    ``uplink_capacity_bps`` sizes the uplink the runtime builds for itself;
    it is ignored when an ``uplink`` is injected into
    :class:`FleetRuntime` (as :class:`~repro.fleet.sharding.ShardedFleetRuntime`
    does with each node's slice of the shared datacenter link).

    ``resolution_scaled_service`` derives each camera's per-frame service
    time from the analytic cost model at *that camera's* resolution (the
    paper-calibrated schedule scaled by the multiply-add ratio against the
    paper's 1080p reference), so hosting decisions show up in compute, not
    just in frame rates.  Off by default: the flat paper schedule is the
    seed behaviour.

    ``accuracy_task`` switches the *accuracy plane* on: every camera's
    ground-truth labels for that task
    (:meth:`~repro.fleet.camera.CameraFeed.labels`) are threaded through
    arrival/completion accounting (live ``accuracy.*`` telemetry and
    truth-density stats for control policies), and
    :meth:`FleetRuntime.finalize` scores each camera's admitted-vs-dropped
    decisions with event F1 into :attr:`FleetReport.accuracy`.  Pair it
    with a trained pipeline factory
    (:meth:`repro.fleet.accuracy.TrainedMicroClassifiers.pipeline_factory`)
    for meaningful numbers.

    ``slo`` switches the *observability plane's* latency objectives on: the
    runtime tracks per-camera frame freshness and end-to-end latency against
    the configured targets (:class:`repro.obs.slo.SLOConfig`), reports each
    camera's error-budget status once, at the end of the run, in
    :attr:`FleetReport.slo`, and feeds ``slo.*`` violation counters into
    telemetry.  ``None`` (the default) keeps the hot path identical to a
    runtime without SLO accounting.

    ``batched_scoring`` (on by default) scores the frames in flight on the
    worker pool through one batched base-DNN forward per resident base DNN
    (:class:`repro.core.batched.BatchedScorer`) instead of one ``N=1``
    forward per camera.  The batched forward is bit-exact against the
    per-camera path, so every report, accuracy, telemetry, and trace output
    is bit-identical with the flag on or off — only wall-clock time changes.
    """

    num_workers: int = 4
    queue_capacity: int = 8
    drop_policy: DropPolicy = DropPolicy.DROP_OLDEST
    max_in_flight: int | None = None
    per_camera_quota: int | None = None
    service_time_scale: float = 1.0
    uplink_capacity_bps: float = 1_000_000.0
    resolution_scaled_service: bool = False
    accuracy_task: str | None = None
    slo: SLOConfig | None = None
    batched_scoring: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1 when set")
        if self.per_camera_quota is not None and self.per_camera_quota < 1:
            raise ValueError("per_camera_quota must be at least 1 when set")
        # Written so that a NaN fails each guard.
        if not 0 < self.service_time_scale < math.inf:
            raise ValueError("service_time_scale must be positive and finite")
        if not 0 < self.uplink_capacity_bps < math.inf:
            raise ValueError("uplink_capacity_bps must be positive and finite")
        if self.accuracy_task is not None and self.accuracy_task not in ACCURACY_TASKS:
            raise ValueError(
                f"Unknown accuracy_task {self.accuracy_task!r}; "
                f"expected one of {ACCURACY_TASKS}"
            )


def resolution_scaled_schedule(base: PhasedSchedule, resolution: tuple[int, int]) -> PhasedSchedule:
    """Scale a paper-calibrated schedule to a camera's resolution.

    Every phase is multiplied by the multiply-add ratio between the camera's
    resolution and the cost model's paper reference (1080p), so a 96x64
    camera costs twice the compute of a 64x48 one — the property placement
    and migration quality are measured against.
    """
    camera_model = CostModel(resolution=resolution)
    reference_model = CostModel()
    mc = "localized"
    camera_ops = camera_model.base_dnn_cost() + camera_model.mc_cost(mc)
    reference_ops = reference_model.base_dnn_cost() + reference_model.mc_cost(mc)
    ratio = camera_ops / reference_ops
    return PhasedSchedule(
        phases=tuple(
            Phase(name=p.name, start=p.start * ratio, duration=p.duration * ratio)
            for p in base.phases
        )
    )


class _SessionRecipe:
    """The fleet's per-camera session, stated once; only the head varies.

    One thin MobileNet-like base DNN (seed 0) is built per distinct camera
    resolution and shared by every camera at that resolution (the
    FilterForward computation-sharing premise).  Each camera gets its own
    feature-map cache of four frames on ``conv2_2/sep`` and one
    microclassifier head, the only per-application part (paper §3.1).  A
    batch of one keeps the streaming decision latency at the smoothing
    lookahead alone.
    """

    TAP = "conv2_2/sep"
    ALPHA = 0.125

    def __init__(self, alpha: float = ALPHA) -> None:
        self.alpha = alpha
        self._base_dnns: dict[tuple[int, int], Sequential] = {}

    def extractor(self, spec: CameraSpec) -> FeatureExtractor:
        """A fresh feature-map cache over the shared base DNN at ``spec``'s resolution."""
        key = (spec.height, spec.width)
        if key not in self._base_dnns:
            self._base_dnns[key] = build_mobilenet_like(
                (spec.height, spec.width, 3), alpha=self.alpha, rng=np.random.default_rng(0)
            )
        return FeatureExtractor(self._base_dnns[key], [self.TAP], cache_size=4)

    def head(
        self,
        architecture: str,
        name: str,
        extractor: FeatureExtractor,
        rng: np.random.Generator,
        threshold: float = 0.5,
    ) -> MicroClassifier:
        """An untrained ``architecture`` microclassifier on the recipe's tap."""
        config = MicroClassifierConfig(
            name=name, input_layer=self.TAP, threshold=threshold, upload_bitrate=12_000.0
        )
        return build_microclassifier(
            architecture, config, extractor.layer_shape(self.TAP), rng=rng
        )

    def session(
        self, spec: CameraSpec, extractor: FeatureExtractor, mc: MicroClassifier
    ) -> StreamingPipeline:
        """One camera's streaming session running ``mc`` over ``extractor``."""
        return StreamingPipeline(
            extractor,
            [mc],
            config=PipelineConfig(batch_size=1),  # the paper's N=5, K=2 smoothing
            frame_rate=spec.frame_rate,
            resolution=spec.resolution,
        )


def default_pipeline_factory(
    alpha: float = _SessionRecipe.ALPHA, threshold: float = 0.6
) -> PipelineFactory:
    """Build the default per-camera pipeline factory.

    Every camera's session follows the fleet recipe (:class:`_SessionRecipe`)
    with one untrained localized binary microclassifier, seeded per camera.
    """
    recipe = _SessionRecipe(alpha)

    def factory(spec: CameraSpec) -> StreamingPipeline:
        extractor = recipe.extractor(spec)
        mc = recipe.head(
            "localized",
            f"{spec.camera_id}/primary",
            extractor,
            np.random.default_rng(zlib.crc32(spec.camera_id.encode()) % 10_000),
            threshold,
        )
        return recipe.session(spec, extractor, mc)

    return factory


@dataclass
class CameraReport:
    """One camera's end-of-run accounting."""

    camera_id: str
    scenario: str
    resolution: tuple[int, int]
    frame_rate: float
    frames_generated: int = 0
    frames_admitted: int = 0
    frames_dropped_oldest: int = 0
    frames_dropped_newest: int = 0
    frames_rejected: int = 0
    frames_scored: int = 0
    matched_frames: int = 0
    events: int = 0
    queue_high_water: int = 0
    mean_queue_wait_seconds: float = 0.0
    uploaded_bits: float = 0.0

    @property
    def frames_dropped(self) -> int:
        """Frames lost to queue drops."""
        return self.frames_dropped_oldest + self.frames_dropped_newest

    @property
    def frames_lost(self) -> int:
        """All frames that never reached the pipeline."""
        return self.frames_dropped + self.frames_rejected

    @property
    def drop_rate(self) -> float:
        """Fraction of generated frames lost before scoring."""
        if self.frames_generated == 0:
            return 0.0
        return self.frames_lost / self.frames_generated


@dataclass(frozen=True)
class CameraLiveStats:
    """A point-in-time view of one hosted camera, for control policies."""

    camera_id: str
    resolution: tuple[int, int]
    frame_rate: float
    generated: int
    scored: int
    matched: int
    service_seconds: float
    drop_policy: DropPolicy = DropPolicy.DROP_OLDEST
    truth_known: bool = False
    truth_positive_generated: int = 0
    truth_positive_scored: int = 0
    estimated_upload_bits: float = 0.0
    threshold: float = 0.0
    # Simulated time this hosting stint began: counters reset with each
    # stint, so controllers keeping windowed baselines compare this to spot
    # a migrate-away-and-return and restart their windows.
    attached_at: float = 0.0

    @property
    def match_density(self) -> float:
        """Matched fraction of scored frames — the camera's event value."""
        return self.matched / self.scored if self.scored else 0.0

    @property
    def upload_bits_per_scored_frame(self) -> float:
        """Estimated uplink bits this camera costs per frame it gets scored.

        Derived from the live per-match bit estimate
        (:attr:`estimated_upload_bits`), so an event-dense camera at a high
        upload bitrate reads as upload-heavy long before the end-of-run
        upload replay runs — the signal uplink-aware shedding ranks on.
        """
        return self.estimated_upload_bits / self.scored if self.scored else 0.0

    @property
    def truth_density(self) -> float:
        """Ground-truth positive fraction of generated frames so far.

        Only meaningful when the accuracy plane is on
        (:attr:`FleetConfig.accuracy_task`, signalled by
        :attr:`truth_known`); the shedding controller can rank cameras by
        this instead of the noisier :attr:`match_density` proxy.
        """
        return self.truth_positive_generated / self.generated if self.generated else 0.0


@dataclass(frozen=True)
class CameraHandoff:
    """A detached camera ready to be attached to another node.

    Carries the spec *and* the feed object, whose lazily-rendered stream is
    cached — the destination node replays the arrivals from ``next_frame``
    (the ended stint's cursor: every frame before it was offered to, or
    charged against, some node) without re-rendering the scene.
    ``session_epoch`` is the epoch of the stint that just ended; the
    destination installs the camera at ``epoch + 1`` so the rebuilt detector's
    restarted event-ID counter never aliases global event keys across it.
    """

    spec: CameraSpec
    feed: CameraFeed
    detached_at: float
    next_frame: int
    session_epoch: int = 0


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet run."""

    cameras: dict[str, CameraReport]
    sim_duration: float
    frames_generated: int
    frames_scored: int
    frames_dropped: int
    frames_rejected: int
    events_detected: int
    matched_frames: int
    achieved_fps: float
    offered_fps: float
    worker_utilization: float
    uplink_utilization: float
    uplink_backlog_seconds: float
    total_uploaded_bits: float
    telemetry: dict[str, object] = field(default_factory=dict)
    accuracy: FleetAccuracy | None = None
    slo: SLOReport | None = None
    # Delivery surface: a run published through an event delivery plane
    # attaches this node's DeliveryReport here (see repro.events.plane).
    delivery: "DeliveryReport | None" = None

    @property
    def num_cameras(self) -> int:
        """Cameras in the fleet."""
        return len(self.cameras)

    @property
    def drop_rate(self) -> float:
        """Fraction of generated frames shed (queue drops + admission)."""
        if self.frames_generated == 0:
            return 0.0
        return (self.frames_dropped + self.frames_rejected) / self.frames_generated

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-camera scored fractions.

        1.0 means every camera had the same share of its frames scored; the
        lower bound 1/num_cameras means one camera got everything.
        """
        return jain_fairness(
            c.frames_scored / c.frames_generated
            for c in self.cameras.values()
            if c.frames_generated > 0
        )

    @property
    def starved_cameras(self) -> int:
        """Cameras that generated frames but never got one scored."""
        return sum(
            1 for c in self.cameras.values() if c.frames_generated > 0 and c.frames_scored == 0
        )

    def summary(self) -> str:
        """A multi-line human-readable run summary."""
        lines = [
            f"fleet: {self.num_cameras} cameras, {self.frames_generated} frames offered "
            f"({self.offered_fps:.1f} fps aggregate)",
            f"scored {self.frames_scored} frames ({self.achieved_fps:.1f} fps) | "
            f"shed {self.frames_dropped} dropped + {self.frames_rejected} rejected "
            f"({self.drop_rate:.1%})",
            f"events {self.events_detected} | matched frames {self.matched_frames} | "
            f"uploaded {self.total_uploaded_bits / 8 / 1024:.1f} KiB",
            f"workers {self.worker_utilization:.1%} busy | uplink {self.uplink_utilization:.1%} "
            f"utilized, backlog {self.uplink_backlog_seconds:.2f}s | "
            f"sim {self.sim_duration:.2f}s",
            f"fairness {self.fairness_index:.3f} (Jain) | "
            f"starved cameras {self.starved_cameras}/{self.num_cameras}",
        ]
        if self.accuracy is not None:
            lines.append(self.accuracy.summary())
        if self.slo is not None:
            lines.append(self.slo.summary())
        if self.delivery is not None:
            lines.append(self.delivery.summary())
        return "\n".join(lines)


@dataclass
class _CameraState:
    """Mutable per-camera bookkeeping inside the event loop.

    One state covers one *stint* of a camera on this node; a camera that
    migrates away and later returns gets a fresh state under a new key.
    The stint is data plus pure derivations of it (live stats, event
    uploads); the runtime is the only actor.
    """

    key: str
    spec: CameraSpec
    feed: CameraFeed
    queue: FrameQueue[_Ticket]
    session: StreamingPipeline
    schedule: PhasedSchedule | None = None
    # Estimated uplink bits one matched frame will cost, per MC name
    # (bitrate / frame rate); precomputed at install so the completion hot
    # path does a lookup, not a dict rebuild.
    upload_bits_per_match: dict[str, float] = field(default_factory=dict)
    truth: np.ndarray | None = None
    truth_positive_generated: int = 0
    truth_positive_scored: int = 0
    attached_at: float = 0.0
    detached_at: float | None = None
    session_epoch: int = 0  # the stint's epoch in the global event key
    next_frame: int = 0  # the cursor: the stint's next arrival, its only one on the heap
    sequence_offset: int = 0  # + a frame's index = the heap sequence reserved for its arrival
    completion_times: list[float] = field(default_factory=list)
    wait_total: float = 0.0
    wait_count: int = 0
    estimated_upload_bits: float = 0.0
    uploaded_bits: float = 0.0
    generated: int = 0
    rejected: int = 0
    admitted: int = 0
    dropped_oldest: int = 0
    dropped_newest: int = 0
    queue_high_water: int = 0
    scored: int = 0
    matched: int = 0
    events: int = 0

    @property
    def camera_id(self) -> str:
        """The hosted camera; ``key`` tells its stints on this node apart."""
        return self.spec.camera_id

    @property
    def stint_end(self) -> float:
        """When the stint stopped offering frames: its detach, or the feed's end."""
        if self.detached_at is not None:
            return self.detached_at
        return self.spec.start_time + self.spec.duration

    def live_stats(self, service_seconds: float) -> CameraLiveStats:
        """The stint's point-in-time view, for control policies."""
        return CameraLiveStats(
            camera_id=self.camera_id,
            resolution=self.spec.resolution,
            frame_rate=self.spec.frame_rate,
            generated=self.generated,
            scored=self.scored,
            matched=self.matched,
            service_seconds=service_seconds,
            drop_policy=self.queue.policy,
            truth_known=self.truth is not None,
            truth_positive_generated=self.truth_positive_generated,
            truth_positive_scored=self.truth_positive_scored,
            estimated_upload_bits=self.estimated_upload_bits,
            threshold=self.session.current_threshold(),
            attached_at=self.attached_at,
        )

    def event_uploads(self, result) -> Iterator[tuple[float, str, float, Sequence[int]]]:
        """``(available_at, description, bits, source frame indices)`` per detected event."""
        for mc_result in result.per_mc.values():
            for event in mc_result.events:
                # An event is available once its last frame is scored.  That
                # frame was dispatched no earlier than it arrived (captured)
                # and then served for a positive time, so scoring always
                # comes after capture; under overload it lags by the queue wait.
                description = f"{self.key}/{mc_result.mc_name}/event{event.event_id}"
                yield (
                    self.completion_times[event.end - 1],
                    description,
                    mc_result.event_bits(event),
                    self.session.source_indices[event.start : event.end],
                )


def _camera_report(stints: Sequence[_CameraState]) -> CameraReport:
    """One camera's report: the summed tallies of its stints on this node."""
    spec = stints[0].spec
    wait_count = sum(s.wait_count for s in stints)
    return CameraReport(
        camera_id=spec.camera_id,
        scenario=spec.scenario,
        resolution=spec.resolution,
        frame_rate=spec.frame_rate,
        frames_generated=sum(s.generated for s in stints),
        frames_admitted=sum(s.admitted for s in stints),
        frames_dropped_oldest=sum(s.dropped_oldest for s in stints),
        frames_dropped_newest=sum(s.dropped_newest for s in stints),
        frames_rejected=sum(s.rejected for s in stints),
        frames_scored=sum(s.scored for s in stints),
        matched_frames=sum(s.matched for s in stints),
        events=sum(s.events for s in stints),
        queue_high_water=max(s.queue_high_water for s in stints),
        mean_queue_wait_seconds=(
            sum(s.wait_total for s in stints) / wait_count if wait_count else 0.0
        ),
        uploaded_bits=sum(s.uploaded_bits for s in stints),
    )


@dataclass(eq=False)
class _Ticket:
    """One admitted frame: what queue, workers and completion event pass on."""

    stint: _CameraState
    frame: Frame
    arrived_at: float
    holds_slot: bool  # an admission slot, released when the frame is scored or shed
    trace: FrameTrace | None  # the sampled frame's lifecycle record, which the runtime writes


class FleetRuntime:
    """Runs a camera fleet through one edge node on a simulated clock."""

    def __init__(
        self,
        cameras: Sequence[CameraSpec],
        pipeline_factory: PipelineFactory | None = None,
        config: FleetConfig | None = None,
        uplink: LinkPort | None = None,
        tracer: Tracer | NodeTracer | None = None,
        event_sink: Callable[[EventRecord], None] | None = None,
    ) -> None:
        if not cameras:
            raise ValueError("FleetRuntime requires at least one camera")
        reject_duplicate_ids(cameras)
        self.cameras = list(cameras)
        self.config = config or FleetConfig()
        self.telemetry = TelemetryRegistry()
        self.pipeline_factory = pipeline_factory or default_pipeline_factory()
        self.workers = WorkerPool(
            num_workers=self.config.num_workers,
            schedule=default_schedule(),
            service_time_scale=self.config.service_time_scale,
            telemetry=self.telemetry,
        )
        # An injected uplink is this node's port on a datacenter link it
        # shares with other nodes (``links[node]`` of a WorkConservingUplink);
        # its ``capacity_bps`` is the node's guarantee.
        self.uplink = uplink if uplink is not None else ConstrainedUplink(
            self.config.uplink_capacity_bps
        )
        # A fleet-level Tracer is resolved to this node's NodeTracer so the
        # standalone single-node case needs no node bookkeeping from callers;
        # the sharded runtime passes each node its NodeTracer directly.
        if isinstance(tracer, Tracer):
            tracer = tracer.node("node0")
        self.tracer = tracer
        self.slo = SLOTracker(self.config.slo) if self.config.slo is not None else None
        if self.config.max_in_flight is not None or self.config.per_camera_quota is not None:
            # A quota without an explicit node budget still needs a total cap
            # for the controller; quota * num_cameras is the loosest bound.
            max_in_flight = (
                self.config.max_in_flight
                if self.config.max_in_flight is not None
                else self.config.per_camera_quota * len(self.cameras)
            )
            self.admission = AdmissionController(
                max_in_flight, per_camera_quota=self.config.per_camera_quota
            )
        else:
            self.admission = None
        # Event delivery: every closed EventRecord is collected (stamped with
        # its close time) into event_records; when a publish hook is attached
        # — at construction or later, e.g. by an EventDeliveryPlane — each
        # record is handed to it as well.  With no sink attached the run's
        # telemetry is byte-identical to a runtime predating the delivery plane.
        self.event_sink = event_sink
        self.event_records: list[EventRecord] = []
        # Cross-camera batched scoring: the tickets the workers hold (frames
        # in service, awaiting their completion event) are what the scorer
        # batches through one base-DNN forward per resident base DNN;
        # bit-exact, so it changes wall-clock time and nothing else.
        self.batched = BatchedScorer() if self.config.batched_scoring else None
        self._in_service: list[_Ticket] = []
        self._states: dict[str, _CameraState] = {}  # every stint by key, in hosting order
        self._active: dict[str, _CameraState] = {}  # camera_id -> the stint it is in now
        self._schedules: dict[tuple[int, int], PhasedSchedule] = {}
        self._stints: dict[str, int] = {}  # camera_id -> stints installed so far
        # One "arrival" (of a Frame) per active stint, one "completion" (of a _Ticket) per frame
        # in service, one "end_of_feed" per detached stint; the unique sequence settles ties.
        self._heap: list[tuple[float, int, str, _CameraState, Frame | _Ticket | None]] = []
        self._sequence = 0
        self._last_event_time = 0.0
        self._horizon = 0.0  # the latest feed end of any stint installed so far
        self._round_robin = 0
        self._starved = 0  # cameras with arrivals but no scored frame yet
        self._started = False
        self._closed: tuple | None = None  # close()'s tallies, kept for finalize()
        self._finalized = False

    # -- orchestration -------------------------------------------------------
    def run(self) -> FleetReport:
        """Execute the whole fleet to completion and assemble the report."""
        self.start()
        self.advance_until(math.inf)
        return self.finalize()

    def start(self) -> None:
        """Install every camera and schedule its first arrival (idempotent guard).

        Reading that frame renders the whole feed: eagerly, on purpose (docs/FLEET.md).
        """
        if self._started:
            raise RuntimeError("FleetRuntime.start() may only be called once")
        self._started = True
        for spec in self.cameras:
            self._install_camera(spec, CameraFeed(spec), 0.0, session_epoch=0, next_frame=0)

    @property
    def has_pending_events(self) -> bool:
        """Whether any arrival or completion remains to be processed."""
        return bool(self._heap)

    @property
    def horizon(self) -> float:
        """Latest feed end time across every camera ever hosted here."""
        return self._horizon

    def advance_until(self, until: float) -> None:
        """Process every pending event with timestamp ``<= until``."""
        if not self._started:
            raise RuntimeError("call start() before advance_until()")
        while self._heap and self._heap[0][0] <= until:
            now, _, kind, state, payload = heapq.heappop(self._heap)
            self._last_event_time = max(self._last_event_time, now)
            if kind == "arrival":
                state.next_frame += 1
                self._schedule_arrival(state)
                self._on_arrival(state, payload, now)
            elif kind == "completion":
                self._on_completion(payload, now)
            else:  # "end_of_feed" of a camera that migrated away: only the clock moves (yet)
                continue
            self._dispatch(now)

    # -- camera installation and handoff -------------------------------------
    def _schedule_for(self, spec: CameraSpec) -> PhasedSchedule | None:
        if not self.config.resolution_scaled_service:
            return None
        if spec.resolution not in self._schedules:
            self._schedules[spec.resolution] = resolution_scaled_schedule(
                self.workers.schedule, spec.resolution
            )
        return self._schedules[spec.resolution]

    def _schedule_arrival(self, state: _CameraState) -> None:
        """Put the stint's next arrival on the heap, unless its feed is spent."""
        feed, index = state.feed, state.next_frame
        if index < len(feed):
            at, sequence = feed.arrival_time(index), state.sequence_offset + index
            heapq.heappush(self._heap, (at, sequence, "arrival", state, feed.stream[index]))

    def _install_camera(
        self, spec: CameraSpec, feed: CameraFeed, now: float, session_epoch: int, next_frame: int
    ) -> _CameraState:
        """Begin a stint at ``next_frame``: its queue, its session, its first arrival."""
        stint = self._stints.get(spec.camera_id, 0)
        self._stints[spec.camera_id] = stint + 1
        key = spec.camera_id if stint == 0 else f"{spec.camera_id}#{stint}"
        state = _CameraState(
            key=key,
            spec=spec,
            feed=feed,
            queue=FrameQueue(self.config.queue_capacity, self.config.drop_policy),
            session=self.pipeline_factory(spec),
            schedule=self._schedule_for(spec),
            truth=(
                feed.labels(self.config.accuracy_task).labels
                if self.config.accuracy_task is not None
                else None
            ),
            attached_at=now,
            session_epoch=session_epoch,
            next_frame=next_frame,
        )
        state.upload_bits_per_match = {
            mc.name: mc.config.upload_bitrate / spec.frame_rate
            for mc in state.session.microclassifiers
        }
        state.session.bind_identity(spec.camera_id, session_epoch)
        self._states[key] = state
        self._active[spec.camera_id] = state
        self._horizon = max(self._horizon, spec.start_time + spec.duration)
        # Reserve the sequence numbers that pushing all its arrivals now would take: the
        # (time, sequence) pop order is the same with only the next one on the heap.
        state.sequence_offset = self._sequence - next_frame
        self._sequence += len(feed) - next_frame
        self._schedule_arrival(state)
        return state

    def _hosted(self, camera_id: str) -> _CameraState:
        """The stint ``camera_id`` is in on this node right now."""
        state = self._active.get(camera_id)
        if state is None:
            raise ValueError(f"Camera {camera_id!r} is not active on this node")
        return state

    def detach_camera(self, camera_id: str, now: float) -> CameraHandoff:
        """Stop hosting ``camera_id`` and hand its remaining feed over.

        Frames already queued keep draining here (they were decoded on this
        node); the feed from the stint's cursor on is the destination's to
        admit.
        """
        state = self._hosted(camera_id)
        state.detached_at = now
        del self._active[camera_id]
        last = len(state.feed) - 1
        if state.next_frame <= last:
            # An end-of-feed marker, keyed as the feed's last arrival, replaces the pending one;
            # it keeps this node's clock and ``has_pending_events`` (``drive``'s ticks) alive.
            at, sequence = state.feed.arrival_time(last), state.sequence_offset + last
            self._heap = [e for e in self._heap if e[2] != "arrival" or e[3] is not state]
            self._heap.append((at, sequence, "end_of_feed", state, None))
            heapq.heapify(self._heap)
        if state.generated and not state.scored:
            self._starved -= 1  # a detached stint no longer counts as starved
            self._record_starvation()
        # Any shedding override belongs to this hosting stint; a camera that
        # later returns starts from the node's default quota.
        if self.admission is not None:
            self.admission.set_camera_quota(camera_id, None)
        return CameraHandoff(
            spec=state.spec,
            feed=state.feed,
            detached_at=now,
            next_frame=state.next_frame,
            session_epoch=state.session_epoch,
        )

    def attach_camera(
        self, handoff: CameraHandoff, now: float, resume_time: float | None = None
    ) -> None:
        """Start hosting a handed-off camera from ``resume_time`` onward.

        Arrivals from the handoff's cursor up to ``resume_time`` — the migration
        blackout — are charged to this node, once, as generated-and-rejected
        (the explicit migration cost), plus a ``frames.migration_blackout`` counter.
        """
        if not self._started:
            raise RuntimeError("call start() before attach_camera()")
        camera_id = handoff.spec.camera_id
        if camera_id in self._active:
            raise ValueError(f"Camera {camera_id!r} is already active on this node")
        resume_time = resume_time if resume_time is not None else now
        if resume_time < handoff.detached_at:
            raise ValueError("resume_time cannot precede the detach time")
        feed, first = handoff.feed, handoff.next_frame
        resume = bisect_left(range(len(feed)), resume_time, lo=first, key=feed.arrival_time)
        state = self._install_camera(
            handoff.spec, feed, now, session_epoch=handoff.session_epoch + 1, next_frame=resume
        )
        blackout = resume - first
        if blackout:
            state.generated = state.rejected = blackout
            self.telemetry.counter("frames.generated").inc(blackout)
            self.telemetry.counter("frames.rejected").inc(blackout)
            self.telemetry.counter("frames.migration_blackout").inc(blackout)
            if state.truth is not None and (positives := int(state.truth[first:resume].sum())):
                state.truth_positive_generated = positives
                self.telemetry.counter("accuracy.truth_positive_generated").inc(positives)
            self._slo_lost(camera_id, blackout)
            self._starved += 1  # the new stint was offered frames and scored none
            self._record_starvation()

    # -- control actuators ---------------------------------------------------
    def hosted_cameras(self) -> list[str]:
        """Currently active camera ids, in hosting order."""
        return list(self._active)

    def set_drop_policy(self, camera_id: str, policy: DropPolicy) -> None:
        """Switch one camera's queue overload policy live."""
        self._hosted(camera_id).queue.set_policy(policy)

    def set_camera_quota(self, camera_id: str, quota: int | None) -> None:
        """Override (or with ``None`` restore) one camera's in-flight quota."""
        self._hosted(camera_id)  # refuse before an admission controller is created
        if self.admission is None:  # created loose: the quota binds, the node budget does not
            self.admission = AdmissionController(max_in_flight=1_000_000_000)
        self.admission.set_camera_quota(camera_id, quota)

    def set_camera_threshold(self, camera_id: str, threshold: float) -> None:
        """Set one camera's live decision threshold (runtime threshold drift).

        Targets the camera's *primary* (first-installed) microclassifier —
        the same one :attr:`CameraLiveStats.threshold` reports, so the drift
        controller's feedback loop observes exactly what it actuates; a
        multi-MC session's other thresholds are untouched.  Actuates on the
        camera's *session*, so the trained microclassifier a cache shares
        across sessions keeps its calibrated threshold; the override also
        does not survive a migration handoff (the destination builds a fresh
        session), which is deliberate — the drift controller re-derives it
        from the new stint's live densities.
        """
        session = self._hosted(camera_id).session
        session.set_threshold(threshold, mc_name=session.microclassifiers[0].name)
        self.telemetry.gauge(f"accuracy.threshold.{camera_id}").set(threshold)

    def camera_live_stats(self) -> dict[str, CameraLiveStats]:
        """Point-in-time stats for every active camera (id order)."""
        stats: dict[str, CameraLiveStats] = {}
        for camera_id in sorted(self._active):
            state = self._active[camera_id]
            stats[camera_id] = state.live_stats(
                service_seconds=self.workers.service_seconds_for(state.schedule)
            )
        return stats

    # -- event handlers ------------------------------------------------------
    def _on_arrival(self, state: _CameraState, frame: Frame, now: float) -> None:
        counters = self.telemetry
        camera_id = state.camera_id
        state.generated += 1
        if state.generated == 1:
            self._starved += 1  # offered a frame, scored none yet
        counters.counter("frames.generated").inc()
        if state.truth is not None and state.truth[frame.index]:
            state.truth_positive_generated += 1
            counters.counter("accuracy.truth_positive_generated").inc()
        tracer = self.tracer
        trace = tracer.begin_frame(camera_id, frame.index, now) if tracer is not None else None
        if self.admission is not None and not self.admission.try_admit(camera_id):
            state.rejected += 1
            counters.counter("frames.rejected").inc()
            if trace is not None:
                trace.admitted = False
                trace.dropped_at, trace.drop_reason = now, "admission_rejected"
            self._slo_lost(camera_id, 1)
            self._record_starvation()
            return
        ticket = _Ticket(state, frame, now, holds_slot=self.admission is not None, trace=trace)
        if trace is not None and ticket.holds_slot:
            trace.admitted = True
        outcome = state.queue.offer(ticket)
        if outcome.admitted:
            state.admitted += 1
            state.queue_high_water = max(state.queue_high_water, state.queue.depth)
            counters.counter("frames.admitted").inc()
            if trace is not None:
                trace.enqueued = True
        evicted = outcome.evicted  # the queue's head (DROP_OLDEST), or this ticket (NEWEST)
        if evicted is not None:
            if outcome.admitted:
                state.dropped_oldest += 1
                dropped, reason = "frames.dropped_oldest", "evicted_oldest"
            else:
                state.dropped_newest += 1
                dropped, reason = "frames.dropped_newest", "dropped_newest"
            counters.counter(dropped).inc()
            if evicted.trace is not None:
                evicted.trace.dropped_at, evicted.trace.drop_reason = now, reason
            self._release_admission(evicted)
            self._slo_lost(camera_id, 1)
        self._record_depth(state)
        self._record_starvation()

    def _release_admission(self, ticket: _Ticket) -> None:
        """Release the admission slot a ticket holds, if it holds one."""
        if ticket.holds_slot:  # only ever set under an admission controller
            ticket.holds_slot = False
            self.admission.release(ticket.stint.camera_id)

    def _slo_lost(self, camera_id: str, count: int) -> None:
        """Charge ``count`` lost frames against a camera's freshness budget."""
        if self.slo is None or count <= 0:
            return
        self.slo.record_lost(camera_id, count)
        self.telemetry.counter("slo.freshness_violations").inc(count)

    def _on_completion(self, ticket: _Ticket, now: float) -> None:
        counters = self.telemetry
        state, frame, trace = ticket.stint, ticket.frame, ticket.trace
        self._in_service.remove(ticket)
        if self.batched is not None:
            if not self.batched.has(state.session, frame):
                # Batch this frame with every other frame still in service:
                # their completion events are already on the heap, so all of
                # them will be pushed regardless of what happens between now
                # and then — prefetching their (frozen-weight) activations
                # early is observationally invisible.
                batch = (ticket, *self._in_service)
                self.batched.prefetch((t.stint.session, t.frame) for t in batch)
            self.batched.prime(state.session, frame)
        update = state.session.push(frame)
        state.completion_times.append(now)
        if trace is not None:
            trace.completed_at = now
            trace.annotations["stream_position"] = state.scored
        state.scored += 1
        if state.scored == 1 and state.detached_at is None:
            self._starved -= 1
        state.matched += len(update.new_matches)
        state.events += len(update.closed_records)
        counters.counter("frames.scored").inc()
        if state.truth is not None and state.truth[frame.index]:
            state.truth_positive_scored += 1
            counters.counter("accuracy.truth_positive_scored").inc()
        if update.new_matches:
            counters.counter("frames.matched").inc(len(update.new_matches))
            if self.tracer is not None:
                for mc_name, position in update.new_matches:
                    index = state.session.source_indices[position]
                    if (matched := self.tracer.trace(state.camera_id, index)) is not None:
                        matched.annotations[f"matched.{mc_name}"] = position
            # Live uplink-demand estimate: a matched frame will eventually
            # upload ~bitrate/frame_rate bits (the codec targets the MC's
            # upload bitrate at the camera's frame rate).  Tracked per camera
            # and node-wide so uplink-aware control can see upload pressure
            # building *during* the run, not just in the end-of-run replay.
            estimate = sum(
                state.upload_bits_per_match[mc_name] for mc_name, _ in update.new_matches
            )
            state.estimated_upload_bits += estimate
            counters.counter("uplink.estimated_bits").inc(estimate)
        if update.closed_records:
            counters.counter("events.closed").inc(len(update.closed_records))
            self._collect_records(update.closed_records, now)
        self._release_admission(ticket)
        self._record_depth(state)  # admission.in_flight just fell
        self._record_starvation()

    def _collect_records(self, records: Sequence[EventRecord], closed_at: float) -> None:
        """Stamp closed records with their close time, collect, and publish each to the sink."""
        for record in records:
            stamped = replace(record, closed_at=closed_at)
            self.event_records.append(stamped)
            if self.event_sink is not None:
                self.event_sink(stamped)

    def _dispatch(self, now: float) -> None:
        """Hand queued frames to idle workers, round-robin across cameras."""
        states = list(self._states.values())
        while True:
            worker = self.workers.idle_worker(now)
            if worker is None:
                break
            for offset in range(len(states)):
                chosen = states[(self._round_robin + offset) % len(states)]
                if chosen.queue.depth > 0:
                    self._round_robin = (self._round_robin + offset + 1) % len(states)
                    break
            else:
                break  # nothing is queued anywhere
            ticket = chosen.queue.pop()
            wait = now - ticket.arrived_at
            chosen.wait_total += wait
            chosen.wait_count += 1
            self.telemetry.histogram("latency.queue_wait_seconds").observe(wait)
            end_time = self.workers.start_frame(worker, now, chosen.schedule)
            camera_id = chosen.camera_id
            if self.slo is not None:
                latency = end_time - ticket.arrived_at
                fresh, within = self.slo.record_scored(camera_id, latency)
                self.telemetry.histogram("latency.e2e_seconds").observe(latency)
                if not fresh:
                    self.telemetry.counter("slo.freshness_violations").inc()
                if not within:
                    self.telemetry.counter("slo.latency_violations").inc()
            if ticket.trace is not None:
                ticket.trace.dispatched_at = now
                ticket.trace.phases = self.workers.phase_intervals(now, chosen.schedule)
            heapq.heappush(self._heap, (end_time, self._sequence, "completion", chosen, ticket))
            self._sequence += 1
            self._in_service.append(ticket)
            self._record_depth(chosen)

    def _record_depth(self, state: _CameraState) -> None:
        self.telemetry.gauge(f"queue.depth.{state.camera_id}").set(state.queue.depth)
        if self.admission is not None:
            self.telemetry.gauge("admission.in_flight").set(self.admission.in_flight)
            if self.admission.per_camera_quota is not None or self.admission.quota_overrides:
                self.telemetry.gauge("admission.rejected_over_quota").set(
                    self.admission.rejected_over_quota
                )

    def _record_starvation(self) -> None:
        """Cameras whose feed has started but which have scored nothing yet."""
        self.telemetry.gauge("fairness.starved_cameras").set(self._starved)

    # -- reporting -----------------------------------------------------------
    def close(self) -> float:
        """Flush every session and submit each event's upload to the link.

        Returns the node's own simulated duration.  :meth:`finalize` runs
        this when nobody has; a driver whose link serves several nodes closes
        them all and lets the link drain before it asks any for its report.
        """
        if not self._started:
            raise RuntimeError("call start() (or run()) before close()")
        if self._heap:
            raise RuntimeError("close() with pending events; advance_until() first")
        if self._closed is not None:
            raise RuntimeError("close() may only be called once")
        sim_duration = max([self._last_event_time, *(s.stint_end for s in self._states.values())])

        uploads: list[tuple[float, str, float, list[FrameTrace]]] = []
        by_camera: dict[str, list[_CameraState]] = {}
        accuracies: dict[str, CameraAccuracy] = {}
        tails: list[tuple[float, str, EventRecord]] = []
        for state in self._states.values():
            camera_id = state.camera_id
            by_camera.setdefault(camera_id, []).append(state)
            # The end of the stream's own matches and events join the stint's
            # tallies; the live counters (frames.matched, events.closed,
            # uplink.estimated_bits) skip them.  A tail event closes when its
            # stint ends, but never before its last frame finished scoring
            # (under overload, scoring lags).
            flushed = state.session.flush()
            state.matched += len(flushed.new_matches)
            state.events += len(flushed.closed_records)
            tails.extend(
                (max(state.stint_end, state.completion_times[tail.end - 1]), state.key, tail)
                for tail in flushed.closed_records
            )
            result = state.session.finish()
            if state.truth is not None:
                stint = self._stint_accuracy(state, result)
                previous = accuracies.get(camera_id)
                accuracies[camera_id] = stint if previous is None else previous.merged_with(stint)
            for available_at, description, bits, frames in state.event_uploads(result):
                # A traced frame rides the first event that carries it.
                riders = []
                if self.tracer is not None:
                    for index in frames:
                        trace = self.tracer.trace(camera_id, index)
                        if trace is not None and trace.upload_description is None:
                            trace.upload_description = description
                            riders.append(trace)
                uploads.append((available_at, description, bits, riders))
                state.uploaded_bits += bits
        reports = {camera_id: _camera_report(stints) for camera_id, stints in by_camera.items()}

        # Records leave the node in close order (the outbox's retry schedule
        # is a function of close time and refuses a back-dated offer).  Tail
        # close times follow each camera's own stint end and scoring lag, not
        # camera order, and the flush that closes them runs after every live
        # close was already published — so none may be stamped before the
        # last of those.
        published_until = self.event_records[-1].closed_at if self.event_records else 0.0
        for closed_at, _, tail in sorted(tails, key=lambda t: t[:2]):
            self._collect_records([tail], max(closed_at, published_until))

        # The node's own bits, in the link's FIFO order (a description names
        # one event on this node, so the riders never break a tie).  The
        # port's total may come to more: event-plane attempts ride the same link.
        total_bits = 0.0
        carried = []  # (transfer, the traced frames it carries)
        for available_at, description, bits, riders in sorted(uploads, key=lambda u: u[:3]):
            transfer = self.uplink.upload(bits, available_at=available_at, description=description)
            if riders:
                carried.append((transfer, riders))
            total_bits += bits
        self._closed = (sim_duration, reports, accuracies, total_bits, carried)
        return sim_duration

    def finalize(self, link_duration: float | None = None) -> FleetReport:
        """Read the link once and assemble the report (closing first if need be).

        ``link_duration`` is the clock the uplink figures are measured over —
        the cluster's, when the link is shared; the node's own by default.
        """
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        if self._closed is None:
            self.close()
        self._finalized = True
        sim_duration, reports, accuracies, total_bits, carried = self._closed
        link_duration = sim_duration if link_duration is None else link_duration
        for transfer, riders in carried:
            if transfer.end_time is not None:  # None: the shared link never drained
                for trace in riders:
                    trace.upload_start = transfer.start_time
                    trace.upload_end = transfer.end_time
        backlog = self.uplink.backlog_seconds(link_duration)
        utilization = self.uplink.utilization(link_duration)
        self.telemetry.gauge("uplink.backlog_seconds").set(backlog)
        self.telemetry.gauge("uplink.utilization").set(utilization)

        generated = sum(camera.frames_generated for camera in reports.values())
        scored = sum(camera.frames_scored for camera in reports.values())
        return FleetReport(
            cameras=reports,
            sim_duration=sim_duration,
            frames_generated=generated,
            frames_scored=scored,
            frames_dropped=sum(camera.frames_dropped for camera in reports.values()),
            frames_rejected=sum(camera.frames_rejected for camera in reports.values()),
            events_detected=sum(camera.events for camera in reports.values()),
            matched_frames=sum(camera.matched_frames for camera in reports.values()),
            achieved_fps=scored / sim_duration if sim_duration > 0 else 0.0,
            offered_fps=generated / sim_duration if sim_duration > 0 else 0.0,
            worker_utilization=self.workers.utilization(sim_duration),
            uplink_utilization=utilization,
            uplink_backlog_seconds=backlog,
            total_uploaded_bits=total_bits,
            telemetry=self.telemetry.snapshot(),
            accuracy=(
                FleetAccuracy(
                    task=self.config.accuracy_task,
                    cameras=dict(sorted(accuracies.items())),
                )
                if self.config.accuracy_task is not None
                else None
            ),
            slo=(self.slo.report() if self.slo is not None else None),
        )

    def _stint_accuracy(self, state: _CameraState, result) -> CameraAccuracy:
        """Score one hosting stint's decisions against the camera's truth.

        Frames the stint never scored (shed, or hosted elsewhere) predict
        negative here; merging stints ORs the prediction vectors, so a
        migrated camera is scored over its full feed exactly once.
        """
        predictions = predictions_from_result(
            result, state.session.source_indices, state.spec.num_frames
        )
        return CameraAccuracy(
            camera_id=state.camera_id,
            scenario=state.spec.scenario,
            task=self.config.accuracy_task,
            truth=state.truth,
            predictions=predictions,
            frames_generated=state.generated,
            frames_scored=state.scored,
        )
