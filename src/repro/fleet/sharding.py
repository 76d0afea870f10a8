"""Multi-node fleet sharding: a cluster of edge nodes behind one uplink.

The single-node :class:`~repro.fleet.runtime.FleetRuntime` answers "what does
*one* constrained box do with 32 cameras"; this module answers the next
question the edge-video-analytics literature asks — how a *cluster* of such
boxes shares a camera fleet and a common datacenter uplink.

:class:`ShardedFleetRuntime` partitions the fleet with a
:class:`~repro.fleet.placement.PlacementPolicy`, gives every node its own
full runtime (bounded queues, admission control, worker pool, telemetry) and
a port on one datacenter link, then runs each node on the same
deterministic simulated clock.  The link is one
:class:`~repro.edge.uplink.WorkConservingUplink`: a node submits its frame
uploads to its port when it closes, the event plane's publish attempts join
them at the link's one drain, which replays every node's transfers globally
time-ordered, and each node reads its port once for its report, over the
cluster's duration.  The two ``uplink_sharing`` regimes differ only in
whether a backlogged node may borrow idle capacity: under
``work_conserving`` it does (weighted GPS), and the bits moved above a
node's static guarantee are reported as reclaimed; under ``static`` every
node drains at its guarantee, so nodes never interact.

All nodes advance in lockstep, and whatever fills the runtime's one control
slot ticks at each interval boundary.  A :class:`~repro.control.loop.ControlLoop`
actuates the cluster live — adaptive shedding, uplink re-weighting, camera
migration — with every decision logged and counted in the cluster report.
At kilocamera scale its cluster-side cost — every controller walking every
camera, plus an end-of-run merge of every node's full registry — grows as
O(cameras x metrics); a :class:`~repro.control.hierarchy.HierarchicalControlPlane`
in the same slot keeps local policies on their nodes and bounds cluster work
per interval (and the end-of-run cluster telemetry) at O(nodes).  With
neither, the slot holds a loop that only scrapes the timeline.
:class:`ShardedFleetReport` aggregates the per-node
:class:`~repro.fleet.runtime.FleetReport`\\ s into cluster-level metrics:
cluster drop rate, shared-uplink utilization, per-camera fairness across the
whole fleet, load imbalance, and the control plane's interventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.control.hierarchy import HierarchicalControlPlane
from repro.control.loop import ClusterActuator, ControlLoop, drive
from repro.edge.uplink import WorkConservingUplink
from repro.fleet.accuracy import FleetAccuracy
from repro.fleet.camera import CameraSpec, reject_duplicate_ids
from repro.fleet.placement import (
    PlacementPolicy,
    estimate_camera_cost,
    make_placement_policy,
)
from repro.fleet.runtime import (
    FleetConfig,
    FleetReport,
    FleetRuntime,
    PipelineFactory,
    default_pipeline_factory,
)
from repro.fleet.telemetry import TelemetryRegistry, jain_fairness
from repro.obs.alerts import AlertLog, evaluate_alerts
from repro.obs.slo import SLOReport
from repro.obs.timeline import MetricsTimeline
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.events.plane import DeliveryReport, EventDeliveryPlane

__all__ = [
    "ShardingConfig",
    "NodeReport",
    "ShardedFleetReport",
    "ShardedFleetRuntime",
]

UPLINK_ALLOCATIONS = ("equal", "by_cameras", "by_cost")
UPLINK_SHARING_MODES = ("static", "work_conserving")


@dataclass(frozen=True)
class ShardingConfig:
    """Cluster-level knobs of the sharded fleet runtime."""

    num_nodes: int = 2
    placement: str = "round_robin"
    total_uplink_bps: float = 2_000_000.0
    uplink_allocation: str = "equal"
    uplink_sharing: str = "static"
    node_config: FleetConfig = field(default_factory=FleetConfig)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.total_uplink_bps <= 0:
            raise ValueError("total_uplink_bps must be positive")
        if self.uplink_allocation not in UPLINK_ALLOCATIONS:
            raise ValueError(
                f"Unknown uplink_allocation {self.uplink_allocation!r}; "
                f"expected one of {UPLINK_ALLOCATIONS}"
            )
        if self.uplink_sharing not in UPLINK_SHARING_MODES:
            raise ValueError(
                f"Unknown uplink_sharing {self.uplink_sharing!r}; "
                f"expected one of {UPLINK_SHARING_MODES}"
            )


@dataclass
class NodeReport:
    """One edge node's end-of-run accounting within the cluster."""

    node_id: str
    camera_ids: list[str]
    estimated_cost: float
    uplink_allocation_bps: float
    report: FleetReport
    reclaimed_uplink_bits: float = 0.0
    cameras_migrated_in: int = 0
    cameras_migrated_out: int = 0

    @property
    def num_cameras(self) -> int:
        """Cameras this node hosted at the end of the run."""
        return len(self.camera_ids)

    @property
    def queue_wait_p99(self) -> float:
        """99th-percentile queue wait on this node in seconds."""
        waits = self.report.telemetry.get("latency.queue_wait_seconds")
        if isinstance(waits, dict):
            return float(waits.get("p99", 0.0))
        return 0.0

    @property
    def resolutions(self) -> set[tuple[int, int]]:
        """Distinct camera resolutions resident on this node."""
        return {c.resolution for c in self.report.cameras.values()}


@dataclass
class ShardedFleetReport:
    """Aggregate outcome of one sharded cluster run."""

    nodes: list[NodeReport]
    placement_policy: str
    total_uplink_bps: float
    total_uplink_bits: float
    sim_duration: float
    uplink_sharing: str = "static"
    reclaimed_uplink_bits: float = 0.0
    migrations_performed: int = 0
    shedding_interventions: int = 0
    uplink_rebalances: int = 0
    threshold_drifts: int = 0
    control_ticks: int = 0
    control_log: list[str] = field(default_factory=list)
    # Decision provenance: the control plane's stamped DecisionRecord dicts —
    # one per controller decision context per tick, including explicit no-ops.
    decision_records: list[dict] = field(default_factory=list)
    # Hierarchical runs only: total coordination payload (bytes of serialized
    # per-node aggregates) exchanged at each control tick.  The scale
    # contract: every entry is O(nodes), independent of camera count.
    coordination_payload_bytes: list[int] = field(default_factory=list)
    telemetry: dict[str, object] = field(default_factory=dict)
    accuracy: FleetAccuracy | None = None
    slo: SLOReport | None = None
    alerts: AlertLog | None = None
    # Cluster-scope event delivery accounting (runs with an
    # EventDeliveryPlane attached only).  Fixed-size: counts and
    # percentiles, never per-event lines.
    delivery: "DeliveryReport | None" = None

    @property
    def num_nodes(self) -> int:
        """Edge nodes in the cluster."""
        return len(self.nodes)

    @property
    def num_cameras(self) -> int:
        """Cameras across the whole cluster (each counted where it ended up)."""
        return sum(n.num_cameras for n in self.nodes)

    @property
    def frames_generated(self) -> int:
        """Frames offered across all nodes."""
        return sum(n.report.frames_generated for n in self.nodes)

    @property
    def frames_scored(self) -> int:
        """Frames scored across all nodes."""
        return sum(n.report.frames_scored for n in self.nodes)

    @property
    def frames_dropped(self) -> int:
        """Frames lost to queue drops across all nodes."""
        return sum(n.report.frames_dropped for n in self.nodes)

    @property
    def frames_rejected(self) -> int:
        """Frames rejected by admission control across all nodes."""
        return sum(n.report.frames_rejected for n in self.nodes)

    @property
    def events_detected(self) -> int:
        """Events detected across all nodes."""
        return sum(n.report.events_detected for n in self.nodes)

    @property
    def drop_rate(self) -> float:
        """Cluster-wide fraction of generated frames shed."""
        generated = self.frames_generated
        if generated == 0:
            return 0.0
        return (self.frames_dropped + self.frames_rejected) / generated

    @property
    def uplink_utilization(self) -> float:
        """Fraction of the shared datacenter link consumed over the run.

        A zero-bandwidth link (or a report built outside ``ShardingConfig``
        validation) has no capacity to utilize; report 0.0 rather than
        dividing by zero.
        """
        if self.sim_duration <= 0 or self.total_uplink_bps <= 0:
            return 0.0
        return self.total_uplink_bits / (self.total_uplink_bps * self.sim_duration)

    @property
    def reclaimed_uplink_bytes(self) -> float:
        """Idle uplink capacity reclaimed by work conservation, in bytes."""
        return self.reclaimed_uplink_bits / 8.0

    @property
    def worst_node_queue_wait_p99(self) -> float:
        """Largest per-node queue-wait p99 in seconds (the placement's tail)."""
        return max((n.queue_wait_p99 for n in self.nodes), default=0.0)

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-camera scored fractions, cluster-wide.

        A camera that migrated contributes one share per hosting node (each
        stint's scored fraction of the frames offered there).
        """
        return jain_fairness(
            c.frames_scored / c.frames_generated
            for n in self.nodes
            for c in n.report.cameras.values()
            if c.frames_generated > 0
        )

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean offered frame rate across nodes (1.0 = perfectly even)."""
        offered = [n.report.offered_fps for n in self.nodes]
        mean = sum(offered) / len(offered) if offered else 0.0
        if mean == 0.0:
            return 1.0
        return max(offered) / mean

    @property
    def resident_base_dnns(self) -> int:
        """Total ``(node, resolution)`` pairs — base-DNN instances the cluster holds."""
        return sum(len(n.resolutions) for n in self.nodes)

    def summary(self) -> str:
        """A multi-line human-readable cluster summary."""
        lines = [
            f"cluster: {self.num_nodes} nodes, {self.num_cameras} cameras, "
            f"placement={self.placement_policy}, uplink={self.uplink_sharing}",
            f"scored {self.frames_scored}/{self.frames_generated} frames "
            f"(drop rate {self.drop_rate:.1%}) | events {self.events_detected}",
            f"shared uplink {self.uplink_utilization:.1%} of "
            f"{self.total_uplink_bps / 1e6:.2f} Mbps | "
            f"fairness {self.fairness_index:.3f} (Jain)",
            f"worst node queue-wait p99 {self.worst_node_queue_wait_p99 * 1e3:.0f} ms | "
            f"load imbalance {self.load_imbalance:.2f}x | "
            f"resident base DNNs {self.resident_base_dnns}",
        ]
        if self.accuracy is not None:
            lines.append(self.accuracy.summary())
        if self.slo is not None:
            lines.append(self.slo.summary())
        if self.alerts is not None:
            lines.append(self.alerts.summary())
        if self.delivery is not None:
            lines.append(self.delivery.summary())
        if self.uplink_sharing == "work_conserving":
            lines.append(
                f"work-conserving uplink reclaimed {self.reclaimed_uplink_bytes / 1024:.1f} KiB "
                f"of idle capacity"
            )
        if self.control_ticks:
            lines.append(
                f"control plane: {self.control_ticks} ticks, "
                f"{self.migrations_performed} migrations, "
                f"{self.shedding_interventions} shedding interventions, "
                f"{self.uplink_rebalances} uplink rebalances, "
                f"{self.threshold_drifts} threshold drifts"
            )
        if self.coordination_payload_bytes:
            lines.append(
                f"hierarchical coordination: peak "
                f"{max(self.coordination_payload_bytes)} B of aggregates per tick "
                f"across {self.num_nodes} nodes"
            )
        for node in self.nodes:
            report = node.report
            migrated = ""
            if node.cameras_migrated_in or node.cameras_migrated_out:
                migrated = (
                    f", migrated +{node.cameras_migrated_in}/-{node.cameras_migrated_out}"
                )
            lines.append(
                f"  {node.node_id}: {node.num_cameras} cams{migrated}, "
                f"scored {report.frames_scored}/{report.frames_generated} "
                f"({report.drop_rate:.1%} shed), "
                f"wait p99 {node.queue_wait_p99 * 1e3:.0f} ms, "
                f"uplink {node.uplink_allocation_bps / 1e3:.0f} kbps"
            )
        return "\n".join(lines)


class _ScrapeOnlyLoop(ControlLoop):
    """The control slot of a run with no control plane: it only scrapes.

    No controllers, and it never counts a tick, so the cluster report and
    the timeline carry no ``control.*`` metrics: such a run is the nodes run
    one after another, observed at interval boundaries.
    """

    def tick(self, now: float, nodes, actuator) -> list:
        self.scrape(now, nodes)
        return []


class ShardedFleetRuntime:
    """Runs a camera fleet across several edge nodes behind one uplink."""

    def __init__(
        self,
        cameras: Sequence[CameraSpec],
        config: ShardingConfig | None = None,
        pipeline_factory: PipelineFactory | None = None,
        placement: PlacementPolicy | None = None,
        control_loop: ControlLoop | None = None,
        tracer: Tracer | None = None,
        timeline: MetricsTimeline | None = None,
        alert_rules: Sequence = (),
        hierarchy: HierarchicalControlPlane | None = None,
        event_plane: "EventDeliveryPlane | None" = None,
    ) -> None:
        if alert_rules and timeline is None:
            raise ValueError("alert_rules need a timeline to evaluate over")
        if control_loop is not None and hierarchy is not None:
            raise ValueError(
                "attach either a flat control loop or a hierarchical control "
                "plane, not both"
            )
        self.config = config or ShardingConfig()
        self.tracer = tracer
        self.timeline = timeline
        self.alert_rules = list(alert_rules)
        reject_duplicate_ids(cameras)
        self.policy = (
            placement if placement is not None else make_placement_policy(self.config.placement)
        )
        # One control slot, one protocol: the flat loop, the hierarchical
        # plane, or a loop that only keeps the timeline's scrape cadence.
        self.control = control_loop or hierarchy or _ScrapeOnlyLoop([])
        self.shards = self.policy.place(cameras, self.config.num_nodes)
        self.node_ids = [f"node{i}" for i in range(self.config.num_nodes)]
        # Cost the shards with the same estimate the policy balanced them by,
        # so by_cost uplink slices and NodeReport.estimated_cost describe the
        # load the placement actually considered.
        cost_fn = getattr(self.policy, "cost_fn", None) or estimate_camera_cost
        self._shard_costs = [sum(cost_fn(spec) for spec in shard) for shard in self.shards]
        self.shared_uplink = WorkConservingUplink(
            self.config.total_uplink_bps,
            self._allocation_weights(),
            reclaim=self.config.uplink_sharing == "work_conserving",
        )
        self._migrations: list[tuple[str, str, str]] = []  # (camera, source, destination)
        self.nodes: dict[str, FleetRuntime] = {}
        ports = self.shared_uplink.links
        for node_id, shard in zip(self.node_ids, self.shards):
            self.nodes[node_id] = FleetRuntime(
                shard,
                # Each node is its own box: without an injected factory every
                # node builds (and shares internally) its own base DNNs.
                pipeline_factory=pipeline_factory or default_pipeline_factory(),
                config=self.config.node_config,
                telemetry=TelemetryRegistry(),
                uplink=ports[node_id],
                tracer=(self.tracer.node(node_id) if self.tracer is not None else None),
            )
        self.event_plane = event_plane
        if event_plane is not None:
            # Installs the plane as every node's publish hook: records the
            # runtime closes (cooldown permitting) land in the node's
            # outbox, ready to ride the shared uplink with the frames.
            for node_id in self.node_ids:
                event_plane.attach(node_id, self.nodes[node_id])

    def _allocation_weights(self) -> dict[str, float]:
        mode = self.config.uplink_allocation
        if mode == "equal":
            weights = [1.0] * len(self.shards)
        elif mode == "by_cameras":
            weights = [float(len(shard)) for shard in self.shards]
        else:  # by_cost
            weights = list(self._shard_costs)
        return dict(zip(self.node_ids, weights))

    # -- control-plane surface -----------------------------------------------
    def current_uplink_weights(self) -> dict[str, float] | None:
        """Latest GPS weights (None when the link is statically sliced)."""
        return self.shared_uplink.scheduled_weights if self.shared_uplink.reclaim else None

    def uplink_guarantees(self) -> dict[str, float]:
        """Per-node guaranteed uplink bps: each port's share of the link.

        The observation surface of uplink-aware control: a node whose live
        estimated upload bits outrun ``guarantee * now`` is building backlog
        the end-of-run drain will have to clear.
        """
        return {n: self.nodes[n].uplink.capacity_bps for n in self.node_ids}

    def set_uplink_weights(self, now: float, weights: dict[str, float]) -> None:
        """Schedule new shared-uplink weights from ``now`` onward.

        A statically sliced link refuses with a ``RuntimeError``.
        """
        self.shared_uplink.schedule_weights(now, weights)

    def record_migration(self, camera_id: str, source: str, destination: str) -> None:
        """Track one applied camera handoff in the cluster's bookkeeping."""
        self._migrations.append((camera_id, source, destination))

    # -- orchestration -------------------------------------------------------
    def run(self) -> ShardedFleetReport:
        """Execute every node to completion and assemble the cluster report.

        All nodes advance in lockstep between the control slot's ticks, so
        whatever observes — controllers, a coordinator, a timeline scrape —
        sees a consistent cluster state.  Between ticks nodes only interact
        through their uplink shares, so the stepping itself changes nothing:
        a run whose slot only scrapes equals the nodes run one after another.
        """
        if self.timeline is not None and self.control.timeline is None:
            # The control slot already ticks at the cadence the timeline
            # wants; attach it so every tick scrapes all node registries.
            self.control.timeline = self.timeline
        drive(self.control, self.nodes, ClusterActuator(self))
        sim_duration = max((self.nodes[n].close() for n in self.node_ids), default=0.0)
        if self.event_plane is None:
            self.shared_uplink.drain()
        else:
            # Publish attempts share the node's capacity with its frame
            # uploads — no free side channel — and the drain serves both
            # kinds in availability order.
            transfers = self.shared_uplink.drain(self.event_plane.transfer_requests())
            # Stamps delivery counters and the latency histogram into each
            # node's registry, ahead of the one snapshot finalize() takes.
            self.event_plane.finalize({t.description: t.end_time for t in transfers})
        reports = {n: self.nodes[n].finalize(sim_duration) for n in self.node_ids}
        if self.event_plane is not None:
            for node_id, report in reports.items():
                report.delivery = self.event_plane.node_reports[node_id]
        if self.timeline is not None:
            # One final end-of-run scrape: captures the uplink gauges and
            # delivery counters set after the last interval boundary.
            self.control.scrape(sim_duration, self.nodes)

        node_reports = [
            NodeReport(
                node_id=node_id,
                camera_ids=self.nodes[node_id].hosted_cameras(),
                estimated_cost=cost,
                uplink_allocation_bps=self.nodes[node_id].uplink.capacity_bps,
                report=reports[node_id],
                reclaimed_uplink_bits=self.nodes[node_id].uplink.reclaimed_bits,
                cameras_migrated_in=sum(dst == node_id for _, _, dst in self._migrations),
                cameras_migrated_out=sum(src == node_id for _, src, _ in self._migrations),
            )
            for node_id, cost in zip(self.node_ids, self._shard_costs)
        ]
        alerts = (
            evaluate_alerts(self.timeline, self.alert_rules)
            if self.timeline is not None and self.alert_rules
            else None
        )
        return ShardedFleetReport(
            nodes=node_reports,
            # A migrated camera's stints are ORed into one prediction
            # vector, so cluster accuracy scores each camera exactly once.
            accuracy=FleetAccuracy.merged(r.accuracy for r in reports.values()),
            # A migrated camera's SLO counters merge across its hosting
            # nodes; burn state is the pessimistic union.
            slo=SLOReport.merged([r.slo for r in reports.values()]),
            placement_policy=self.policy.name,
            total_uplink_bps=self.config.total_uplink_bps,
            total_uplink_bits=self.shared_uplink.total_bits,
            sim_duration=sim_duration,
            uplink_sharing=self.config.uplink_sharing,
            reclaimed_uplink_bits=self.shared_uplink.reclaimed_bits,
            migrations_performed=len(self._migrations),
            shedding_interventions=int(
                self.control.counter_value("control.shedding.interventions")
            ),
            uplink_rebalances=int(self.control.counter_value("control.uplink.rebalances")),
            threshold_drifts=int(self.control.counter_value("control.threshold.drifts")),
            control_ticks=self.control.ticks,
            control_log=list(self.control.decision_log),
            decision_records=list(self.control.decision_records),
            coordination_payload_bytes=list(self.control.payload_bytes),
            telemetry=self.control.cluster_telemetry(self.nodes).snapshot(),
            alerts=alerts,
            delivery=(
                self.event_plane.cluster_report if self.event_plane is not None else None
            ),
        )
