"""One record per run, and the runners that produce one from a scenario.

A :class:`RunRecord` holds what a run shows: each node's
:class:`~repro.fleet.runtime.FleetReport` (telemetry snapshot included),
what it hosts at the end, its stints' tallies and per-frame scores, the
cluster report's own fields (``control_log`` and ``decision_records`` among
them), the hierarchy's rollup, and the exported timeline, trace and delivery
log, parsed.  A runner maps a :class:`~oracles.scenarios.Scenario` to one.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from unittest import mock
from weakref import WeakKeyDictionary

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    SheddingConfig,
    UplinkShareController,
)
from repro.control.hierarchy import HierarchicalControlPlane
from repro.control.policies import Controller, MigrateCamera, SetCameraThreshold
from repro.control.provenance import DecisionRecord
from repro.events import BrokerConfig, DeliveryConfig, EventDeliveryPlane, OutboxConfig
from repro.fleet.queues import AdmissionController
from repro.fleet.runtime import FleetReport, FleetRuntime, default_pipeline_factory
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig
from repro.fleet.telemetry import TelemetryRegistry, nearest_rank
from repro.obs import AlertRule, MetricsTimeline, Tracer

SHEDDING = SheddingConfig(
    high_watermark_seconds=0.3, low_watermark_seconds=0.1, cameras_per_step=1, quota_ladder=(2,)
)
MIGRATION = MigrationConfig(
    imbalance_threshold=1.1,
    sustain_ticks=2,
    cooldown_ticks=2,
    cost_model=MigrationCostModel(blackout_seconds=0.2, cold_start_seconds=0.2),
)
DELIVERY = DeliveryConfig(
    broker=BrokerConfig(loss_rate=0.1, ack_loss_rate=0.05, seed=9),
    outbox=OutboxConfig(max_queue=256, max_retries=4),
    consumer_rate_eps=100.0,
)
ALERT_RULES = (
    AlertRule("queue_wait_p99", "latency.queue_wait_seconds.p99", threshold=0.3, for_seconds=0.25),
    AlertRule("uplink_demand", "uplink.estimated_bits", threshold=10_000.0, mode="rate"),
)
# The stint attribute each CameraReport field sums.
TALLIES = {
    "frames_generated": "generated",
    "frames_admitted": "admitted",
    "frames_dropped_oldest": "dropped_oldest",
    "frames_dropped_newest": "dropped_newest",
    "frames_rejected": "rejected",
    "frames_scored": "scored",
    "matched_frames": "matched",
    "events": "events",
    "uploaded_bits": "uploaded_bits",
}
# Rollup gauge -> the node counters it must equal the sum of.
ROLLUP_COUNTERS = {
    "cluster.frames.generated": ("frames.generated",),
    "cluster.frames.scored": ("frames.scored",),
    "cluster.frames.rejected": ("frames.rejected",),
    "cluster.frames.dropped": ("frames.dropped_oldest", "frames.dropped_newest"),
    "cluster.frames.matched": ("frames.matched",),
    "cluster.events.closed": ("events.closed",),
    "cluster.uplink.estimated_bits": ("uplink.estimated_bits",),
}


@dataclass(frozen=True)
class NodeRun:
    report: FleetReport
    hosted: tuple[str, ...]
    migrated_in: int
    migrated_out: int
    stints: dict[str, dict]  # by stint key, in hosting order
    admission_rejected: int  # arrivals the admission controller turned away
    slots_held: int  # admission slots still held when the run ended
    event_records: int  # closed event records the node collected


@dataclass(frozen=True)
class RunRecord:
    nodes: dict[str, NodeRun]
    cluster: dict = field(default_factory=dict)
    rollup: dict = field(default_factory=dict)
    timeline: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    delivery_log: list = field(default_factory=list)


def node_run(runtime: FleetRuntime, report: FleetReport, migrated_in=0, migrated_out=0) -> NodeRun:
    stints = {
        key: {
            "camera_id": stint.camera_id,
            **{name: getattr(stint, tally) for name, tally in TALLIES.items()},
            "queue_high_water": stint.queue_high_water,
            "wait_total": stint.wait_total,
            "wait_count": stint.wait_count,
            "scored_frames": list(stint.session.source_indices),
            "scores": {  # finish() returns the result close() cached
                name: {"probabilities": mc.probabilities, "smoothed": mc.smoothed}
                for name, mc in stint.session.finish().per_mc.items()
            },
        }
        for key, stint in runtime._states.items()
    }
    admission = runtime.admission
    return NodeRun(
        report,
        tuple(runtime.hosted_cameras()),
        migrated_in,
        migrated_out,
        stints,
        REFUSED.get(admission, 0) if admission is not None else 0,
        admission.in_flight if admission is not None else 0,
        len(runtime.event_records),
    )


# Arrivals each admission controller turned away.  The controller keeps no
# such tally, so the runners below count its refusals while they run.
REFUSED: WeakKeyDictionary = WeakKeyDictionary()


def counting_refusals(runner):
    """``runner``, with every ``AdmissionController.try_admit`` refusal counted in :data:`REFUSED`."""
    try_admit = AdmissionController.try_admit

    def counted(self, camera_id):
        admitted = try_admit(self, camera_id)
        if not admitted:
            REFUSED[self] = REFUSED.get(self, 0) + 1
        return admitted

    @functools.wraps(runner)
    def run(*args, **kwargs):
        with mock.patch.object(AdmissionController, "try_admit", counted):
            return runner(*args, **kwargs)

    return run


def jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


# -- schedules and control slots ---------------------------------------------
def scheduled_actions(scenario, tick: int, hosts: dict[str, str]) -> list:
    """The moves, then the drifts, due at ``tick``; ``hosts`` maps each camera to its node."""
    hosts, node_ids, actions = dict(hosts), scenario.node_ids, []
    for at, camera_id, blackout in scenario.moves:
        if at == tick:
            source = hosts[camera_id]
            destination = node_ids[(node_ids.index(source) + 1) % len(node_ids)]
            actions.append(MigrateCamera(camera_id, source, destination, blackout))
            hosts[camera_id] = destination
    actions += [SetCameraThreshold(hosts[c], c, t) for at, c, t in scenario.drifts if at == tick]
    return actions


class Scheduled(Controller):
    """A scenario's schedule, as actions through a cluster's control slot."""

    name = "scheduled"

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.ticks = 0  # decide runs once per tick

    def decide(self, view):
        hosts = {c: node.node_id for node in view.nodes for c in node.runtime.hosted_cameras()}
        tick, self.ticks = self.ticks, self.ticks + 1
        return [
            DecisionRecord(self.name, "action", actions=(action,))
            for action in scheduled_actions(self.scenario, tick, hosts)
        ]


class RecordingHierarchy(HierarchicalControlPlane):
    """The hierarchy, keeping the aggregate each node sent up at the last tick."""

    def bind(self, nodes) -> None:
        super().bind(nodes)
        self.last_aggregates = {}
        for node_id, plane in self.planes.items():

            def tick(now, horizon, node_id=node_id, local=plane.tick):
                self.last_aggregates[node_id] = aggregate = local(now, horizon)
                return aggregate

            plane.tick = tick


def control_slot(scenario) -> dict:
    if scenario.control == "hierarchy":
        return {"hierarchy": RecordingHierarchy(interval_seconds=scenario.interval)}
    if scenario.control == "none":
        return {}
    policies = [Scheduled(scenario)]
    if scenario.control == "flat":
        policies[:0] = [
            AdaptiveSheddingController(SHEDDING),
            UplinkShareController(),
            MigrationController(MIGRATION),
        ]
    return {"control_loop": ControlLoop(policies, interval_seconds=scenario.interval)}


def rollup(cluster: ShardedFleetRuntime, report, flat: bool = False) -> dict[str, float]:
    """The coordinator's rollup gauges, or with ``flat`` the same figures from
    every node registry merged in full and the exact p99 of the last tick's waits."""
    aggregates = cluster.control.last_aggregates
    window = [  # the last tick's waits, pooled from the nodes' sketches
        value
        for node_id in sorted(aggregates)
        for value, weight in aggregates[node_id].window_wait_sketch.centroids
        for _ in range(round(weight))
    ]
    figures = {"window_spread": max(window) - min(window) if window else 0.0}
    if not flat:
        names = ("cluster.cameras", *ROLLUP_COUNTERS, "cluster.queue_wait.window_p99")
        return {**figures, **{name: report.telemetry[name]["value"] for name in names}}
    merged = TelemetryRegistry()
    for node_id in cluster.node_ids:
        merged.merge(cluster.nodes[node_id].telemetry, prefix=f"{node_id}.")
    counters = merged.counters()
    figures["cluster.cameras"] = sum(len(node.hosted_cameras()) for node in cluster.nodes.values())
    for gauge, names in ROLLUP_COUNTERS.items():
        figures[gauge] = sum(
            counters.get(f"{node_id}.{name}", 0.0) for node_id in cluster.node_ids for name in names
        )
    figures["cluster.queue_wait.window_p99"] = nearest_rank(sorted(window), 0.99)
    return figures


# -- runners -----------------------------------------------------------------
def observed_tracer(scenario) -> Tracer | None:
    """The tracer an observed scenario attaches: one frame in two."""
    return Tracer(sample_every=2) if scenario.observe else None


@counting_refusals
def run_cluster(scenario, flat_rollup: bool = False, tracer_for=observed_tracer) -> RunRecord:
    """The scenario through one :class:`ShardedFleetRuntime`, traced by ``tracer_for(scenario)``."""
    plane = EventDeliveryPlane(DELIVERY) if scenario.event_plane else None
    tracer = tracer_for(scenario)
    timeline = MetricsTimeline() if scenario.observe else None
    cluster = ShardedFleetRuntime(
        scenario.cameras,
        config=ShardingConfig(
            num_nodes=scenario.num_nodes,
            placement=scenario.placement,
            total_uplink_bps=scenario.uplink_bps,
            uplink_sharing=scenario.uplink_sharing,
            node_config=scenario.node,
        ),
        pipeline_factory=default_pipeline_factory(threshold=scenario.threshold),
        tracer=tracer,
        timeline=timeline,
        alert_rules=ALERT_RULES if scenario.observe else (),
        event_plane=plane,
        **control_slot(scenario),
    )
    report = cluster.run()
    return RunRecord(
        {
            node.node_id: node_run(
                cluster.nodes[node.node_id],
                node.report,
                node.cameras_migrated_in,
                node.cameras_migrated_out,
            )
            for node in report.nodes
        },
        cluster={**vars(report), "nodes": [replace(node, report=None) for node in report.nodes]},
        rollup=rollup(cluster, report, flat_rollup) if scenario.control == "hierarchy" else {},
        timeline=jsonl(timeline.to_jsonl()) if timeline is not None else [],
        trace=tracer.to_chrome_trace() if tracer is not None else {},
        delivery_log=jsonl(plane.delivery_log_jsonl()) if plane is not None else [],
    )


def bare_node(scenario, cameras=None) -> FleetRuntime:
    """A standalone runtime whose link is a static slice of the scenario's."""
    return FleetRuntime(
        scenario.cameras if cameras is None else cameras,
        pipeline_factory=default_pipeline_factory(threshold=scenario.threshold),
        config=replace(scenario.node, uplink_capacity_bps=scenario.uplink_bps / scenario.num_nodes),
    )


@counting_refusals
def run_bare(scenario) -> RunRecord:
    """The whole fleet on one bare node, in one ``run()``."""
    runtime = bare_node(scenario)
    return RunRecord({"node0": node_run(runtime, runtime.run())})


@counting_refusals
def run_stepped(scenario) -> RunRecord:
    """The whole fleet on one bare node, advanced one control interval at a time."""
    runtime, now = bare_node(scenario), 0.0
    runtime.start()
    while runtime.has_pending_events:
        now += scenario.interval
        runtime.advance_until(now)
    return RunRecord({"node0": node_run(runtime, runtime.finalize())})


@counting_refusals
def run_by_hand(scenario) -> RunRecord:
    """Bare nodes in lockstep, the schedule applied by calling the runtimes directly."""
    count = scenario.num_nodes
    nodes = {
        n: bare_node(scenario, scenario.cameras[i::count]) for i, n in enumerate(scenario.node_ids)
    }
    for runtime in nodes.values():
        runtime.start()
    moved, tick, now = [], 0, scenario.interval
    while any(runtime.has_pending_events for runtime in nodes.values()):
        for runtime in nodes.values():
            runtime.advance_until(now)
        hosts = {c: node_id for node_id, rt in nodes.items() for c in rt.hosted_cameras()}
        for action in scheduled_actions(scenario, tick, hosts):
            if isinstance(action, MigrateCamera):
                handoff = nodes[action.source].detach_camera(action.camera_id, now)
                resume = now + action.blackout_seconds
                nodes[action.destination].attach_camera(handoff, now, resume_time=resume)
                moved.append((action.source, action.destination))
            else:
                nodes[action.node_id].set_camera_threshold(action.camera_id, action.threshold)
        tick, now = tick + 1, now + scenario.interval
    duration = max(runtime.close() for runtime in nodes.values())
    return RunRecord(
        {
            n: node_run(
                runtime,
                runtime.finalize(duration),
                sum(destination == n for _, destination in moved),
                sum(source == n for source, _ in moved),
            )
            for n, runtime in nodes.items()
        }
    )
