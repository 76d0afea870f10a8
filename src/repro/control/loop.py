"""The control loop: lockstep node stepping, action application, accounting.

:class:`ControlLoop` drives any number of :class:`~repro.fleet.runtime.FleetRuntime`
nodes on one simulated clock: every ``interval_seconds`` it advances each
node to the tick time, hands the assembled
:class:`~repro.control.policies.ClusterView` to each controller in order,
and applies the actions its decisions carry through an *actuator*.
Determinism is the core contract — ticks happen at fixed simulated times,
controllers see identical views on identical runs, and every applied action
lands in :attr:`ControlLoop.decision_log` plus the control telemetry
registry, so two runs can be compared decision-for-decision.

The pieces every control plane shares live here, once: :func:`drive` (the
lockstep driver), :func:`run_controllers` (the decide → apply → journal
pass — the flat loop runs it over the whole cluster, a hierarchical node
over itself, the hierarchy's coordinator over per-node aggregates),
:class:`ControlJournal` (decision log, stamped decision records,
``control.*`` counters) and the actuators: :class:`NodeActuator` applies
node-scope actions (shedding, thresholds) to one ``FleetRuntime``;
:class:`ClusterActuator` (over a
:class:`~repro.fleet.sharding.ShardedFleetRuntime`) adds migration and
uplink re-weighting and routes everything else to the owning node.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
    SetCameraQuota,
    SetCameraThreshold,
    SetDropPolicy,
    SetUplinkWeights,
)
from repro.control.provenance import DecisionRecord
from repro.fleet.runtime import FleetRuntime
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline

__all__ = [
    "ControlLoop",
    "ControlJournal",
    "ClusterActuator",
    "NodeActuator",
    "run_controllers",
    "drive",
]


class NodeActuator:
    """Applies control actions to one standalone node (shedding only)."""

    def __init__(self, runtime: FleetRuntime, node_id: str = "node0") -> None:
        self.runtime = runtime
        self.node_id = node_id

    @property
    def uplink_weights(self) -> None:
        """A single node has no shared uplink to re-weight."""
        return None

    @property
    def uplink_guarantees(self) -> dict[str, float]:
        """The node's guarantee is its port's capacity: a whole link, or a share."""
        return {self.node_id: self.runtime.uplink.capacity_bps}

    def apply(self, action: ControlAction, now: float) -> None:
        """Execute one action against the node at simulated time ``now``."""
        if isinstance(action, SetDropPolicy):
            self.runtime.set_drop_policy(action.camera_id, action.policy)
        elif isinstance(action, SetCameraQuota):
            self.runtime.set_camera_quota(action.camera_id, action.quota)
        elif isinstance(action, SetCameraThreshold):
            self.runtime.set_camera_threshold(action.camera_id, action.threshold)
        else:
            raise TypeError(
                f"{type(action).__name__} needs a cluster actuator, not a single node"
            )


class ClusterActuator:
    """Applies control actions to a sharded cluster runtime."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    @property
    def uplink_weights(self) -> dict[str, float] | None:
        """Current shared-uplink weights (None when statically sliced)."""
        return self.cluster.current_uplink_weights()

    @property
    def uplink_guarantees(self) -> dict[str, float]:
        """Per-node guaranteed uplink bps."""
        return self.cluster.uplink_guarantees()

    def apply(self, action: ControlAction, now: float) -> None:
        """Execute one action against the cluster at simulated time ``now``."""
        nodes: Mapping[str, FleetRuntime] = self.cluster.nodes
        if isinstance(action, MigrateCamera):
            handoff = nodes[action.source].detach_camera(action.camera_id, now)
            nodes[action.destination].attach_camera(
                handoff, now, resume_time=now + action.blackout_seconds
            )
            self.cluster.record_migration(action.camera_id, action.source, action.destination)
        elif isinstance(action, SetUplinkWeights):
            self.cluster.set_uplink_weights(now, action.as_mapping())
        elif hasattr(action, "node_id"):
            NodeActuator(nodes[action.node_id], action.node_id).apply(action, now)
        else:
            raise TypeError(f"Unsupported control action {type(action).__name__}")


class ControlJournal:
    """What a control plane did and why: log, decision records, counters.

    Owns the three outputs every plane produces — one ``decision_log`` line
    per applied action, the stamped decision-record dicts, the ``control.*``
    counters — so the flat loop and both levels of the hierarchy account
    identically.  A ``level`` (``"node"`` / ``"cluster"``) scopes log lines
    (``node0/…``, ``cluster/…``) and is stamped, with the node id, into every
    record; planes interleaving into one ordered stream share the two lists
    and keep their own telemetry.
    """

    def __init__(
        self,
        decision_log: list[str] | None = None,
        decision_records: list[dict] | None = None,
        level: str | None = None,
        node_id: str | None = None,
    ) -> None:
        self.telemetry = TelemetryRegistry()
        self.decision_log = decision_log if decision_log is not None else []
        # One JSON-ready dict per DecisionRecord, stamped with tick index,
        # simulated time, its own sequence number, and the decision_log
        # indices of the actions it produced.
        self.decision_records = decision_records if decision_records is not None else []
        self.level = level
        self.node_id = node_id
        self.ticks = 0

    def open_tick(self) -> None:
        """Count one control interval."""
        self.ticks += 1
        self.telemetry.counter("control.ticks").inc()

    def commit(self, records: Sequence[DecisionRecord], now: float) -> None:
        """Log each record's actions (already applied) and stamp the record.

        A record's ``action_seqs`` are the decision_log indices its own
        actions land at, so every logged action traces back to exactly one
        decision.
        """
        scope = f"{self.node_id or self.level}/" if self.level is not None else ""
        for record in records:
            entry = record.to_dict()
            if self.level is not None:
                entry["level"] = self.level
            if self.node_id is not None:
                entry["node_id"] = self.node_id
            entry["tick"] = self.ticks - 1
            entry["t"] = now
            entry["seq"] = len(self.decision_records)
            entry["action_seqs"] = []
            for action, text in zip(record.actions, entry["actions"]):
                entry["action_seqs"].append(len(self.decision_log))
                self.decision_log.append(f"t={now:.3f} {scope}{record.controller}: {text}")
                self._count(record.controller, action)
            self.decision_records.append(entry)
            self.telemetry.counter("control.decisions.total").inc()
            if record.is_noop:
                self.telemetry.counter("control.decisions.noop").inc()

    def _count(self, controller_name: str, action: ControlAction) -> None:
        self.telemetry.counter("control.actions.total").inc()
        self.telemetry.counter(f"control.actions.{controller_name}").inc()
        if isinstance(action, SetCameraQuota) and action.quota is not None:
            self.telemetry.counter("control.shedding.interventions").inc()
        elif isinstance(action, SetCameraThreshold):
            self.telemetry.counter("control.threshold.drifts").inc()
        elif isinstance(action, MigrateCamera):
            self.telemetry.counter("control.migration.performed").inc()
        elif isinstance(action, SetUplinkWeights):
            self.telemetry.counter("control.uplink.rebalances").inc()

    def counter_value(self, name: str) -> float:
        """Current value of one control counter (0.0 when absent)."""
        return self.telemetry.counters().get(name, 0.0)


def run_controllers(
    controllers: Sequence[Controller], view: ClusterView, actuator, journal: ControlJournal
) -> list[ControlAction]:
    """One observe → decide → apply → journal pass; returns the applied actions.

    Controllers run in order against the same ``view``; the actions each
    one's records carry are applied in order and journaled before the next
    controller decides, so a later policy already acts on an actuated cluster.
    """
    applied: list[ControlAction] = []
    for controller in controllers:
        records = controller.decide(view)
        actions = [action for record in records for action in record.actions]
        for action in actions:
            actuator.apply(action, view.now)
        journal.commit(records, view.now)
        applied += actions
    return applied


def drive(control, nodes: Mapping[str, FleetRuntime], actuator) -> None:
    """Start every node and run it to completion, ticking ``control`` between intervals.

    The one lockstep driver: all nodes advance to each tick time before
    ``control.tick(now, nodes, actuator)`` observes, so it always sees a
    consistent cluster snapshot.  The run ends when no node has pending
    events (migrations can add events, so the check re-runs every tick).
    """
    for runtime in nodes.values():
        runtime.start()
    tick_time = control.interval_seconds
    while any(runtime.has_pending_events for runtime in nodes.values()):
        for runtime in nodes.values():
            runtime.advance_until(tick_time)
        control.tick(tick_time, nodes, actuator)
        tick_time += control.interval_seconds


def unique_controllers(controllers: Sequence[Controller]) -> list[Controller]:
    """``controllers`` as a list, rejecting duplicate names (they key counters)."""
    names = [c.name for c in controllers]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        raise ValueError(f"Duplicate controller names: {sorted(duplicates)}")
    return list(controllers)


class ControlLoop:
    """Ticks controllers at a fixed simulated interval and applies actions."""

    # A flat loop sees whole nodes; no per-node aggregates cross any boundary.
    payload_bytes: Sequence[int] = ()

    def __init__(
        self,
        controllers: Sequence[Controller],
        interval_seconds: float = 0.25,
    ) -> None:
        if not interval_seconds > 0:  # written so that a NaN fails it
            raise ValueError("interval_seconds must be positive")
        self.controllers = unique_controllers(controllers)
        self.interval_seconds = float(interval_seconds)
        # Optional metrics timeline: when set, every tick scrapes each node's
        # registry (plus the loop's own control counters under "control"), so
        # the time-series exporters see exactly the control-interval cadence.
        self.timeline: MetricsTimeline | None = None
        self.journal = ControlJournal()
        self.telemetry = self.journal.telemetry
        self.decision_log = self.journal.decision_log
        self.decision_records = self.journal.decision_records
        self.counter_value = self.journal.counter_value

    @property
    def ticks(self) -> int:
        """Control intervals ticked so far."""
        return self.journal.ticks

    def run_node(self, runtime: FleetRuntime, node_id: str = "node0") -> None:
        """Drive one standalone node under this loop (shedding policies)."""
        drive(self, {node_id: runtime}, NodeActuator(runtime, node_id))

    def tick(self, now: float, nodes: Mapping[str, FleetRuntime], actuator) -> list[ControlAction]:
        """Observe, decide, and actuate once; returns the applied actions."""
        self.journal.open_tick()
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            nodes=tuple(NodeView(node_id, runtime) for node_id, runtime in nodes.items()),
            horizon=max((runtime.horizon for runtime in nodes.values()), default=0.0),
            uplink_weights=actuator.uplink_weights,
            uplink_guarantees=actuator.uplink_guarantees,
        )
        applied = run_controllers(self.controllers, view, actuator, self.journal)
        self.scrape(now, nodes)
        if self.timeline is not None:
            self.timeline.scrape(now, "control", self.telemetry)
        return applied

    def scrape(self, now: float, nodes: Mapping[str, FleetRuntime]) -> None:
        """Scrape every node's registry into the timeline (no-op without one)."""
        if self.timeline is not None:
            for node_id, runtime in nodes.items():
                self.timeline.scrape(now, node_id, runtime.telemetry)

    def cluster_telemetry(self, nodes: Mapping[str, FleetRuntime]) -> TelemetryRegistry:
        """The end-of-run cluster registry: every node merged in full.

        O(cameras x metrics) — each node's whole registry under a
        ``<node_id>.`` prefix, plus this loop's own ``control.*`` counters.
        """
        registry = TelemetryRegistry()
        for node_id, runtime in nodes.items():
            registry.merge(runtime.telemetry, prefix=f"{node_id}.")
        registry.merge(self.telemetry)
        return registry
