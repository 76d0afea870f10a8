"""Hierarchical control plane: node-local loops plus a cluster coordinator.

The flat :class:`~repro.control.loop.ControlLoop` shows every controller
every node's full runtime each tick and merges every node's full telemetry
registry into the cluster report — O(cameras x metrics) of cluster-side
work per interval.  That tops out around tens of cameras; the paper's
premise (edge nodes do the heavy lifting locally, the datacenter sees only
what must travel) applies to the *control plane* too.

This module adds no policy of its own: it arranges the one policy set,
journal and actuators of :mod:`repro.control.loop`,
:mod:`repro.control.uplink` and :mod:`repro.control.migration` in two levels.

* :class:`NodeControlPlane` — one per edge node.  Local policies (shedding,
  threshold drift — anything emitting node-scope actions) run the flat loop's pass over that node alone and actuate it
  directly.  The plane then distills the node into one
  :class:`NodeAggregate`: a **fixed-size** summary — counts, rates, an
  offered-utilization estimate, and a mergeable :class:`QuantileSketch` of
  the interval's queue waits — whose serialized size is independent of how
  many cameras the node hosts.
* :class:`ClusterCoordinator` — shows an
  :class:`~repro.control.uplink.UplinkShareController` and a
  :class:`~repro.control.migration.MigrationController` *only* the
  aggregates, which answer the small read surface cluster-scope policies
  use of a :class:`~repro.control.policies.NodeView` (``node_id``, a
  matched-frame counter, an offered utilization).  The migration gate names
  a ``(source, destination)`` pair and the source's plane picks the camera,
  so per-camera detail never crosses the node boundary.

:class:`HierarchicalControlPlane` wires the two levels to a sharded
cluster runtime: per-interval cluster coordination exchanges exactly one
aggregate per node upstream and one uplink guarantee per node downstream —
O(nodes), asserted by the kilocamera test in ``tests/control/test_hierarchy.py``
via :attr:`HierarchicalControlPlane.payload_bytes`.  Decision provenance is
stamped at both levels (``level="node"`` / ``level="cluster"``) into one
globally ordered record stream, and the metrics timeline is scraped at
both levels (per-node sources plus a fixed-size ``"cluster"`` rollup).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

from repro.control.loop import (
    ControlJournal,
    NodeActuator,
    run_controllers,
    unique_controllers,
)
from repro.control.migration import (
    MigrationConfig,
    MigrationController,
    offered_utilization,
    pick_victim,
)
from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
)
from repro.control.provenance import CandidateScore, DecisionRecord
from repro.control.shedding import AdaptiveSheddingController
from repro.control.uplink import UplinkShareController
from repro.control.value import ThresholdDriftController
from repro.fleet.runtime import FleetRuntime
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline

__all__ = [
    "QuantileSketch",
    "NodeAggregate",
    "NodeControlPlane",
    "ClusterCoordinator",
    "HierarchicalControlPlane",
    "default_local_controllers",
]

# Counter families every NodeAggregate carries.  Fixed list = fixed payload.
_AGGREGATE_COUNTERS = (
    ("frames_generated", "frames.generated"),
    ("frames_scored", "frames.scored"),
    ("frames_rejected", "frames.rejected"),
    ("frames_matched", "frames.matched"),
    ("events_closed", "events.closed"),
    ("estimated_upload_bits", "uplink.estimated_bits"),
    # Delivery-plane summary: fixed scalar counters, never per-event lines,
    # so the per-tick payload stays O(1) per node with the plane attached.
    ("events_published", "events.published"),
    ("events_dropped", "events.dropped"),
)
_AGGREGATE_FIELDS = {metric: name for name, metric in _AGGREGATE_COUNTERS}


@dataclass(frozen=True)
class QuantileSketch:
    """Fixed-size mergeable quantile summary over ``(value, weight)`` centroids.

    Values compress into at most ``max_centroids`` (32) weight-balanced
    centroids (sorted by value), so the sketch's size — and its serialized
    payload — is bounded no matter how many observations fed it.  Merging
    concatenates and re-compresses; quantiles are weighted nearest-rank over
    centroids.
    Everything is deterministic: same inputs, same centroids.
    """

    centroids: tuple[tuple[float, float], ...] = ()
    max_centroids: ClassVar[int] = 32

    @classmethod
    def _compress(
        cls, centroids: Sequence[tuple[float, float]]
    ) -> tuple[tuple[float, float], ...]:
        max_centroids = cls.max_centroids
        if len(centroids) <= max_centroids:
            return tuple(centroids)
        total = sum(w for _, w in centroids)
        per_bucket = total / max_centroids
        out: list[tuple[float, float]] = []
        acc_value = 0.0
        acc_weight = 0.0
        for value, weight in centroids:
            acc_value += value * weight
            acc_weight += weight
            if acc_weight >= per_bucket and len(out) < max_centroids - 1:
                out.append((acc_value / acc_weight, acc_weight))
                acc_value = 0.0
                acc_weight = 0.0
        if acc_weight > 0.0:
            out.append((acc_value / acc_weight, acc_weight))
        return tuple(out)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "QuantileSketch":
        """Build a sketch from raw observations."""
        singles = tuple((float(v), 1.0) for v in sorted(float(v) for v in values))
        return cls(cls._compress(singles))

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """The sketch of the combined distributions (size stays bounded)."""
        return QuantileSketch(self._compress(sorted(self.centroids + other.centroids)))

    @property
    def count(self) -> float:
        """Total observation weight behind this sketch."""
        return sum(w for _, w in self.centroids)

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (weighted nearest-rank; q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self.centroids:
            return 0.0
        total = self.count
        rank = max(1.0, math.ceil(q / 100.0 * total))
        cumulative = 0.0
        for value, weight in self.centroids:
            cumulative += weight
            if cumulative >= rank:
                return value
        return self.centroids[-1][0]

    def to_payload(self) -> list[list[float]]:
        """JSON-ready ``[[value, weight], ...]`` — at most ``max_centroids`` pairs."""
        return [[round(v, 9), round(w, 6)] for v, w in self.centroids]


@dataclass(frozen=True)
class NodeAggregate:
    """One node's fixed-size per-interval summary — all the cluster ever sees.

    Counts and rates are cumulative counter values; ``offered_utilization``
    and the queue-wait sketch describe the last control interval.  The
    serialized payload (:meth:`to_payload`) is bounded by a constant: the
    sketch holds at most ``max_centroids`` centroids and ``resolutions`` is
    bounded by the fleet's resolution palette, never by camera count.
    """

    node_id: str
    now: float
    num_cameras: int
    num_workers: int
    frames_generated: float
    frames_scored: float
    frames_rejected: float
    frames_dropped: float
    frames_matched: float
    events_closed: float
    estimated_upload_bits: float
    offered_utilization: float
    window_wait_count: int
    window_wait_sketch: QuantileSketch
    resolutions: tuple[tuple[int, int], ...]
    events_published: float = 0.0
    events_dropped: float = 0.0

    def counter_value(self, name: str) -> float:
        """One carried counter by its node-registry name (else ``KeyError``).

        The read surface cluster-scope policies share with ``NodeView``.
        """
        return getattr(self, _AGGREGATE_FIELDS[name])

    def to_payload(self) -> dict:
        """The JSON-ready upstream message (what crosses the node boundary)."""
        return {
            "node_id": self.node_id,
            "t": round(self.now, 9),
            "cameras": self.num_cameras,
            "workers": self.num_workers,
            "generated": self.frames_generated,
            "scored": self.frames_scored,
            "rejected": self.frames_rejected,
            "dropped": self.frames_dropped,
            "matched": self.frames_matched,
            "events": self.events_closed,
            "events_published": self.events_published,
            "events_dropped": self.events_dropped,
            "upload_bits": self.estimated_upload_bits,
            "offered_utilization": round(self.offered_utilization, 9),
            "wait_count": self.window_wait_count,
            "wait_sketch": self.window_wait_sketch.to_payload(),
            "resolutions": [list(r) for r in self.resolutions],
        }

    def payload_bytes(self) -> int:
        """Serialized size of the upstream message in bytes."""
        return len(
            json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")).encode()
        )


def default_local_controllers(node_id: str) -> list[Controller]:
    """The local policy set a node runs when none is injected.

    Shedding (windowed queue-wait p99 and the estimated backlog on the
    node's own uplink guarantee) plus threshold drift (a no-op on nodes without the accuracy
    plane).  Uplink re-weighting and migration are cluster-scope and live in
    the coordinator.
    """
    return [AdaptiveSheddingController(), ThresholdDriftController()]


class NodeControlPlane:
    """One node's local control loop plus its aggregate distiller.

    A tick is the flat loop's pass (:func:`~repro.control.loop.run_controllers`)
    over a single-node :class:`~repro.control.policies.ClusterView` — the
    only cluster-scope input is the node's own uplink guarantee, which it
    reads off its link port — applied through a
    :class:`~repro.control.loop.NodeActuator`.  The tick then distills the
    node into a :class:`NodeAggregate` for the coordinator.
    """

    def __init__(
        self,
        node_id: str,
        runtime: FleetRuntime,
        controllers: Sequence[Controller] | None = None,
        interval_seconds: float = 0.25,
        decision_log: list[str] | None = None,
        decision_records: list[dict] | None = None,
    ) -> None:
        if not interval_seconds > 0:  # written so that a NaN fails it
            raise ValueError("interval_seconds must be positive")
        self.node_id = node_id
        self.runtime = runtime
        self.controllers = unique_controllers(
            controllers if controllers is not None else default_local_controllers(node_id)
        )
        self.interval_seconds = float(interval_seconds)
        self.actuator = NodeActuator(runtime, node_id)
        # The log and record lists are shared with the hierarchy when driven
        # by one (global ordering); standalone planes keep their own.
        self.journal = ControlJournal(
            decision_log=decision_log,
            decision_records=decision_records,
            level="node",
            node_id=node_id,
        )
        self.counter_value = self.journal.counter_value
        self._wait_index = 0
        self._last_generated: dict[str, int] = {}

    # -- the local loop --------------------------------------------------------
    def tick(self, now: float, horizon: float) -> NodeAggregate:
        """Run local policies once, then summarize the node for the cluster."""
        self.journal.open_tick()
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            nodes=(NodeView(self.node_id, self.runtime),),
            horizon=horizon,
            uplink_guarantees=self.actuator.uplink_guarantees,
        )
        run_controllers(self.controllers, view, self.actuator, self.journal)
        return self.aggregate(now)

    def aggregate(self, now: float) -> NodeAggregate:
        """Distill the node's current state into its fixed-size summary."""
        counters = self.runtime.telemetry.counters()
        fields = {name: counters.get(metric, 0.0) for name, metric in _AGGREGATE_COUNTERS}
        dropped = counters.get("frames.dropped_oldest", 0.0) + counters.get(
            "frames.dropped_newest", 0.0
        )
        hist = self.runtime.telemetry.histogram("latency.queue_wait_seconds")
        window = hist.values[max(0, self._wait_index - hist.discarded) :]
        self._wait_index = hist.count
        live = self.runtime.camera_live_stats()
        workers = self.runtime.workers.num_workers
        return NodeAggregate(
            node_id=self.node_id,
            now=now,
            num_cameras=len(live),
            num_workers=workers,
            frames_dropped=dropped,
            # Measured here so only the scalar — not per-camera counters —
            # travels to the coordinator's migration gate.
            offered_utilization=offered_utilization(
                self._last_generated, live, workers, self.interval_seconds
            ),
            window_wait_count=len(window),
            window_wait_sketch=QuantileSketch.from_values(window),
            resolutions=tuple(sorted({stats.resolution for stats in live.values()})),
            **fields,
        )

    # -- migration victim selection (coordinator-delegated) --------------------
    def nominate_victim(
        self,
        destination: NodeAggregate,
        source_utilization: float,
        remaining_seconds: float,
        migration: MigrationController,
    ) -> tuple[MigrateCamera | None, tuple[CandidateScore, ...]]:
        """Pick this node's best camera to hand to ``destination``.

        The coordinator's ``migration`` gate decided *that* a move should
        happen (from aggregates); choosing *which* camera needs per-camera
        stats, so :func:`~repro.control.migration.pick_victim` runs here.
        """
        return pick_victim(
            NodeView(self.node_id, self.runtime),
            destination.node_id,
            destination.resolutions,
            source_utilization,
            destination.offered_utilization,
            remaining_seconds,
            migration.config,
            migration.camera_cooldowns,
        )



class ClusterCoordinator:
    """Cluster-scope decisions from per-node aggregates — never full registries.

    Owns no policy of its own: it holds the flat plane's two cluster-scope
    controllers — renamed ``cluster_uplink`` / ``cluster_migration`` so
    records and log lines say which level decided — and shows them one
    :class:`NodeAggregate` per node where the flat loop shows full views.
    Uplink re-weighting reads each aggregate's cumulative ``frames.matched``;
    the migration gate reads its offered utilization and names a
    ``(source, destination)`` pair, and the source node picks the camera.
    """

    def __init__(self, migration_config: MigrationConfig | None = None) -> None:
        self.uplink = UplinkShareController()
        self.uplink.name = "cluster_uplink"
        self.migration = MigrationController(migration_config)
        self.migration.name = "cluster_migration"


class HierarchicalControlPlane:
    """Two-level control over a sharded cluster: local loops + coordinator.

    Fills :class:`repro.fleet.sharding.ShardedFleetRuntime`'s control slot
    with the same surface as the flat loop (``tick`` / ``scrape`` /
    ``cluster_telemetry`` / the journal fields).  Each :meth:`tick` runs
    every node's local loop, ships one :class:`NodeAggregate` per node to
    the :class:`ClusterCoordinator`, applies the cluster actions, and
    maintains a fixed-size cluster telemetry rollup (gauges derived from
    aggregates — never a full registry merge).  :attr:`payload_bytes`
    records each tick's total coordination payload, the quantity the scale
    benchmark pins as O(nodes).
    """

    def __init__(
        self,
        controllers_factory: Callable[[str], Sequence[Controller]] | None = None,
        interval_seconds: float = 0.25,
        coordinator: ClusterCoordinator | None = None,
    ) -> None:
        if not interval_seconds > 0:  # written so that a NaN fails it
            raise ValueError("interval_seconds must be positive")
        self.controllers_factory = controllers_factory or default_local_controllers
        self.interval_seconds = float(interval_seconds)
        self.coordinator = coordinator or ClusterCoordinator()
        self.timeline: MetricsTimeline | None = None
        self.planes: dict[str, NodeControlPlane] = {}
        self.journal = ControlJournal(level="cluster")
        self.telemetry = self.journal.telemetry
        self.decision_log = self.journal.decision_log
        self.decision_records = self.journal.decision_records
        self.payload_bytes: list[int] = []

    @property
    def ticks(self) -> int:
        """Control intervals ticked so far."""
        return self.journal.ticks

    # -- wiring ----------------------------------------------------------------
    def bind(self, nodes: Mapping[str, FleetRuntime]) -> None:
        """Create one local plane per node, journaling into this plane's stream."""
        self.planes = {
            node_id: NodeControlPlane(
                node_id,
                runtime,
                controllers=self.controllers_factory(node_id),
                interval_seconds=self.interval_seconds,
                decision_log=self.decision_log,
                decision_records=self.decision_records,
            )
            for node_id, runtime in sorted(nodes.items())
        }

    # -- one control interval --------------------------------------------------
    def tick(
        self, now: float, nodes: Mapping[str, FleetRuntime], actuator
    ) -> list[ControlAction]:
        """Local loops, aggregate exchange, cluster decisions — one interval."""
        if not self.planes:
            self.bind(nodes)
        self.journal.open_tick()
        horizon = max((runtime.horizon for runtime in nodes.values()), default=0.0)
        # Level 1: every node runs its local loop, then sends one aggregate up.
        aggregates = {
            node_id: plane.tick(now, horizon) for node_id, plane in self.planes.items()
        }
        payload = sum(agg.payload_bytes() for agg in aggregates.values())
        self.payload_bytes.append(payload)
        # Level 2: the coordinator's controllers see aggregates where the
        # flat loop's see whole nodes.
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            nodes=tuple(aggregates.values()),
            horizon=horizon,
            uplink_weights=actuator.uplink_weights,
        )
        applied = run_controllers([self.coordinator.uplink], view, actuator, self.journal)
        migration = self.coordinator.migration
        record = migration.gate(
            {node_id: agg.offered_utilization for node_id, agg in aggregates.items()}
        )
        if not isinstance(record, DecisionRecord):
            source, destination = record
            action, candidates = self.planes[source].nominate_victim(
                aggregates[destination],
                aggregates[source].offered_utilization,
                view.remaining_seconds,
                migration,
            )
            record = migration.resolve(now, action, candidates)
        for move in record.actions:
            actuator.apply(move, now)
        self.journal.commit([record], now)
        applied += record.actions
        self._update_rollup(now, aggregates, payload)
        self.scrape(now, nodes)
        return applied

    def scrape(self, now: float, nodes: Mapping[str, FleetRuntime]) -> None:
        """Scrape both levels: every node's registry, then the cluster rollup."""
        if self.timeline is not None:
            for node_id in sorted(nodes):
                self.timeline.scrape(now, node_id, nodes[node_id].telemetry)
            self.timeline.scrape(now, "cluster", self.telemetry)

    def cluster_telemetry(self, nodes: Mapping[str, FleetRuntime]) -> TelemetryRegistry:
        """The end-of-run cluster registry: the fixed-size rollup.

        Per-node registries are never merged in — the gauges derived from
        aggregates each tick *are* the cluster's telemetry, so assembling
        the report costs O(nodes), not O(cameras x metrics).
        """
        return self.telemetry

    # -- cluster rollup (O(nodes) per tick, fixed metric set) ------------------
    def _update_rollup(
        self, now: float, aggregates: Mapping[str, NodeAggregate], payload: int
    ) -> None:
        gauges = self.telemetry.gauge
        gauges("cluster.nodes").set(len(aggregates))
        gauges("cluster.cameras").set(sum(a.num_cameras for a in aggregates.values()))
        for name, metric in _AGGREGATE_COUNTERS:
            gauges(f"cluster.{metric}").set(sum(getattr(a, name) for a in aggregates.values()))
        gauges("cluster.frames.dropped").set(
            sum(a.frames_dropped for a in aggregates.values())
        )
        merged = QuantileSketch()
        for node_id in sorted(aggregates):
            merged = merged.merge(aggregates[node_id].window_wait_sketch)
        gauges("cluster.queue_wait.window_p99").set(merged.percentile(99))
        utilizations = [a.offered_utilization for a in aggregates.values()]
        gauges("cluster.offered_utilization.max").set(max(utilizations, default=0.0))
        gauges("cluster.offered_utilization.mean").set(
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        gauges("cluster.coordination.payload_bytes").set(payload)
        gauges("cluster.migrations.performed").set(len(self.coordinator.migration.migrations))

    def counter_value(self, name: str) -> float:
        """One control counter summed across the coordinator and all planes."""
        return self.journal.counter_value(name) + sum(
            plane.counter_value(name) for plane in self.planes.values()
        )
