"""The event delivery plane: outbox -> shared uplink -> broker -> ingest.

:class:`EventDeliveryPlane` wires one cluster's event path end to end:

1. each node's :class:`~repro.fleet.runtime.FleetRuntime` publish hook feeds
   records into a per-node :class:`~repro.events.outbox.NodeOutbox`
   (bounded; overflow drops are explicit);
2. every admitted attempt becomes a transfer on the cluster's *existing*
   shared uplink — event bytes contend with frame uploads for the same
   capacity, they do not get a free side channel;
3. the :class:`~repro.events.broker.SimulatedBroker` decides each attempt's
   fate (delivered / lost / ack lost) from a seeded hash;
4. delivered payloads land in the idempotent
   :class:`~repro.events.ingest.DatacenterIngest`, which dedupes by global
   event key and models consumer lag.

**Delivery latency** of a record is *first successful ingest completion
minus the record's close time* — it includes retransmit backoff, uplink
queueing behind frame uploads, and datacenter consumer lag.

The plane never imports :mod:`repro.fleet`; it duck-types the runtime
(``event_sink`` attribute, ``telemetry`` registry with ``counter`` /
``histogram``), which keeps the dependency arrow pointing one way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.events import EventRecord
from repro.edge.uplink import SharedTransferRequest
from repro.events.broker import AttemptOutcome, BrokerConfig, SimulatedBroker
from repro.events.ingest import DatacenterIngest
from repro.events.outbox import NodeOutbox, OutboxConfig, OutboxEntry
from repro.fleet.telemetry import nearest_rank
from repro.obs.slo import DeliverySLOConfig

__all__ = [
    "DeliveryConfig",
    "DeliveryReport",
    "EventDeliveryPlane",
    "nearest_rank_percentile",
]

# Final states a published record can end a run in (the delivery log's
# ``state`` field).  "delivered_unacked" means the payload reached the
# datacenter but every ack was lost — the sender gave up, the record is
# safe; only dedupe distinguishes it from a duplicate storm.
STATE_ACKED = "acked"
STATE_DELIVERED_UNACKED = "delivered_unacked"
STATE_DEAD_LETTER = "dead_letter"
STATE_DROPPED_OVERFLOW = "dropped_overflow"

RECORD_BYTES = 256  # what one delivery attempt of one event record moves over the link

# What finalize() tallies per node and sums for the cluster.
TALLY_KEYS = (
    "published",
    "acked",
    "delivered_unacked",
    "dead_letter",
    "retried",
    "duped",
    "ack_violations",
)


def nearest_rank_percentile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    return nearest_rank(sorted_values, q)


@dataclass(frozen=True)
class DeliveryConfig:
    """End-to-end knobs of the delivery plane."""

    broker: BrokerConfig = field(default_factory=BrokerConfig)
    outbox: OutboxConfig = field(default_factory=OutboxConfig)
    consumer_rate_eps: float = 0.0
    slo: DeliverySLOConfig | None = None

    def __post_init__(self) -> None:
        if self.consumer_rate_eps < 0:
            raise ValueError("consumer_rate_eps must be non-negative")


@dataclass(frozen=True)
class DeliveryReport:
    """Delivery accounting for one node (or ``scope="cluster"``).

    Fixed-size by construction: counts and percentiles only, never
    per-event lines — the same O(nodes) discipline the hierarchy plane's
    ``NodeAggregate`` enforces.
    """

    scope: str
    published: int = 0
    acked: int = 0
    delivered_unacked: int = 0
    dead_letter: int = 0
    dropped_overflow: int = 0
    retried: int = 0
    duped: int = 0
    ack_violations: int = 0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    max_consumer_lag: float = 0.0

    @property
    def delivered(self) -> int:
        """Records whose payload reached the datacenter exactly once."""
        return self.acked + self.delivered_unacked

    @property
    def dropped(self) -> int:
        """Records the plane lost: outbox overflow plus dead letters."""
        return self.dropped_overflow + self.dead_letter

    def to_dict(self) -> dict:
        """JSON-friendly form for report artifacts."""
        return {
            "scope": self.scope,
            "published": self.published,
            "acked": self.acked,
            "delivered_unacked": self.delivered_unacked,
            "dead_letter": self.dead_letter,
            "dropped_overflow": self.dropped_overflow,
            "retried": self.retried,
            "duped": self.duped,
            "ack_violations": self.ack_violations,
            "latency_p50": round(self.latency_p50, 6),
            "latency_p99": round(self.latency_p99, 6),
            "max_consumer_lag": round(self.max_consumer_lag, 6),
        }

    def summary(self) -> str:
        """A one-line human-readable delivery standing."""
        return (
            f"events[{self.scope}]: published {self.published} | "
            f"delivered {self.delivered} ({self.acked} acked) | "
            f"retried {self.retried}, duped {self.duped}, dropped {self.dropped} | "
            f"latency p50 {self.latency_p50:.3f}s p99 {self.latency_p99:.3f}s | "
            f"consumer lag max {self.max_consumer_lag:.3f}s"
        )


@dataclass
class _Publish:
    """One admitted record's full plan and (post-finalize) outcome."""

    node_id: str
    record: EventRecord
    entry: OutboxEntry
    outcomes: tuple[AttemptOutcome, ...]
    delivered_at: float | None = None
    dup_arrivals: int = 0

    @property
    def key(self) -> str:
        return str(self.record.key)

    @property
    def state(self) -> str:
        if self.outcomes[-1].acked:
            return STATE_ACKED
        if any(outcome.reaches_datacenter for outcome in self.outcomes):
            return STATE_DELIVERED_UNACKED
        return STATE_DEAD_LETTER


class EventDeliveryPlane:
    """Deterministic end-to-end event delivery over the shared uplink."""

    def __init__(self, config: DeliveryConfig | None = None) -> None:
        self.config = config or DeliveryConfig()
        self.broker = SimulatedBroker(self.config.broker)
        self.ingest = DatacenterIngest(self.config.consumer_rate_eps)
        self._outboxes: dict[str, NodeOutbox] = {}
        self._telemetry: dict[str, object] = {}
        self._publishes: list[_Publish] = []
        self._overflow_records: list[tuple[str, EventRecord]] = []
        self._finalized = False
        self.node_reports: dict[str, DeliveryReport] = {}
        self.cluster_report: DeliveryReport | None = None
        # Delivery-log lines (dicts, deterministic order) built at finalize.
        self.log_records: list[dict] = []

    # -- node attachment -----------------------------------------------------
    def attach(self, node_id: str, runtime) -> None:
        """Install this plane as ``runtime``'s publish hook.

        ``runtime`` duck-types :class:`repro.fleet.runtime.FleetRuntime`:
        only its ``event_sink`` attribute and ``telemetry`` registry are
        touched.
        """
        if node_id in self._outboxes:
            raise ValueError(f"node {node_id!r} is already attached")
        outbox = NodeOutbox(node_id, self.config.outbox)
        self._outboxes[node_id] = outbox
        self._telemetry[node_id] = runtime.telemetry
        runtime.event_sink = lambda record: self._publish(node_id, record)

    def _publish(self, node_id: str, record: EventRecord) -> None:
        if self._finalized:
            raise RuntimeError("cannot publish after finalize()")
        telemetry = self._telemetry[node_id]
        key = str(record.key)
        outcomes = tuple(self.broker.plan(key, self.config.outbox.max_attempts))
        entry = self._outboxes[node_id].offer(
            key, record.closed_at, RECORD_BYTES * 8, len(outcomes)
        )
        if entry is None:
            self._overflow_records.append((node_id, record))
            telemetry.counter("events.dropped").inc()
            return
        telemetry.counter("events.published").inc()
        if entry.attempts > 1:
            telemetry.counter("events.retried").inc(entry.attempts - 1)
        self._publishes.append(
            _Publish(node_id=node_id, record=record, entry=entry, outcomes=outcomes)
        )

    # -- uplink integration --------------------------------------------------
    def attempt_description(self, node_id: str, key: str, attempt: int) -> str:
        """The transfer description of one publish attempt (globally unique)."""
        return f"evt/{node_id}/{key}/a{attempt}"

    def transfer_requests(self) -> list[SharedTransferRequest]:
        """Every attempt of every admitted record, as shared-uplink requests.

        Event bytes ride the same link as frame uploads: the caller hands
        them to the shared uplink's drain, which time-orders them with every
        node's video, so event delivery contends for the same capacity.
        """
        return [
            SharedTransferRequest(
                node_id=publish.node_id,
                bits=publish.entry.bits,
                available_at=send_time,
                description=self.attempt_description(publish.node_id, publish.key, attempt),
            )
            for publish in self._publishes
            for attempt, send_time in enumerate(publish.entry.send_times)
        ]

    def node_ids(self) -> list[str]:
        """Attached nodes, in attach order."""
        return list(self._outboxes)

    # -- finalization --------------------------------------------------------
    def finalize(self, attempt_end_times: dict[str, float]) -> DeliveryReport:
        """Resolve every record's fate once the uplink replay has run.

        ``attempt_end_times`` maps each attempt's transfer description to
        the simulated time its last bit cleared the shared link (= arrival
        at the broker/datacenter).  Returns the cluster report; per-node
        reports land in :attr:`node_reports` and per-node telemetry gains
        the post-hoc delivery counters and the latency histogram.
        """
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True

        arrivals: list[tuple[float, str, _Publish]] = []
        for publish in self._publishes:
            for attempt, outcome in enumerate(publish.outcomes):
                if not outcome.reaches_datacenter:
                    continue
                description = self.attempt_description(
                    publish.node_id, publish.key, attempt
                )
                if description not in attempt_end_times:
                    raise KeyError(f"no uplink end time for attempt {description!r}")
                arrivals.append((attempt_end_times[description], description, publish))
        arrivals.sort(key=lambda a: (a[0], a[1]))

        for arrived_at, _, publish in arrivals:
            result = self.ingest.ingest(publish.key, arrived_at)
            if result.accepted:
                publish.delivered_at = result.completed_at
            else:
                publish.dup_arrivals += 1

        slo = self.config.slo
        per_node_latencies: dict[str, list[float]] = {n: [] for n in self._outboxes}
        counts: dict[str, dict[str, int]] = {
            n: dict.fromkeys(TALLY_KEYS, 0) for n in self._outboxes
        }
        for publish in self._publishes:
            node = publish.node_id
            telemetry = self._telemetry[node]
            tally = counts[node]
            tally["published"] += 1
            tally["retried"] += publish.entry.attempts - 1
            state = publish.state
            if publish.dup_arrivals:
                tally["duped"] += publish.dup_arrivals
                telemetry.counter("events.duped").inc(publish.dup_arrivals)
            if state == STATE_ACKED:
                tally["acked"] += 1
                telemetry.counter("events.acked").inc()
            elif state == STATE_DELIVERED_UNACKED:
                tally["delivered_unacked"] += 1
            else:
                tally["dead_letter"] += 1
                telemetry.counter("events.dropped").inc()
            latency = None
            if publish.delivered_at is not None:
                latency = publish.delivered_at - publish.record.closed_at
                per_node_latencies[node].append(latency)
                telemetry.histogram("events.delivery_latency_seconds").observe(latency)
            if slo is not None and (latency is None or latency > slo.ack_latency_seconds):
                tally["ack_violations"] += 1
                telemetry.counter("events.ack_violations").inc()

        self.node_reports = {
            node: self._build_report(
                node,
                counts[node],
                per_node_latencies[node],
                self._outboxes[node].dropped,
            )
            for node in self._outboxes
        }
        all_latencies = [lat for lats in per_node_latencies.values() for lat in lats]
        cluster_counts = {
            metric: sum(tally[metric] for tally in counts.values()) for metric in TALLY_KEYS
        }
        self.cluster_report = self._build_report(
            "cluster",
            cluster_counts,
            all_latencies,
            sum(outbox.dropped for outbox in self._outboxes.values()),
        )
        self._build_log()
        return self.cluster_report

    def _build_report(
        self, scope: str, tally: dict[str, int], latencies: list[float], overflow: int
    ) -> DeliveryReport:
        latencies = sorted(latencies)
        return DeliveryReport(
            scope=scope,
            published=tally["published"],
            acked=tally["acked"],
            delivered_unacked=tally["delivered_unacked"],
            dead_letter=tally["dead_letter"],
            dropped_overflow=overflow,
            retried=tally["retried"],
            duped=tally["duped"],
            ack_violations=tally["ack_violations"],
            latency_p50=nearest_rank_percentile(latencies, 0.50),
            latency_p99=nearest_rank_percentile(latencies, 0.99),
            # The consumer is a datacenter-side (cluster) resource; its lag
            # has no per-node decomposition.
            max_consumer_lag=self.ingest.max_consumer_lag if scope == "cluster" else 0.0,
        )

    def _build_log(self) -> None:
        lines: list[dict] = []
        for publish in self._publishes:
            entry = publish.record.to_dict()
            entry.update(
                {
                    "node": publish.node_id,
                    "state": publish.state,
                    "attempts": publish.entry.attempts,
                    "dup_suppressed": publish.dup_arrivals,
                    "delivered_at": (
                        round(publish.delivered_at, 6)
                        if publish.delivered_at is not None
                        else None
                    ),
                    "latency": (
                        round(publish.delivered_at - publish.record.closed_at, 6)
                        if publish.delivered_at is not None
                        else None
                    ),
                }
            )
            lines.append(entry)
        for node_id, record in self._overflow_records:
            entry = record.to_dict()
            entry.update(
                {
                    "node": node_id,
                    "state": STATE_DROPPED_OVERFLOW,
                    "attempts": 0,
                    "dup_suppressed": 0,
                    "delivered_at": None,
                    "latency": None,
                }
            )
            lines.append(entry)
        lines.sort(key=lambda e: (e["closed_at"], e["key"]))
        self.log_records = lines

    def delivery_log_jsonl(self) -> str:
        """The delivery log as byte-stable JSONL (one record per line)."""
        if not self._finalized:
            raise RuntimeError("finalize() must run before exporting the delivery log")
        return "".join(
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            for entry in self.log_records
        )
