"""End-to-end event delivery: the records an edge node actually ships.

The paper's product is filtered *events*, not frames — this package carries
a detected :class:`~repro.core.events.EventRecord` from the edge node that
closed it to the datacenter that consumes it, reliably and deterministically:

* :mod:`repro.events.broker` — a seeded, hash-deterministic QoS/loss model
  (delivered / lost / delivered-but-ack-lost per publish attempt);
* :mod:`repro.events.outbox` — per-node bounded publish queue with
  timeout-driven retries and capped exponential backoff;
* :mod:`repro.events.ingest` — idempotent datacenter ingest with global
  event-key dedupe and a serial consumer (lag modeling);
* :mod:`repro.events.plane` — the orchestrator wiring publish hooks,
  outboxes, the cluster's *shared uplink* (event bytes contend with frame
  uploads), the broker, and ingest into per-node and cluster
  :class:`~repro.events.plane.DeliveryReport`s plus a byte-stable delivery
  log.

This package never imports :mod:`repro.fleet` — the runtime owns a publish
hook; the plane duck-types it.  Everything here is simulated-clock pure:
same inputs, bit-identical outputs.
"""

from repro.events.broker import AttemptOutcome, BrokerConfig, SimulatedBroker
from repro.events.ingest import DatacenterIngest, IngestResult
from repro.events.outbox import NodeOutbox, OutboxConfig, OutboxEntry
from repro.events.plane import DeliveryConfig, DeliveryReport, EventDeliveryPlane

__all__ = [
    "AttemptOutcome",
    "BrokerConfig",
    "DatacenterIngest",
    "DeliveryConfig",
    "DeliveryReport",
    "EventDeliveryPlane",
    "IngestResult",
    "NodeOutbox",
    "OutboxConfig",
    "OutboxEntry",
    "SimulatedBroker",
]
