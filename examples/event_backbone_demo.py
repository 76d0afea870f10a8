#!/usr/bin/env python3
"""Event backbone demo: detector events ride the uplink to the datacenter.

A 2-node work-conserving cluster hosts dense ``busy_intersection`` hot
cameras among steady fill cameras.  Every event a detector closes becomes
a first-class :class:`~repro.core.events.EventRecord` with a global
``(camera, epoch, id)`` key, and an
:class:`~repro.events.EventDeliveryPlane` carries the records end to end:

* each node's bounded **outbox** schedules retries with exponential
  backoff against a seeded lossy **broker** (payload loss plus ack loss —
  the outcome that manufactures duplicate deliveries);
* every publish attempt's bytes ride the cluster's shared work-conserving
  uplink, contending with frame uploads — no free side channel;
* the **datacenter ingest** dedupes on event key (idempotence end to end)
  behind a serial consumer whose queueing lag lands in delivery latency;
* a :func:`~repro.obs.alerts.delivery_burn_rule` over the metrics
  timeline pages when published records miss the ack-latency SLO faster
  than the error budget allows.

The run self-checks the delivery plane's accounting invariants (every
published record resolves to exactly one final state; the datacenter
never ingests a key twice; the loss model really retried) and exits
non-zero on violation.  Everything is simulated-clock deterministic: two
runs write bit-identical ``delivery_log.jsonl`` and
``delivery_report.json`` (the ``event_demo`` entry of ``tools/parity.py``
compares them byte for byte).

Run:  python examples/event_backbone_demo.py
Environment overrides (``tools/parity.py``'s ``event_demo`` entry sets small ones):
    EVENT_DEMO_HOT       hot high-event cameras  (default 4)
    EVENT_DEMO_FILL      steady fill cameras     (default 6)
    EVENT_DEMO_DURATION  seconds per camera      (default 3.0)
    EVENT_DEMO_OUT       output directory        (default ./event_out)
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.events import (
    BrokerConfig,
    DeliveryConfig,
    EventDeliveryPlane,
    OutboxConfig,
)
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    ShardedFleetRuntime,
    ShardingConfig,
)
from repro.obs import MetricsTimeline, delivery_burn_rule
from repro.obs.slo import DeliverySLOConfig

NUM_HOT = int(os.environ.get("EVENT_DEMO_HOT", "4"))
NUM_FILL = int(os.environ.get("EVENT_DEMO_FILL", "6"))
DURATION_SECONDS = float(os.environ.get("EVENT_DEMO_DURATION", "3.0"))
OUT_DIR = Path(os.environ.get("EVENT_DEMO_OUT", "event_out"))
NUM_NODES = 2
TOTAL_UPLINK_BPS = 300_000.0

NODE_CONFIG = FleetConfig(
    num_workers=2,
    queue_capacity=8,
    drop_policy=DropPolicy.DROP_OLDEST,
    service_time_scale=0.05,
)

# A lossy leg to the datacenter: 15% payload loss plus 5% ack loss, so
# the demo exercises retries, duplicates, and the dedupe that absorbs
# them even on a short run.
DELIVERY = DeliveryConfig(
    broker=BrokerConfig(loss_rate=0.15, ack_loss_rate=0.05, seed=17),
    outbox=OutboxConfig(max_queue=256, max_retries=4),
    consumer_rate_eps=50.0,
    slo=DeliverySLOConfig(ack_latency_seconds=0.25, objective=0.9),
)


def make_fleet() -> list[CameraSpec]:
    """Dense-event hot cameras plus steady fill."""
    cameras: list[CameraSpec] = []
    for i in range(NUM_HOT):
        cameras.append(
            CameraSpec(
                camera_id=f"hot{i:02d}",
                width=48,
                height=32,
                frame_rate=16.0,
                num_frames=max(1, int(16.0 * DURATION_SECONDS)),
                scenario="busy_intersection",
                seed=100 + i,
                event_rate_scale=3.0,
            )
        )
    scenarios = ("urban_day", "retail_entrance", "night_watch")
    for i in range(NUM_FILL):
        rate = 4.0 if i % 2 == 0 else 2.0
        cameras.append(
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=64,
                height=48,
                frame_rate=rate,
                num_frames=max(1, int(rate * DURATION_SECONDS)),
                scenario=scenarios[i % 3],
                seed=i,
            )
        )
    return cameras


def main() -> None:
    fleet = make_fleet()
    plane = EventDeliveryPlane(DELIVERY)
    timeline = MetricsTimeline()
    burn_rule = delivery_burn_rule(DELIVERY.slo, window_seconds=2.0)
    runtime = ShardedFleetRuntime(
        fleet,
        config=ShardingConfig(
            num_nodes=NUM_NODES,
            placement="load_aware",
            uplink_sharing="work_conserving",
            total_uplink_bps=TOTAL_UPLINK_BPS,
            node_config=NODE_CONFIG,
        ),
        timeline=timeline,
        alert_rules=[burn_rule],
        event_plane=plane,
    )
    print(
        f"event backbone demo: {len(fleet)} cameras on {NUM_NODES} nodes, "
        f"{DELIVERY.broker.loss_rate:.0%} broker loss + "
        f"{DELIVERY.broker.ack_loss_rate:.0%} ack loss, "
        f"ack SLO {DELIVERY.slo.ack_latency_seconds:g}s"
    )
    report = runtime.run()
    print()
    print(report.summary())

    delivery = report.delivery
    # Self-checks: the delivery plane's accounting must close exactly.
    if delivery is None or delivery.published == 0:
        sys.exit("event demo failed: no event records were published")
    if delivery.published != (
        delivery.acked + delivery.delivered_unacked + delivery.dead_letter
    ):
        sys.exit("event demo failed: published records did not all resolve")
    if plane.ingest.unique_ingests != delivery.delivered:
        sys.exit("event demo failed: datacenter ingested a key twice")
    if plane.ingest.duplicates != delivery.duped:
        sys.exit("event demo failed: duplicate accounting does not close")
    if delivery.retried == 0:
        sys.exit("event demo failed: the lossy broker never forced a retry")

    print(
        f"\ndelivered {delivery.delivered}/{delivery.published} records "
        f"({delivery.retried} retries, {delivery.duped} duplicates "
        f"suppressed, {delivery.dead_letter} dead letters, "
        f"{delivery.dropped_overflow} overflow drops)"
    )
    print(
        f"delivery latency p50={delivery.latency_p50 * 1e3:.1f}ms "
        f"p99={delivery.latency_p99 * 1e3:.1f}ms, "
        f"max consumer lag {delivery.max_consumer_lag * 1e3:.1f}ms, "
        f"{delivery.ack_violations} ack-SLO violations"
    )
    if report.alerts is not None:
        fired = [e for e in report.alerts.events if e.state == "firing"]
        print(
            f"{len(report.alerts.events)} alert transitions "
            f"({len(fired)} fired) from rule {burn_rule.name!r}"
        )

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "delivery_log.jsonl").write_text(
        plane.delivery_log_jsonl(), encoding="utf-8"
    )
    payload = {
        "cluster": delivery.to_dict(),
        "nodes": {
            node_id: plane.node_reports[node_id].to_dict()
            for node_id in plane.node_ids()
        },
    }
    (OUT_DIR / "delivery_report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"\nwrote delivery_log.jsonl, delivery_report.json to {OUT_DIR}/ "
        f"(inspect with: python tools/fleetctl.py --dir {OUT_DIR} events)"
    )


if __name__ == "__main__":
    main()
