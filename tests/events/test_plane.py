"""Unit tests for the end-to-end delivery plane (synthetic records)."""

import pytest

from repro.core.events import EventKey, EventRecord
from repro.events import BrokerConfig, DeliveryConfig, EventDeliveryPlane, OutboxConfig
from repro.events.plane import STATE_ACKED, STATE_DEAD_LETTER, STATE_DROPPED_OVERFLOW
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.slo import DeliverySLOConfig


class FakeRuntime:
    """The duck-typed surface the plane touches on a FleetRuntime."""

    def __init__(self):
        self.telemetry = TelemetryRegistry()
        self.event_sink = None


def record(camera="cam0", epoch=0, event_id=1, closed_at=1.0):
    return EventRecord(
        key=EventKey(camera, epoch, event_id),
        mc_name="mc_a",
        start=0,
        end=4,
        source_start=0,
        source_end=4,
        peak_score=0.9,
        closed_at=closed_at,
    )


def finalize_with_fixed_transport(plane, transport=0.01):
    """Complete every attempt ``transport`` seconds after its send time."""
    for attempt in plane.transfer_requests():
        attempt.start_time = attempt.available_at
        attempt.end_time = attempt.available_at + transport
    return plane.finalize()


class TestAttachAndPublish:
    def test_duplicate_attach_raises(self):
        plane = EventDeliveryPlane()
        plane.attach("node0", FakeRuntime())
        with pytest.raises(ValueError):
            plane.attach("node0", FakeRuntime())

    def test_attach_installs_sink(self):
        plane = EventDeliveryPlane()
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        assert callable(runtime.event_sink)
        runtime.event_sink(record())
        assert runtime.telemetry.counter("events.published").value == 1

    def test_publish_after_finalize_raises(self):
        plane = EventDeliveryPlane()
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        finalize_with_fixed_transport(plane)
        with pytest.raises(RuntimeError):
            runtime.event_sink(record())

    def test_finalize_twice_raises(self):
        plane = EventDeliveryPlane()
        plane.attach("node0", FakeRuntime())
        finalize_with_fixed_transport(plane)
        with pytest.raises(RuntimeError):
            plane.finalize()

    def test_log_before_finalize_raises(self):
        plane = EventDeliveryPlane()
        with pytest.raises(RuntimeError):
            plane.delivery_log_jsonl()

    def test_missing_end_time_raises(self):
        plane = EventDeliveryPlane()
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        runtime.event_sink(record())
        with pytest.raises(RuntimeError, match="never drained"):
            plane.finalize()


class TestLosslessDelivery:
    def test_every_record_acked_first_try(self):
        plane = EventDeliveryPlane()
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        for i in range(5):
            runtime.event_sink(record(event_id=i + 1, closed_at=1.0 + i))
        report = finalize_with_fixed_transport(plane, transport=0.02)
        assert report.published == 5
        assert report.acked == 5
        assert report.delivered == 5
        assert report.retried == 0
        assert report.duped == 0
        assert report.dropped == 0
        assert report.latency_p50 == pytest.approx(0.02)
        assert report.latency_p99 == pytest.approx(0.02)
        assert runtime.telemetry.counter("events.acked").value == 5

    def test_consumer_lag_adds_to_latency(self):
        plane = EventDeliveryPlane(DeliveryConfig(consumer_rate_eps=10.0))
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        # Two records close at the same instant; the serial consumer
        # (0.1 s per record) queues the second behind the first.
        runtime.event_sink(record(event_id=1, closed_at=1.0))
        runtime.event_sink(record(event_id=2, closed_at=1.0))
        report = finalize_with_fixed_transport(plane, transport=0.0)
        assert report.latency_p50 == pytest.approx(0.1)
        assert report.latency_p99 == pytest.approx(0.2)
        assert report.max_consumer_lag == pytest.approx(0.2)


class TestLossyDelivery:
    def build(self, n=400):
        plane = EventDeliveryPlane(
            DeliveryConfig(
                broker=BrokerConfig(loss_rate=0.25, ack_loss_rate=0.15, seed=13),
                outbox=OutboxConfig(max_queue=10_000, max_retries=3),
            )
        )
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        for i in range(n):
            runtime.event_sink(record(event_id=i + 1, closed_at=1.0 + 0.01 * i))
        return plane, runtime

    def test_accounting_invariants(self):
        plane, _ = self.build()
        report = finalize_with_fixed_transport(plane)
        assert report.published == 400
        assert report.published == (
            report.acked + report.delivered_unacked + report.dead_letter
        )
        assert report.retried > 0
        # Dedupe: the datacenter ingested each delivered key exactly once.
        assert plane.ingest.unique_ingests == report.delivered
        assert plane.ingest.duplicates == report.duped > 0
        # Retried records (a quarter of these) wait out a backoff window
        # before their payload can land, and the tail shows it.
        assert report.latency_p99 >= plane.config.outbox.backoff_base_seconds

    def test_every_non_dropped_record_delivered(self):
        plane, _ = self.build()
        finalize_with_fixed_transport(plane)
        for entry in plane.log_records:
            if entry["state"] == STATE_DEAD_LETTER:
                assert entry["delivered_at"] is None
            else:
                assert entry["delivered_at"] is not None
                assert entry["latency"] >= 0

    def test_log_is_byte_stable(self):
        plane_a, _ = self.build()
        plane_b, _ = self.build()
        finalize_with_fixed_transport(plane_a)
        finalize_with_fixed_transport(plane_b)
        log_a = plane_a.delivery_log_jsonl()
        assert log_a == plane_b.delivery_log_jsonl()
        assert log_a.count("\n") == 400


class TestOverflow:
    def test_overflow_records_are_dropped_and_logged(self):
        plane = EventDeliveryPlane(
            DeliveryConfig(
                outbox=OutboxConfig(
                    max_queue=1, backoff_base_seconds=10.0, backoff_cap_seconds=10.0
                )
            )
        )
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        runtime.event_sink(record(event_id=1, closed_at=1.0))
        runtime.event_sink(record(event_id=2, closed_at=1.5))  # slot still held
        report = finalize_with_fixed_transport(plane)
        assert report.published == 1
        assert report.dropped_overflow == 1
        assert report.dropped == 1
        assert runtime.telemetry.counter("events.dropped").value == 1
        states = sorted(entry["state"] for entry in plane.log_records)
        assert states == [STATE_ACKED, STATE_DROPPED_OVERFLOW]


class TestSLOViolations:
    def test_slow_deliveries_count_against_the_slo(self):
        plane = EventDeliveryPlane(
            DeliveryConfig(slo=DeliverySLOConfig(ack_latency_seconds=0.05))
        )
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        runtime.event_sink(record(event_id=1, closed_at=1.0))
        runtime.event_sink(record(event_id=2, closed_at=2.0))
        for attempt in plane.transfer_requests():
            transport = 0.01 if attempt.description.endswith("/1/a0") else 0.5
            attempt.start_time = attempt.available_at
            attempt.end_time = attempt.available_at + transport
        report = plane.finalize()
        assert report.ack_violations == 1
        assert runtime.telemetry.counter("events.ack_violations").value == 1


class TestMultiNode:
    def test_cluster_report_sums_nodes(self):
        plane = EventDeliveryPlane()
        runtimes = {f"node{i}": FakeRuntime() for i in range(3)}
        for node_id, runtime in runtimes.items():
            plane.attach(node_id, runtime)
        for i, runtime in enumerate(runtimes.values()):
            for j in range(i + 1):
                runtime.event_sink(
                    record(camera=f"cam{i}", event_id=j + 1, closed_at=1.0 + j)
                )
        cluster = finalize_with_fixed_transport(plane)
        assert plane.node_ids() == ["node0", "node1", "node2"]
        assert [plane.node_reports[n].published for n in plane.node_ids()] == [1, 2, 3]
        assert cluster.published == 6
        assert cluster.scope == "cluster"
        assert cluster.published == sum(
            plane.node_reports[n].published for n in plane.node_ids()
        )

    def test_plane_with_no_attached_nodes_finalizes_to_zero(self):
        from repro.events import DeliveryReport

        plane = EventDeliveryPlane()
        assert plane.finalize() == DeliveryReport(scope="cluster")
        assert plane.node_reports == {}
        assert plane.delivery_log_jsonl() == ""

    def test_report_serialization(self):
        plane = EventDeliveryPlane()
        runtime = FakeRuntime()
        plane.attach("node0", runtime)
        runtime.event_sink(record())
        report = finalize_with_fixed_transport(plane)
        payload = report.to_dict()
        assert payload["scope"] == "cluster"
        assert payload["published"] == 1
        assert "events[cluster]" in report.summary()
