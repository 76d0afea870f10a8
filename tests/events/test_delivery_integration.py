"""Fleet-level delivery-plane integration: both uplink modes, the publish hook,
golden-trace safety, and the O(nodes) hierarchy-payload contract."""

import pytest

from repro.control.hierarchy import HierarchicalControlPlane, NodeAggregate, QuantileSketch
from repro.events import BrokerConfig, DeliveryConfig, EventDeliveryPlane, OutboxConfig
from repro.events.plane import RECORD_BYTES
from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import FleetConfig, FleetRuntime
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig
from repro.obs.timeline import MetricsTimeline

FAST = FleetConfig(num_workers=2, queue_capacity=8, service_time_scale=0.05)


def cameras(n=6, num_frames=40):
    return [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=48,
            height=32,
            frame_rate=8.0,
            num_frames=num_frames,
            scenario="busy_intersection",
            seed=i,
            event_rate_scale=3.0,
        )
        for i in range(n)
    ]


def delivery_config(**kwargs):
    defaults = dict(
        broker=BrokerConfig(loss_rate=0.1, ack_loss_rate=0.05, seed=9),
        outbox=OutboxConfig(max_queue=256, max_retries=4),
        consumer_rate_eps=100.0,
    )
    defaults.update(kwargs)
    return DeliveryConfig(**defaults)


def run_cluster(sharing, plane):
    runtime = ShardedFleetRuntime(
        cameras(),
        config=ShardingConfig(num_nodes=2, uplink_sharing=sharing, node_config=FAST),
        event_plane=plane,
    )
    return runtime, runtime.run()


class TestShardedDelivery:
    @pytest.fixture(scope="class", params=["static", "work_conserving"])
    def cluster(self, request):
        plane = EventDeliveryPlane(delivery_config())
        runtime, report = run_cluster(request.param, plane)
        return runtime, report, plane

    def test_cluster_report_carries_delivery(self, cluster):
        _, report, plane = cluster
        assert report.delivery is plane.cluster_report
        assert report.delivery.published > 0
        assert report.delivery.summary() in report.summary()

    def test_node_reports_carry_delivery(self, cluster):
        _, report, plane = cluster
        for node in report.nodes:
            assert node.report.delivery is plane.node_reports[node.node_id]
        assert report.delivery.published == sum(
            n.report.delivery.published for n in report.nodes
        )

    def test_every_published_record_resolves(self, cluster):
        _, report, plane = cluster
        delivery = report.delivery
        assert delivery.published == (
            delivery.acked + delivery.delivered_unacked + delivery.dead_letter
        )
        assert plane.ingest.unique_ingests == delivery.delivered
        assert len(plane.log_records) == delivery.published + delivery.dropped_overflow

    def test_delivery_counters_reach_node_telemetry(self, cluster):
        _, report, _ = cluster
        published = sum(
            node.report.telemetry.get("events.published", 0) for node in report.nodes
        )
        assert published == report.delivery.published

    def test_event_bytes_ride_the_shared_link(self, cluster):
        runtime, report, plane = cluster
        # Every admitted attempt moved RECORD_BYTES * 8 bits through the
        # cluster's shared link — no free side channel — and is one of the
        # transfers its drain completed.
        attempts = plane.transfer_requests()
        drained = {id(transfer) for transfer in runtime.shared_uplink.transfers}
        assert attempts and all(id(attempt) in drained for attempt in attempts)
        assert all(attempt.end_time is not None for attempt in attempts)
        event_bits = sum(attempt.bits for attempt in attempts)
        assert event_bits == RECORD_BYTES * 8 * len(attempts)
        assert report.total_uplink_bits >= event_bits


class TestGoldenTraceSafety:
    def test_sinkless_run_has_no_delivery_counters(self):
        """Without a plane, the runtime's telemetry is byte-identical to the
        pre-delivery-plane world: no events.* delivery metrics materialize."""
        runtime = ShardedFleetRuntime(
            cameras(), config=ShardingConfig(num_nodes=2, node_config=FAST)
        )
        report = runtime.run()
        assert report.delivery is None
        for node in report.nodes:
            delivery_keys = [
                key
                for key in node.report.telemetry
                if key.startswith("events.") and key != "events.closed"
            ]
            assert delivery_keys == []
        assert runtime.nodes["node0"].event_records, (
            "records are still collected without a sink (collection is free; "
            "only publishing is gated)"
        )


class TestPublishHook:
    def test_every_collected_record_is_published(self):
        published = []
        runtime = FleetRuntime(
            cameras(n=3),
            config=FAST,
            event_sink=published.append,
        )
        runtime.run()
        assert published == runtime.event_records and published


class TestHierarchyPayloadContract:
    # The exact upstream-message schema: adding a per-event line (or any
    # unbounded field) to NodeAggregate.to_payload() must fail this pin.
    PINNED_PAYLOAD_KEYS = {
        "node_id",
        "t",
        "cameras",
        "workers",
        "generated",
        "scored",
        "rejected",
        "dropped",
        "matched",
        "events",
        "events_published",
        "events_dropped",
        "upload_bits",
        "offered_utilization",
        "wait_count",
        "wait_sketch",
        "resolutions",
    }

    def make_aggregate(self, **overrides):
        fields = dict(
            node_id="node0",
            now=1.0,
            num_cameras=4,
            num_workers=2,
            frames_generated=100.0,
            frames_scored=90.0,
            frames_rejected=5.0,
            frames_dropped=5.0,
            frames_matched=40.0,
            events_closed=3.0,
            estimated_upload_bits=1e6,
            offered_utilization=0.5,
            window_wait_count=10,
            window_wait_sketch=QuantileSketch.from_values([0.01, 0.02]),
            resolutions=((48, 32),),
        )
        fields.update(overrides)
        return NodeAggregate(**fields)

    def test_payload_key_set_is_pinned(self):
        aggregate = self.make_aggregate(events_published=7.0, events_dropped=1.0)
        assert set(aggregate.to_payload().keys()) == self.PINNED_PAYLOAD_KEYS

    def test_payload_size_independent_of_event_count(self):
        """1000x the delivered events only changes counter digit counts."""
        small = self.make_aggregate(events_published=1.0)
        large = self.make_aggregate(events_published=1000.0)
        assert large.payload_bytes() - small.payload_bytes() <= 8

    def test_hierarchical_run_rolls_up_delivery_counters(self):
        plane = EventDeliveryPlane(delivery_config())
        timeline = MetricsTimeline()
        runtime = ShardedFleetRuntime(
            cameras(),
            config=ShardingConfig(num_nodes=2, node_config=FAST),
            hierarchy=HierarchicalControlPlane(interval_seconds=0.5),
            timeline=timeline,
            event_plane=plane,
        )
        report = runtime.run()
        assert report.delivery is not None
        assert report.delivery.published > 0
        # The coordinator's fixed-size rollup saw the published counters the
        # nodes accumulated mid-run (finalize-time counters land after the
        # last tick, so the gauge is a lower bound).
        rollup = report.telemetry.get("cluster.events.published")
        assert rollup is not None and rollup["value"] >= 0
        assert report.coordination_payload_bytes, "hierarchy must have ticked"


class TestTailRecordsReachTheSinkInCloseOrder:
    def test_generated_fleet_with_open_tail_events_completes(self):
        """finalize() once offered flush-closed tails in camera order.

        Two cameras holding an open event at end-of-stream close at their
        own ``max(stint end, last completion)``; handed over in camera
        order, the second could precede the first and the node's outbox
        refused it (``offers must arrive in non-decreasing closed_at
        order``).  Any ``generate_fleet`` fleet of this size has such a pair.
        """
        from repro.fleet.camera import generate_fleet

        plane = EventDeliveryPlane()
        runtime = ShardedFleetRuntime(
            generate_fleet(16, seed=0, duration_seconds=4.0),
            ShardingConfig(num_nodes=2),
            event_plane=plane,
        )
        report = runtime.run()
        delivery = report.delivery
        collected = sum(len(node.event_records) for node in runtime.nodes.values())
        assert delivery.published == collected > 0
        assert delivery.published == delivery.delivered + delivery.dropped
        # Tails were really involved, and each node's sink saw them in order.
        for node in runtime.nodes.values():
            closes = [record.closed_at for record in node.event_records]
            assert closes == sorted(closes)
        assert any(
            record.closed_at >= node_report.report.sim_duration
            for node_report in report.nodes
            for record in runtime.nodes[node_report.node_id].event_records
        )
