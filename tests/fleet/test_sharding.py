"""Sharded cluster runtime: aggregation, determinism, shared uplink slicing."""

import pytest

from repro.events import DeliveryConfig, EventDeliveryPlane
from repro.fleet.camera import generate_fleet
from repro.fleet.placement import estimate_camera_cost
from repro.fleet.runtime import FleetConfig
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline

FAST_NODE = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def small_fleet(num_cameras=6):
    return generate_fleet(
        num_cameras,
        seed=2,
        duration_seconds=1.5,
        resolutions=((48, 32), (64, 48)),
        frame_rates=(4.0, 10.0),
    )


def run_cluster(num_cameras=6, **config_kwargs):
    config_kwargs.setdefault("num_nodes", 2)
    config_kwargs.setdefault("node_config", FAST_NODE)
    config = ShardingConfig(**config_kwargs)
    return ShardedFleetRuntime(small_fleet(num_cameras), config=config).run()


class TestShardingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardingConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ShardingConfig(total_uplink_bps=0.0)
        with pytest.raises(ValueError, match="uplink_allocation"):
            ShardingConfig(uplink_allocation="auction")
        with pytest.raises(ValueError, match="Unknown placement policy"):
            ShardedFleetRuntime(small_fleet(4), config=ShardingConfig(placement="nope"))

    def test_duplicate_camera_ids_rejected_cluster_wide(self):
        cameras = small_fleet(4)
        with pytest.raises(ValueError, match="Duplicate"):
            ShardedFleetRuntime(
                [cameras[0], cameras[0], cameras[1]],
                config=ShardingConfig(num_nodes=2, node_config=FAST_NODE),
            )


class TestShardedFleetRuntime:
    def test_cluster_aggregates_sum_of_nodes(self):
        report = run_cluster()
        assert report.num_nodes == 2
        assert report.num_cameras == 6
        assert report.frames_generated == sum(
            n.report.frames_generated for n in report.nodes
        )
        assert report.frames_scored == sum(n.report.frames_scored for n in report.nodes)
        assert report.frames_dropped == sum(n.report.frames_dropped for n in report.nodes)
        assert report.frames_rejected == sum(
            n.report.frames_rejected for n in report.nodes
        )
        assert report.events_detected == sum(
            n.report.events_detected for n in report.nodes
        )
        assert report.total_uplink_bits == pytest.approx(
            sum(n.report.total_uploaded_bits for n in report.nodes)
        )
        assert report.sim_duration == max(n.report.sim_duration for n in report.nodes)

    def test_every_camera_hosted_exactly_once(self):
        report = run_cluster()
        hosted = [cid for n in report.nodes for cid in n.camera_ids]
        assert sorted(hosted) == sorted(s.camera_id for s in small_fleet())
        for node in report.nodes:
            assert set(node.camera_ids) == set(node.report.cameras)

    @pytest.mark.parametrize("placement", ["round_robin", "load_aware", "resolution_aware"])
    def test_all_policies_run(self, placement):
        report = run_cluster(placement=placement)
        assert report.placement_policy == placement
        assert report.frames_scored > 0
        assert 0.0 < report.fairness_index <= 1.0
        assert report.load_imbalance >= 1.0
        assert report.worst_node_queue_wait_p99 >= 0.0

    def test_uplink_allocations_respect_total(self):
        for mode in ("equal", "by_cost"):
            runtime = ShardedFleetRuntime(
                small_fleet(),
                config=ShardingConfig(
                    num_nodes=2,
                    total_uplink_bps=800_000.0,
                    uplink_allocation=mode,
                    node_config=FAST_NODE,
                ),
            )
            allocated = sum(
                link.capacity_bps for link in runtime.shared_uplink.links.values()
            )
            assert allocated == pytest.approx(800_000.0)

    def test_equal_allocation_splits_evenly(self):
        runtime = ShardedFleetRuntime(
            small_fleet(),
            config=ShardingConfig(
                num_nodes=2, total_uplink_bps=600_000.0, node_config=FAST_NODE
            ),
        )
        for link in runtime.shared_uplink.links.values():
            assert link.capacity_bps == pytest.approx(300_000.0)

    def test_by_cost_allocation_tracks_shard_costs(self):
        runtime = ShardedFleetRuntime(
            small_fleet(5),
            config=ShardingConfig(
                num_nodes=2,
                total_uplink_bps=500_000.0,
                uplink_allocation="by_cost",
                node_config=FAST_NODE,
            ),
        )
        links = runtime.shared_uplink.links
        costs = [sum(map(estimate_camera_cost, shard)) for shard in runtime.shards]
        for node_id, cost in zip(runtime.node_ids, costs):
            assert links[node_id].capacity_bps == pytest.approx(500_000.0 * cost / sum(costs))

    def test_uplink_utilization_uses_shared_capacity(self):
        report = run_cluster(total_uplink_bps=10_000.0)
        if report.total_uplink_bits > 0:
            expected = report.total_uplink_bits / (10_000.0 * report.sim_duration)
            assert report.uplink_utilization == pytest.approx(expected)

    def test_summary_mentions_cluster_shape(self):
        report = run_cluster()
        summary = report.summary()
        assert "2 nodes" in summary
        assert "6 cameras" in summary
        assert "node0" in summary and "node1" in summary

    def test_nodes_do_not_share_pipelines(self):
        runtime = ShardedFleetRuntime(
            small_fleet(),
            config=ShardingConfig(num_nodes=2, node_config=FAST_NODE),
        )
        factories = {id(node.pipeline_factory) for node in runtime.nodes.values()}
        assert len(factories) == 2

    def test_uplink_guarantees_describe_both_sharing_modes(self):
        static = ShardedFleetRuntime(
            small_fleet(),
            config=ShardingConfig(
                num_nodes=2, node_config=FAST_NODE, total_uplink_bps=10_000.0
            ),
        )
        assert static.uplink_guarantees() == {
            node_id: static.shared_uplink.links[node_id].capacity_bps
            for node_id in static.node_ids
        }
        conserving = ShardedFleetRuntime(
            small_fleet(),
            config=ShardingConfig(
                num_nodes=2,
                node_config=FAST_NODE,
                total_uplink_bps=10_000.0,
                uplink_sharing="work_conserving",
            ),
        )
        guarantees = conserving.uplink_guarantees()
        assert guarantees == {
            node_id: conserving.shared_uplink.links[node_id].capacity_bps
            for node_id in conserving.node_ids
        }
        assert sum(guarantees.values()) == pytest.approx(10_000.0)

    def test_a_static_cluster_refuses_re_weighting(self):
        runtime = ShardedFleetRuntime(
            small_fleet(), config=ShardingConfig(num_nodes=2, node_config=FAST_NODE)
        )
        assert runtime.current_uplink_weights() is None
        with pytest.raises(RuntimeError):
            runtime.set_uplink_weights(0.0, {"node0": 2.0, "node1": 1.0})


class TestPlacementUnderSkew:
    """What placement buys at runtime, on a fleet built to punish ignoring load.

    64 cameras at 2 / 4 / 24 fps on 4 nodes provisioned just above the mean
    per-node offered rate (2 workers, paper schedule x 0.029, about 176 fps
    a node): round-robin deals in index order and lands several 24 fps
    cameras on one node.  0.75 simulated seconds; the same fleet over three
    reads 153 against 352 ms.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        node = FleetConfig(num_workers=2, queue_capacity=8, service_time_scale=0.029)
        fleet = generate_fleet(
            64,
            seed=7,
            duration_seconds=0.75,
            resolutions=((64, 48), (80, 48)),
            frame_rates=(2.0, 4.0, 24.0),
        )
        return {
            placement: ShardedFleetRuntime(
                fleet, config=ShardingConfig(num_nodes=4, placement=placement, node_config=node)
            ).run()
            for placement in ("round_robin", "load_aware", "resolution_aware")
        }

    def test_load_aware_cuts_the_worst_nodes_wait_tail(self, reports):
        naive, balanced = reports["round_robin"], reports["load_aware"]
        # 56.1 against 105.8 ms.
        assert balanced.worst_node_queue_wait_p99 < 0.8 * naive.worst_node_queue_wait_p99
        assert balanced.drop_rate <= naive.drop_rate
        assert balanced.load_imbalance < naive.load_imbalance

    def test_resolution_aware_keeps_one_base_dnn_per_node(self, reports):
        colocated = reports["resolution_aware"]
        assert colocated.resident_base_dnns <= colocated.num_nodes + 1
        assert colocated.resident_base_dnns <= reports["round_robin"].resident_base_dnns


class TestWorkConservingSharing:
    def run_wc(self, **config_kwargs):
        config_kwargs.setdefault("num_nodes", 2)
        config_kwargs.setdefault("node_config", FAST_NODE)
        config_kwargs.setdefault("uplink_sharing", "work_conserving")
        config = ShardingConfig(**config_kwargs)
        return ShardedFleetRuntime(small_fleet(), config=config).run()

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="uplink_sharing"):
            ShardingConfig(uplink_sharing="magic")

    def test_same_bits_move_as_static_slicing(self):
        static = run_cluster(total_uplink_bps=50_000.0)
        shared = self.run_wc(total_uplink_bps=50_000.0)
        assert shared.uplink_sharing == "work_conserving"
        assert shared.total_uplink_bits == pytest.approx(static.total_uplink_bits)
        assert shared.reclaimed_uplink_bits >= 0.0

    def test_skewed_uploads_reclaim_idle_capacity(self):
        # A tight link plus an uneven placement: the busy node borrows the
        # quiet node's guaranteed share.
        report = self.run_wc(total_uplink_bps=8_000.0, placement="load_aware")
        if report.total_uplink_bits > 0:
            assert report.reclaimed_uplink_bits > 0.0
            assert report.reclaimed_uplink_bytes == pytest.approx(
                report.reclaimed_uplink_bits / 8.0
            )

    def test_node_reports_reflect_shared_drain(self):
        report = self.run_wc(total_uplink_bps=50_000.0)
        for node in report.nodes:
            assert node.uplink_allocation_bps == pytest.approx(25_000.0)
            assert node.report.uplink_backlog_seconds >= 0.0
            # Telemetry gauges agree with the patched report fields.
            gauges = node.report.telemetry["uplink.utilization"]
            assert gauges["value"] == pytest.approx(node.report.uplink_utilization)


class TestClusterTelemetryMerge:
    def test_cluster_snapshot_prefixes_node_metrics(self):
        report = run_cluster()
        assert report.telemetry  # merged registry snapshot
        scored = sum(
            value
            for name, value in report.telemetry.items()
            if name.endswith(".frames.scored")
        )
        assert scored == report.frames_scored
        assert any(name.startswith("node0.") for name in report.telemetry)
        assert any(name.startswith("node1.") for name in report.telemetry)


class TestUplinkUtilizationGuard:
    """Regression: a zero-capacity (or zero-duration) report must not divide
    by zero when asked for uplink utilization."""

    def _report(self, **kwargs):
        from repro.fleet.sharding import ShardedFleetReport

        defaults = dict(
            nodes=[],
            placement_policy="round_robin",
            total_uplink_bps=1e6,
            total_uplink_bits=5e5,
            sim_duration=2.0,
        )
        defaults.update(kwargs)
        return ShardedFleetReport(**defaults)

    def test_zero_bandwidth_reports_zero(self):
        assert self._report(total_uplink_bps=0.0).uplink_utilization == 0.0

    def test_zero_duration_reports_zero(self):
        assert self._report(sim_duration=0.0).uplink_utilization == 0.0

    def test_normal_case_unchanged(self):
        report = self._report()
        assert report.uplink_utilization == pytest.approx(5e5 / (1e6 * 2.0))


SHARING_MODES = ("static", "work_conserving")


def one_path_cluster(sharing, with_events=False, timeline=None):
    """Twelve cameras on three nodes behind a 200 kbit/s link."""
    return ShardedFleetRuntime(
        generate_fleet(12, seed=0, duration_seconds=3.0),
        config=ShardingConfig(
            num_nodes=3,
            total_uplink_bps=200_000.0,
            uplink_sharing=sharing,
            node_config=FAST_NODE,
        ),
        event_plane=EventDeliveryPlane(DeliveryConfig()) if with_events else None,
        timeline=timeline,
    )


class TestOneUploadPath:
    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_node_utilizations_add_up_to_the_clusters(self, sharing):
        """Every node reads its port over the cluster's clock, so the
        capacity-weighted node figures are the cluster's figure."""
        report = one_path_cluster(sharing).run()
        assert report.uplink_utilization > 0.1
        weighted = sum(
            node.report.uplink_utilization * node.uplink_allocation_bps
            for node in report.nodes
        )
        assert weighted / report.total_uplink_bps == pytest.approx(
            report.uplink_utilization, abs=1e-12
        )

    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_event_bytes_count_toward_the_nodes_link_figures(self, sharing):
        runtime = one_path_cluster(sharing, with_events=True)
        report = runtime.run()
        assert report.delivery.published > 0
        for node in report.nodes:
            port = runtime.nodes[node.node_id].uplink
            assert port.total_bits > node.report.total_uploaded_bits
            assert node.report.uplink_utilization == port.utilization(report.sim_duration)
        assert report.total_uplink_bits == pytest.approx(
            sum(runtime.nodes[n].uplink.total_bits for n in runtime.node_ids)
        )

    def test_a_static_slice_serves_event_attempts_in_availability_order(self):
        """An attempt available before a frame upload is not queued behind it."""
        runtime = one_path_cluster("static", with_events=True)
        runtime.run()
        overtaken = 0
        for node_id in runtime.node_ids:
            transfers = [t for t in runtime.shared_uplink.transfers if t.node_id == node_id]
            attempts = [t for t in transfers if t.description.startswith("evt/")]
            frames = [t for t in transfers if not t.description.startswith("evt/")]
            for attempt in attempts:
                for frame in frames:
                    if attempt.available_at < frame.available_at:
                        assert attempt.end_time <= frame.start_time
                        overtaken += 1
        assert overtaken > 0

    @pytest.mark.parametrize("with_events", (False, True))
    @pytest.mark.parametrize("sharing", SHARING_MODES)
    def test_each_node_report_is_assembled_once(self, sharing, with_events, monkeypatch):
        snapshots = []
        snapshot = TelemetryRegistry.snapshot

        def counted(registry):
            snapshots.append(registry)
            return snapshot(registry)

        monkeypatch.setattr(TelemetryRegistry, "snapshot", counted)
        runtime = one_path_cluster(sharing, with_events, timeline=MetricsTimeline())
        control = runtime.control
        tick, scrape = control.tick, control.scrape
        seen_at_scrape = []

        def ticking(*args):
            applied = tick(*args)
            snapshots.clear()
            return applied

        def scraping(*args):
            seen_at_scrape.append(list(snapshots))
            scrape(*args)

        # The last scrape() entered is the end-of-run one; every earlier one
        # ran inside a tick, which then cleared the tally.
        control.tick, control.scrape = ticking, scraping
        report = runtime.run()
        for node in report.nodes:
            registry = runtime.nodes[node.node_id].telemetry
            assert sum(1 for seen in seen_at_scrape[-1] if seen is registry) == 1
            assert node.report.telemetry == snapshot(registry)
            for name in ("uplink.utilization", "uplink.backlog_seconds"):
                gauge = node.report.telemetry[name]
                assert gauge["min"] == gauge["max"] == gauge["value"]
            if with_events:
                assert node.report.telemetry["events.published"] > 0
