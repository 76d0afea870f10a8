"""Hierarchical control plane: sketches, aggregates, coordinator, two levels."""

import json
from dataclasses import replace

import pytest

from control_helpers import FakeRuntime, actions_of, make_stats
from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    ThresholdDriftController,
)
from repro.control.hierarchy import (
    ClusterCoordinator,
    HierarchicalControlPlane,
    NodeAggregate,
    NodeControlPlane,
    QuantileSketch,
    default_local_controllers,
)
from repro.control.migration import MigrationConfig, MigrationController
from repro.control.policies import ClusterView, NodeView
from repro.control.provenance import DecisionRecord
from repro.control.uplink import UplinkShareController
from repro.fleet.accuracy import AccuracyConfig, TrainedMicroClassifiers
from repro.fleet.camera import generate_fleet
from repro.fleet.runtime import FleetConfig
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig

FAST_NODE = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def small_fleet(num_cameras=8):
    return generate_fleet(
        num_cameras,
        seed=5,
        duration_seconds=1.5,
        resolutions=((48, 32), (64, 48)),
        frame_rates=(4.0, 10.0),
    )


def run_hierarchical(num_cameras=8, num_nodes=2, hierarchy=None, **config_kwargs):
    config_kwargs.setdefault("uplink_sharing", "work_conserving")
    config = ShardingConfig(
        num_nodes=num_nodes, node_config=FAST_NODE, **config_kwargs
    )
    hierarchy = hierarchy or HierarchicalControlPlane()
    runtime = ShardedFleetRuntime(
        small_fleet(num_cameras), config=config, hierarchy=hierarchy
    )
    return runtime.run(), hierarchy


class TestQuantileSketch:
    def test_exact_below_centroid_budget(self):
        values = [0.5, 0.1, 0.9, 0.3, 0.7]
        sketch = QuantileSketch.from_values(values)
        assert sketch.count == len(values)
        assert sketch.percentile(0) == 0.1
        assert sketch.percentile(50) == 0.5
        assert sketch.percentile(100) == 0.9

    def test_size_bounded_above_budget(self):
        sketch = QuantileSketch.from_values([i / 1000.0 for i in range(1000)])
        assert len(sketch.centroids) <= sketch.max_centroids
        assert sketch.count == pytest.approx(1000)
        # A weight-balanced compression keeps tail quantiles close.
        assert sketch.percentile(99) == pytest.approx(0.99, abs=0.05)
        assert sketch.percentile(50) == pytest.approx(0.5, abs=0.05)

    def test_merge_matches_combined_distribution(self):
        left = QuantileSketch.from_values([float(i) for i in range(100)])
        right = QuantileSketch.from_values([float(i) for i in range(100, 200)])
        merged = left.merge(right)
        assert len(merged.centroids) <= merged.max_centroids
        assert merged.count == pytest.approx(200)
        exact = QuantileSketch.from_values([float(i) for i in range(200)])
        assert merged.percentile(50) == pytest.approx(exact.percentile(50), rel=0.1)

    def test_empty_and_validation(self):
        empty = QuantileSketch()
        assert empty.percentile(99) == 0.0
        assert empty.count == 0
        with pytest.raises(ValueError):
            empty.percentile(101)

    def test_deterministic(self):
        values = [((i * 37) % 101) / 10.0 for i in range(500)]
        assert QuantileSketch.from_values(values) == QuantileSketch.from_values(values)


class TestNodeAggregate:
    def _aggregate(self, num_cameras=100, wait_values=2000):
        return NodeAggregate(
            node_id="node0",
            now=1.0,
            num_cameras=num_cameras,
            num_workers=4,
            frames_generated=5000.0,
            frames_scored=4800.0,
            frames_rejected=100.0,
            frames_dropped=100.0,
            frames_matched=900.0,
            events_closed=40.0,
            estimated_upload_bits=2.5e6,
            offered_utilization=0.8,
            window_wait_count=wait_values,
            window_wait_sketch=QuantileSketch.from_values(
                [i / wait_values for i in range(wait_values)]
            ),
            resolutions=((48, 32), (64, 48)),
        )

    def test_payload_is_json_serializable(self):
        payload = self._aggregate().to_payload()
        json.dumps(payload)  # must not raise
        assert payload["node_id"] == "node0"
        assert payload["cameras"] == 100

    def test_payload_size_independent_of_cameras_and_observations(self):
        small = self._aggregate(num_cameras=4, wait_values=64)
        huge = self._aggregate(num_cameras=4096, wait_values=200_000)
        # The sketch saturates at max_centroids, so the two payloads differ
        # only by digit counts — the same O(1) size class.
        assert huge.payload_bytes() < small.payload_bytes() * 1.5

    def test_window_p99_from_sketch(self):
        aggregate = self._aggregate(wait_values=1000)
        assert aggregate.window_wait_sketch.percentile(99) == pytest.approx(0.99, abs=0.05)


class TestNodeControlPlane:
    def test_tick_produces_aggregate_and_accounts(self):
        fleet = small_fleet(4)
        from repro.fleet.runtime import FleetRuntime

        runtime = FleetRuntime(fleet, config=FAST_NODE)
        plane = NodeControlPlane("node0", runtime)
        runtime.start()
        runtime.advance_until(0.25)
        aggregate = plane.tick(0.25, horizon=2.0)
        assert aggregate.node_id == "node0"
        assert aggregate.num_cameras == 4
        assert aggregate.frames_generated > 0
        assert plane.counter_value("control.ticks") == 1
        assert plane.counter_value("control.decisions.total") >= len(plane.controllers)

    def test_duplicate_controller_names_rejected(self):
        from repro.control.shedding import AdaptiveSheddingController
        from repro.fleet.runtime import FleetRuntime

        runtime = FleetRuntime(small_fleet(2), config=FAST_NODE)
        with pytest.raises(ValueError, match="Duplicate"):
            NodeControlPlane(
                "node0",
                runtime,
                controllers=[AdaptiveSheddingController(), AdaptiveSheddingController()],
            )

    def test_default_controllers_are_node_scope(self):
        controllers = default_local_controllers("node0")
        assert [c.name for c in controllers] == ["adaptive_shedding", "threshold_drift"]


def make_aggregate(node_id, matched=0.0, utilization=0.5):
    return NodeAggregate(
        node_id=node_id,
        now=1.0,
        num_cameras=4,
        num_workers=2,
        frames_generated=100.0,
        frames_scored=90.0,
        frames_rejected=0.0,
        frames_dropped=10.0,
        frames_matched=matched,
        events_closed=2.0,
        estimated_upload_bits=1e5,
        offered_utilization=utilization,
        window_wait_count=10,
        window_wait_sketch=QuantileSketch.from_values([0.01] * 10),
        resolutions=((48, 32),),
    )


def aggregate_view(aggregates, uplink_weights, tick=0):
    """What the hierarchy shows the coordinator's controllers at one tick."""
    return ClusterView(
        now=0.25 * (tick + 1),
        interval=0.25,
        nodes=tuple(aggregates[node_id] for node_id in sorted(aggregates)),
        horizon=10.0,
        uplink_weights=uplink_weights,
    )


def migration_intent(coordinator, aggregates):
    """The coordinator's migration gate, fed as the hierarchy feeds it."""
    return coordinator.migration.gate(
        {node_id: agg.offered_utilization for node_id, agg in sorted(aggregates.items())}
    )


class TestClusterCoordinator:
    """The coordinator is the flat plane's two cluster policies over aggregates."""

    def test_owns_renamed_flat_controllers(self):
        coordinator = ClusterCoordinator()
        assert isinstance(coordinator.uplink, UplinkShareController)
        assert isinstance(coordinator.migration, MigrationController)
        assert coordinator.uplink.name == "cluster_uplink"
        assert coordinator.migration.name == "cluster_migration"
        # Renaming the instances must not leak into the flat plane's classes.
        assert UplinkShareController.name == "uplink_share"
        assert MigrationController.name == "camera_migration"

    def test_aggregate_answers_the_policy_read_surface(self):
        aggregate = make_aggregate("node0", matched=7.0)
        assert aggregate.counter_value("frames.matched") == 7.0
        assert aggregate.counter_value("frames.generated") == 100.0
        with pytest.raises(KeyError):
            aggregate.counter_value("frames.never_carried")

    def test_uplink_skews_toward_demand(self):
        coordinator = ClusterCoordinator()
        aggregates = {
            "node0": make_aggregate("node0", matched=90.0),
            "node1": make_aggregate("node1", matched=10.0),
        }
        (record,) = coordinator.uplink.decide(
            aggregate_view(aggregates, {"node0": 1.0, "node1": 1.0})
        )
        (action,) = record.actions
        weights = dict(action.weights)
        assert weights["node0"] > weights["node1"]
        assert all(w > 0 for w in weights.values())
        assert (record.controller, record.kind) == ("cluster_uplink", "rebalance")

    def test_uplink_holds_inside_threshold(self):
        coordinator = ClusterCoordinator()
        # Targets 0.54 / 0.46: inside the 0.10 rebalance threshold.
        aggregates = {
            "node0": make_aggregate("node0", matched=55.0),
            "node1": make_aggregate("node1", matched=45.0),
        }
        records = coordinator.uplink.decide(
            aggregate_view(aggregates, {"node0": 1.0, "node1": 1.0})
        )
        assert actions_of(records) == []
        assert any(r.kind == "hold" for r in records)

    def test_uplink_none_when_statically_sliced(self):
        coordinator = ClusterCoordinator()
        aggregates = {"node0": make_aggregate("node0", matched=10.0)}
        (record,) = coordinator.uplink.decide(aggregate_view(aggregates, None))
        assert record.actions == ()
        assert record.kind == "idle"

    def test_migration_gates_on_sustained_imbalance(self):
        coordinator = ClusterCoordinator(
            migration_config=MigrationConfig(sustain_ticks=2)
        )
        hot = {
            "node0": make_aggregate("node0", utilization=2.0),
            "node1": make_aggregate("node1", utilization=0.1),
        }
        record = migration_intent(coordinator, hot)  # not yet sustained
        assert record.controller == "cluster_migration"
        assert record.reason == "imbalance observed but not yet sustained"
        assert migration_intent(coordinator, hot) == ("node0", "node1")

    def test_migration_holds_when_balanced(self):
        coordinator = ClusterCoordinator()
        balanced = {
            "node0": make_aggregate("node0", utilization=0.5),
            "node1": make_aggregate("node1", utilization=0.5),
        }
        records = [migration_intent(coordinator, balanced) for _ in range(4)]
        assert all(isinstance(r, DecisionRecord) and r.is_noop for r in records)

    def test_resolved_intent_starts_cooldowns_or_holds(self):
        from repro.control.policies import MigrateCamera

        coordinator = ClusterCoordinator(
            migration_config=MigrationConfig(sustain_ticks=1, cooldown_ticks=3)
        )
        hot = {
            "node0": make_aggregate("node0", utilization=2.0),
            "node1": make_aggregate("node1", utilization=0.1),
        }
        assert migration_intent(coordinator, hot) == ("node0", "node1")
        hold = coordinator.migration.resolve(1.0, None, ())
        assert hold.actions == ()
        assert hold.reason == "no candidate camera pays back its blackout"
        assert migration_intent(coordinator, hot) == ("node0", "node1")  # no cooldown
        move = MigrateCamera("cam0", "node0", "node1", blackout_seconds=0.25)
        migrate = coordinator.migration.resolve(1.25, move, ())
        assert (migrate.kind, migrate.actions, migrate.reason) == ("migrate", (move,), None)
        assert coordinator.migration.migrations == [(1.25, "cam0", "node0", "node1")]
        assert "cam0" in coordinator.migration.camera_cooldowns
        cooldown = migration_intent(coordinator, hot)  # cluster cooldown
        assert cooldown.reason == "migration cooldown active"


def _without_controller(record):
    entry = record.to_dict()
    del entry["controller"]
    return entry


class TestOnePolicyTwoViews:
    """Full node views and fixed-size aggregates drive identical decisions.

    The property that makes a second policy implementation unnecessary: the
    same matched-frame / utilization series, shown once through
    ``NodeView`` objects over (fake) runtimes and once through aggregates,
    produces the same actions and the same decision records — apart from
    the controller's name.
    """

    # Per tick: cumulative frames.matched per node.
    MATCHED_SERIES = {
        "demand shifts to node1": [(10, 10), (30, 12), (40, 60), (41, 140), (42, 220)],
        "quiet then one burst": [(0, 0), (0, 0), (50, 0), (50, 0), (50, 1)],
        "steady even split": [(10, 10), (20, 20), (30, 30), (40, 40), (50, 50)],
    }

    @pytest.mark.parametrize("series", sorted(MATCHED_SERIES))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_uplink_policy(self, series, weighted):
        weights = {"node0": 1.0, "node1": 1.0} if weighted else None
        flat = UplinkShareController()
        coordinator = ClusterCoordinator()
        runtimes = {"node0": FakeRuntime(), "node1": FakeRuntime()}
        rebalances = 0
        for tick, matched in enumerate(self.MATCHED_SERIES[series]):
            aggregates = {}
            for node_id, value in zip(sorted(runtimes), matched):
                counter = runtimes[node_id].telemetry.counter("frames.matched")
                counter.inc(value - counter.value)
                aggregates[node_id] = make_aggregate(node_id, matched=float(value))
            flat_view = ClusterView(
                now=0.25 * (tick + 1),
                interval=0.25,
                nodes=tuple(NodeView(n, runtimes[n]) for n in sorted(runtimes)),
                horizon=10.0,
                uplink_weights=weights,
            )
            flat_records = flat.decide(flat_view)
            cluster_records = coordinator.uplink.decide(
                aggregate_view(aggregates, weights, tick)
            )
            flat_actions = actions_of(flat_records)
            assert actions_of(cluster_records) == flat_actions
            assert [_without_controller(r) for r in cluster_records] == [
                _without_controller(r) for r in flat_records
            ]
            if flat_actions:
                rebalances += 1
                weights = flat_actions[0].as_mapping()
        if weighted and series != "steady even split":
            assert rebalances > 0, "the series must drive at least one rebalance"

    # Per tick: frames generated since the last tick by (node0, node1)'s
    # cameras (two 20 fps cameras on node0, one on node1; 2 workers each).
    ARRIVAL_SERIES = {
        "node0 hot throughout": [(5, 1)] * 8,
        "hot, then level": [(5, 1)] * 3 + [(2, 2)] * 3,
        "never imbalanced": [(2, 2)] * 5,
        "too late to pay back": [(1, 1)] * 37 + [(5, 1)] * 2,
    }

    @pytest.mark.parametrize("series", sorted(ARRIVAL_SERIES))
    def test_migration_policy(self, series):
        config = MigrationConfig(sustain_ticks=2, cooldown_ticks=2)
        flat = MigrationController(config)
        coordinator = ClusterCoordinator(migration_config=config)
        service = 0.1
        runtimes = {
            "node0": FakeRuntime(
                {
                    "cam0": make_stats("cam0", frame_rate=20.0, service_seconds=service),
                    "cam1": make_stats("cam1", frame_rate=20.0, service_seconds=service),
                }
            ),
            "node1": FakeRuntime(
                {"cam2": make_stats("cam2", frame_rate=20.0, service_seconds=service)}
            ),
        }
        planes = {n: NodeControlPlane(n, runtimes[n], controllers=[]) for n in runtimes}
        outcomes = set()
        for tick, arrivals in enumerate(self.ARRIVAL_SERIES[series]):
            now = 0.25 * (tick + 1)
            for node_id, per_camera in zip(sorted(runtimes), arrivals):
                cameras = runtimes[node_id].cameras
                for camera_id, stats in cameras.items():
                    cameras[camera_id] = replace(
                        stats, generated=stats.generated + per_camera
                    )
            flat_view = ClusterView(
                now=now,
                interval=0.25,
                nodes=tuple(NodeView(n, runtimes[n]) for n in sorted(runtimes)),
                horizon=10.0,
            )
            flat_records = flat.decide(flat_view)
            # The hierarchical path: aggregates up, gate, victim picked on
            # the source node, outcome resolved by the same controller.
            aggregates = {n: planes[n].aggregate(now) for n in sorted(planes)}
            record = migration_intent(coordinator, aggregates)
            if not isinstance(record, DecisionRecord):
                source, destination = record
                action, candidates = planes[source].nominate_victim(
                    aggregates[destination],
                    aggregates[source].offered_utilization,
                    flat_view.remaining_seconds,
                    coordinator.migration,
                )
                record = coordinator.migration.resolve(now, action, candidates)
            flat_actions = actions_of(flat_records)
            assert list(record.actions) == flat_actions
            assert [_without_controller(record)] == [
                _without_controller(r) for r in flat_records
            ]
            outcomes.update((r.kind, r.reason) for r in flat_records)
            for action in flat_actions:
                moved = runtimes[action.source].cameras.pop(action.camera_id)
                runtimes[action.destination].cameras[action.camera_id] = moved
        expected = {
            "node0 hot throughout": ("migrate", None),
            "hot, then level": ("hold", "cluster inside the imbalance gates"),
            "never imbalanced": ("hold", "cluster inside the imbalance gates"),
            "too late to pay back": ("hold", "no candidate camera pays back its blackout"),
        }[series]
        assert expected in outcomes


class TestHierarchicalControlPlane:
    def test_end_to_end_cluster_run(self):
        report, hierarchy = run_hierarchical()
        assert report.control_ticks == hierarchy.ticks > 0
        assert report.frames_scored > 0
        # Every tick exchanged one bounded aggregate per node.
        assert len(report.coordination_payload_bytes) == hierarchy.ticks
        assert all(p > 0 for p in report.coordination_payload_bytes)
        # The cluster telemetry is the fixed-size rollup, not a registry merge.
        assert "cluster.frames.generated" in report.telemetry
        assert not any(key.startswith("node0.") for key in report.telemetry)

    def test_rollup_matches_node_truth(self):
        report, hierarchy = run_hierarchical()
        generated = sum(n.report.frames_generated for n in report.nodes)
        rollup = report.telemetry["cluster.frames.generated"]
        assert rollup["value"] == pytest.approx(generated)

    def test_decision_records_stamped_at_both_levels(self):
        report, _ = run_hierarchical()
        levels = {record["level"] for record in report.decision_records}
        assert levels == {"node", "cluster"}
        seqs = [record["seq"] for record in report.decision_records]
        assert seqs == list(range(len(seqs)))  # one globally ordered stream

    def test_rejects_flat_loop_and_hierarchy_together(self):
        from repro.control.loop import ControlLoop
        from repro.control.shedding import AdaptiveSheddingController

        with pytest.raises(ValueError, match="not both"):
            ShardedFleetRuntime(
                small_fleet(4),
                config=ShardingConfig(num_nodes=2, node_config=FAST_NODE),
                control_loop=ControlLoop([AdaptiveSheddingController()]),
                hierarchy=HierarchicalControlPlane(),
            )

    def test_timeline_scraped_at_both_levels(self):
        from repro.obs.timeline import MetricsTimeline

        timeline = MetricsTimeline()
        config = ShardingConfig(
            num_nodes=2, node_config=FAST_NODE, uplink_sharing="work_conserving"
        )
        runtime = ShardedFleetRuntime(
            small_fleet(6),
            config=config,
            hierarchy=HierarchicalControlPlane(),
            timeline=timeline,
        )
        runtime.run()
        sources = {sample.source for sample in timeline.samples}
        assert "cluster" in sources
        assert "node0" in sources and "node1" in sources

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalControlPlane(interval_seconds=0.0)


def districted_cluster(num_cameras, node_config, pipeline_factory=None, **control):
    """A citywide 16-district fleet on 16 nodes, one simulated second."""
    fleet = generate_fleet(
        num_cameras, seed=11, duration_seconds=1.0, resolutions=((32, 32), (48, 32)),
        frame_rates=(2.0, 4.0), districts=16,
    )
    config = ShardingConfig(
        num_nodes=16,
        placement="district_aware",
        total_uplink_bps=2_000_000.0,
        node_config=node_config,
        uplink_sharing="work_conserving",
    )
    return ShardedFleetRuntime(
        fleet, config=config, pipeline_factory=pipeline_factory, **control
    ).run()


@pytest.mark.slow
class TestKilocameraScale:
    def test_coordination_payload_is_o_nodes_not_o_cameras(self):
        light = FleetConfig(num_workers=4, queue_capacity=8, service_time_scale=0.001)
        small = districted_cluster(64, light, hierarchy=HierarchicalControlPlane())
        large = districted_cluster(1024, light, hierarchy=HierarchicalControlPlane())
        assert large.num_cameras == 1024
        assert large.num_nodes == 16
        assert large.frames_scored > 0
        # Every tick's payload fits a per-node constant (about 32 sketch
        # centroids and a dozen scalars): 5 397 B at 64 cameras, 10 036 B at
        # 1024 -- 16x the cameras saturates the wait sketches, no more.
        peak_small = max(small.coordination_payload_bytes)
        peak_large = max(large.coordination_payload_bytes)
        assert peak_small <= 16 * 2600
        assert peak_large <= 16 * 2600
        assert peak_large <= 3 * peak_small
        # The cluster report is the fixed rollup, not cameras x metrics.
        assert len(large.telemetry) == len(small.telemetry)

    def test_macro_f1_tracks_the_flat_plane(self):
        """Aggregates lose no accuracy against one loop that sees every node."""
        accuracy = AccuracyConfig(train_frames=48, epochs=1.0)
        models = TrainedMicroClassifiers(accuracy)
        loaded = FleetConfig(
            num_workers=2,
            queue_capacity=8,
            service_time_scale=0.029,
            accuracy_task=accuracy.task,
        )
        flat_loop = ControlLoop(
            [
                AdaptiveSheddingController(),
                ThresholdDriftController(),
                UplinkShareController(),
                MigrationController(),
            ],
            interval_seconds=0.25,
        )
        hier = districted_cluster(
            64, loaded, models.pipeline_factory(), hierarchy=HierarchicalControlPlane()
        )
        flat = districted_cluster(64, loaded, models.pipeline_factory(), control_loop=flat_loop)
        # 0.9531 on both planes.
        assert flat.accuracy.macro_f1 > 0.0
        assert abs(hier.accuracy.macro_f1 - flat.accuracy.macro_f1) <= 0.15
