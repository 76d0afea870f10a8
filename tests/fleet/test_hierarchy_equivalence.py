"""Property: the hierarchy's aggregated cluster view equals the flat full merge.

The hierarchical control plane's scale contract is that the cluster only ever
sees fixed-size per-node aggregates — so these tests pin that nothing is lost
in the summary: for the same run, every rollup metric the coordinator derives
from aggregates must equal the value a flat full-registry merge would have
produced, and the sketch-derived queue-wait tail must track the exact
histogram within sketch tolerance.
"""

import pytest

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    MigrationController,
    ThresholdDriftController,
    UplinkShareController,
)
from repro.control.hierarchy import HierarchicalControlPlane, QuantileSketch
from repro.fleet.accuracy import AccuracyConfig, TrainedMicroClassifiers
from repro.fleet.camera import generate_fleet
from repro.fleet.runtime import FleetConfig
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig
from repro.fleet.telemetry import TelemetryRegistry

FAST_NODE = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)

# Rollup gauge -> the node-registry counters it must equal the sum of.
ROLLUP_COUNTERS = {
    "cluster.frames.generated": ("frames.generated",),
    "cluster.frames.scored": ("frames.scored",),
    "cluster.frames.rejected": ("frames.rejected",),
    "cluster.frames.dropped": ("frames.dropped_oldest", "frames.dropped_newest"),
    "cluster.frames.matched": ("frames.matched",),
    "cluster.events.closed": ("events.closed",),
    "cluster.uplink.estimated_bits": ("uplink.estimated_bits",),
}


def run_cluster(seed):
    fleet = generate_fleet(
        8,
        seed=seed,
        duration_seconds=1.5,
        resolutions=((48, 32), (64, 48)),
        frame_rates=(4.0, 10.0),
    )
    config = ShardingConfig(
        num_nodes=2, node_config=FAST_NODE, uplink_sharing="work_conserving"
    )
    hierarchy = HierarchicalControlPlane()
    runtime = ShardedFleetRuntime(fleet, config=config, hierarchy=hierarchy)
    report = runtime.run()
    return runtime, report, hierarchy


@pytest.mark.parametrize("seed", [0, 7, 21, 42])
class TestAggregateViewEqualsFullMerge:
    def test_rollup_counters_match_flat_merge(self, seed):
        runtime, report, _ = run_cluster(seed)
        # The flat view: every node registry merged in full, as the
        # single-coordinator plane (and pre-hierarchy report path) built it.
        flat = TelemetryRegistry()
        for node_id in runtime.node_ids:
            flat.merge(runtime.nodes[node_id].telemetry, prefix=f"{node_id}.")
        flat_counters = flat.counters()
        for gauge_name, counter_names in ROLLUP_COUNTERS.items():
            flat_total = sum(
                flat_counters.get(f"{node_id}.{counter}", 0.0)
                for node_id in runtime.node_ids
                for counter in counter_names
            )
            assert report.telemetry[gauge_name]["value"] == pytest.approx(
                flat_total
            ), gauge_name

    def test_camera_count_matches(self, seed):
        runtime, report, _ = run_cluster(seed)
        assert report.telemetry["cluster.cameras"]["value"] == sum(
            len(runtime.nodes[n].camera_live_stats()) for n in runtime.node_ids
        )

    def test_merged_wait_sketch_tracks_exact_histogram(self, seed):
        runtime, _, hierarchy = run_cluster(seed)
        # Merge the final-interval sketches and compare against the exact
        # percentile over the same observations, pooled across nodes.
        merged = QuantileSketch()
        pooled = []
        for node_id in sorted(hierarchy.planes):
            aggregate = hierarchy.last_aggregates[node_id]
            merged = merged.merge(aggregate.window_wait_sketch)
            pooled.extend(v for v, w in aggregate.window_wait_sketch.centroids for _ in range(round(w)))
        if not pooled:
            assert merged.percentile(99) == 0.0
            return
        exact = QuantileSketch.from_values(pooled, max_centroids=len(pooled))
        spread = max(pooled) - min(pooled)
        assert merged.percentile(99) == pytest.approx(
            exact.percentile(99), abs=max(1e-9, 0.1 * spread)
        )


def districted_cluster(num_cameras, node_config, pipeline_factory=None, **control):
    """A citywide 16-district fleet on 16 nodes, one simulated second."""
    fleet = generate_fleet(
        num_cameras,
        seed=11,
        duration_seconds=1.0,
        resolutions=((32, 32), (48, 32)),
        frame_rates=(2.0, 4.0),
        districts=16,
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
