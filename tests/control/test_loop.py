"""ControlLoop driving real runtimes: ticks, actuators, accounting."""

import pytest

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    Controller,
    MigrateCamera,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    NodeActuator,
    SetCameraQuota,
    SetDropPolicy,
    SheddingConfig,
    UplinkShareController,
)
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
)

from control_helpers import action_records

FAST = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def small_cameras(n=2, frame_rate=8.0, duration=1.0):
    return [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=48,
            height=32,
            frame_rate=frame_rate,
            num_frames=int(frame_rate * duration),
            scenario="urban_day",
            seed=i,
        )
        for i in range(n)
    ]


class RecordingController(Controller):
    name = "recorder"

    def __init__(self, actions_per_tick=None):
        self.views = []
        self.actions_per_tick = actions_per_tick or {}

    def decide(self, view):
        self.views.append(view)
        return action_records(self.name, self.actions_per_tick.get(len(self.views) - 1, []))


class TestLoopDriving:
    def test_ticks_cover_the_run_and_views_are_consistent(self):
        controller = RecordingController()
        loop = ControlLoop([controller], interval_seconds=0.25)
        runtime = FleetRuntime(small_cameras(duration=1.0), config=FAST)
        loop.run_node(runtime)
        report = runtime.finalize()
        assert report.frames_scored > 0
        assert loop.ticks == len(controller.views)
        assert loop.ticks >= 4  # 1 second of feed at 0.25s intervals
        times = [view.now for view in controller.views]
        assert times == sorted(times)
        assert all(view.interval == 0.25 for view in controller.views)
        # Every view exposes the node and its live stats.
        assert controller.views[0].node("node0").live_stats()

    def test_actions_are_applied_logged_and_counted(self):
        actions = {
            1: [
                SetCameraQuota(node_id="node0", camera_id="cam000", quota=1),
                SetDropPolicy(node_id="node0", camera_id="cam000", policy=DropPolicy.DROP_NEWEST),
            ]
        }
        controller = RecordingController(actions)
        loop = ControlLoop([controller], interval_seconds=0.25)
        runtime = FleetRuntime(small_cameras(), config=FAST)
        loop.run_node(runtime)
        assert runtime.admission is not None
        assert runtime.admission.quota_for("cam000") == 1
        assert any("set_camera_quota" in line for line in loop.decision_log)
        assert loop.counter_value("control.actions.total") == 2.0
        assert loop.counter_value("control.actions.recorder") == 2.0
        assert loop.counter_value("control.shedding.interventions") == 1.0

    def test_duplicate_controller_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate controller names"):
            ControlLoop([RecordingController(), RecordingController()])

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_seconds"):
            ControlLoop([], interval_seconds=0.0)


class TestClusterActuatorThreshold:
    def test_threshold_action_reaches_the_named_node(self):
        from repro.control import ClusterActuator, SetCameraThreshold
        from repro.fleet import ShardedFleetRuntime, ShardingConfig

        cluster = ShardedFleetRuntime(
            small_cameras(4),
            config=ShardingConfig(num_nodes=2, node_config=FAST),
        )
        for node in cluster.nodes.values():
            node.start()
        actuator = ClusterActuator(cluster)
        camera_id = cluster.nodes["node1"].hosted_cameras()[0]
        actuator.apply(
            SetCameraThreshold(node_id="node1", camera_id=camera_id, threshold=0.85),
            now=0.25,
        )
        assert cluster.nodes["node1"].camera_live_stats()[camera_id].threshold == 0.85
        assert actuator.uplink_guarantees == cluster.uplink_guarantees()
        for node in cluster.nodes.values():
            node.advance_until(float("inf"))
            node.finalize()


class TestNodeActuator:
    def test_rejects_cluster_only_actions(self):
        runtime = FleetRuntime(small_cameras(), config=FAST)
        actuator = NodeActuator(runtime)
        with pytest.raises(TypeError, match="cluster actuator"):
            actuator.apply(
                MigrateCamera(
                    camera_id="cam000", source="node0", destination="node1",
                    blackout_seconds=0.1,
                ),
                now=0.5,
            )

    def test_exposes_no_uplink_weights(self):
        runtime = FleetRuntime(small_cameras(), config=FAST)
        assert NodeActuator(runtime).uplink_weights is None


class TestMovingHotspot:
    """Load that moves mid-run: the case no static configuration can serve.

    Eight 24 fps cameras at half duty (four live in the first half of the
    run, four in the second) among 24 steady low-rate cameras on 4 nodes.
    Placement costs cameras by rate, resolution and scenario but not by duty
    cycle, so every policy deals the early wave to nodes 0/1 and the late
    wave to nodes 2/3; a node sustains about 37 fps of 64x48 frames against
    the 48 fps its live wave offers.
    """

    DURATION = 3.0
    NODE = FleetConfig(
        num_workers=2, queue_capacity=8, service_time_scale=80.0, resolution_scaled_service=True
    )

    def fleet(self):
        half = self.DURATION / 2
        cameras = [
            CameraSpec(
                camera_id=f"hot{i:02d}",
                width=64,
                height=48,
                frame_rate=24.0,
                num_frames=int(24.0 * half),
                scenario="busy_intersection",
                seed=100 + i,
                start_time=half if i % 4 >= 2 else 0.0,
            )
            for i in range(8)
        ]
        scenarios = ("quiet_residential", "urban_day", "retail_entrance", "night_watch")
        for i in range(24):
            rate = 4.0 if i % 2 == 0 else 2.0
            cameras.append(
                CameraSpec(
                    camera_id=f"cam{i:03d}",
                    width=80,
                    height=48,
                    frame_rate=rate,
                    num_frames=int(rate * self.DURATION),
                    scenario=scenarios[i % 4],
                    seed=i,
                )
            )
        return cameras

    def run(self, placement, control_loop=None):
        config = ShardingConfig(
            num_nodes=4,
            placement=placement,
            total_uplink_bps=400_000.0,
            node_config=self.NODE,
            uplink_sharing="work_conserving" if control_loop else "static",
        )
        return ShardedFleetRuntime(self.fleet(), config=config, control_loop=control_loop).run()

    def test_adaptive_control_sheds_less_than_the_best_static_placement(self):
        loop = ControlLoop(
            [
                AdaptiveSheddingController(
                    SheddingConfig(
                        high_watermark_seconds=0.6,
                        low_watermark_seconds=0.2,
                        cameras_per_step=1,
                        quota_ladder=(2,),
                    )
                ),
                UplinkShareController(),
                MigrationController(
                    MigrationConfig(
                        imbalance_threshold=1.10,
                        sustain_ticks=1,
                        cooldown_ticks=1,
                        camera_cooldown_ticks=12,
                        payback_factor=1.2,
                        cost_model=MigrationCostModel(
                            blackout_seconds=0.10, cold_start_seconds=0.15
                        ),
                    )
                ),
            ],
            interval_seconds=0.25,
        )
        static = min(
            (self.run(p) for p in ("round_robin", "load_aware", "resolution_aware")),
            key=lambda report: report.drop_rate,
        )
        adaptive = self.run("load_aware", control_loop=loop)
        assert adaptive.frames_generated == static.frames_generated
        assert adaptive.migrations_performed > 0
        assert adaptive.reclaimed_uplink_bytes > 0
        assert static.drop_rate > 0.10
        # 12.7 % against 19.8 % (the 64-camera fleet this halves: 16.4 % / 19.8 %).
        assert adaptive.drop_rate < 0.95 * static.drop_rate
