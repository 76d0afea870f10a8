"""Fleet-level equivalence: batched dispatch ≡ per-camera dispatch, bit for bit.

``FleetConfig.batched_scoring`` (on by default) routes completion-time
scoring through :class:`repro.core.batched.BatchedScorer` — one base-DNN
forward per resident base DNN over the frames in flight on the worker pool.
This harness pins the tentpole contract: every FleetReport counter, every
per-camera report, the full telemetry snapshot, and every per-frame
probability are bit-identical with the flag on or off, across randomized
seeds, mixed resolutions, overload shedding, live threshold drift, and
mid-run migration (composed with the real :class:`MigrationController`).
"""

import numpy as np
import pytest

from repro.control import (
    ControlLoop,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
)
from repro.control.trace import control_trace_records, diff_traces
from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import FleetConfig, FleetRuntime, default_pipeline_factory
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig

SCENARIOS = ["urban_day", "busy_intersection", "quiet_residential", "night_watch"]


def fleet(num_cameras=6, num_frames=12, frame_rate=10.0, width=32, height=32, seed=0):
    return [
        CameraSpec(
            camera_id=f"cam{i:02d}",
            width=width,
            height=height,
            frame_rate=frame_rate,
            num_frames=num_frames,
            scenario=SCENARIOS[i % len(SCENARIOS)],
            seed=seed * 100 + i,
        )
        for i in range(num_cameras)
    ]


def run_fleet(cameras, batched, drift_at=None, **config_kwargs):
    """One full run; ``drift_at`` = (time, camera_id, threshold) actuated live."""
    runtime = FleetRuntime(
        cameras,
        pipeline_factory=default_pipeline_factory(),
        config=FleetConfig(batched_scoring=batched, **config_kwargs),
    )
    if drift_at is None:
        report = runtime.run()
    else:
        when, camera_id, threshold = drift_at
        runtime.start()
        runtime.advance_until(when)
        runtime.set_camera_threshold(camera_id, threshold)
        runtime.advance_until(float("inf"))
        report = runtime.finalize()
    return runtime, report


def assert_runs_identical(rt_batched, rep_batched, rt_scalar, rep_scalar):
    """Reports, telemetry, and per-frame probabilities all bit-identical."""
    assert rep_batched.cameras.keys() == rep_scalar.cameras.keys()
    for camera_id in rep_batched.cameras:
        assert rep_batched.cameras[camera_id] == rep_scalar.cameras[camera_id], camera_id
    assert rep_batched.telemetry == rep_scalar.telemetry
    assert rep_batched.total_uploaded_bits == rep_scalar.total_uploaded_bits
    assert rep_batched.events_detected == rep_scalar.events_detected
    assert rt_batched._states.keys() == rt_scalar._states.keys()
    for key in rt_batched._states:
        result_b = rt_batched._states[key].session.finish()
        result_s = rt_scalar._states[key].session.finish()
        assert result_b.per_mc.keys() == result_s.per_mc.keys()
        for name in result_b.per_mc:
            assert np.array_equal(
                result_b.per_mc[name].probabilities, result_s.per_mc[name].probabilities
            ), (key, name)
            assert np.array_equal(
                result_b.per_mc[name].smoothed, result_s.per_mc[name].smoothed
            ), (key, name)


class TestBatchedDispatchEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_fleets_are_bit_identical(self, seed):
        cameras = fleet(num_cameras=5, num_frames=10, seed=seed)
        rt_b, rep_b = run_fleet(cameras, batched=True, num_workers=4)
        rt_s, rep_s = run_fleet(cameras, batched=False, num_workers=4)
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)
        assert rt_b.batched is not None and rt_s.batched is None
        # Batches actually formed: fewer forwards than frames scored.
        assert rt_b.batched.frames_batched == rep_b.frames_scored
        assert rt_b.batched.batches_run < rt_b.batched.frames_batched

    def test_mixed_resolution_fleet(self):
        cameras = fleet(num_cameras=3, num_frames=8, width=32, height=32) + [
            CameraSpec(
                camera_id=f"big{i}",
                width=48,
                height=32,
                frame_rate=10.0,
                num_frames=8,
                scenario=SCENARIOS[i],
                seed=50 + i,
            )
            for i in range(2)
        ]
        rt_b, rep_b = run_fleet(cameras, batched=True, num_workers=4)
        rt_s, rep_s = run_fleet(cameras, batched=False, num_workers=4)
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)

    def test_overloaded_fleet_with_shedding(self):
        cameras = fleet(num_cameras=4, num_frames=12, frame_rate=15.0)
        kwargs = dict(num_workers=1, queue_capacity=2, service_time_scale=1.0)
        rt_b, rep_b = run_fleet(cameras, batched=True, **kwargs)
        rt_s, rep_s = run_fleet(cameras, batched=False, **kwargs)
        assert rep_b.frames_dropped > 0  # shedding is actually exercised
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)

    def test_live_threshold_drift_mid_run(self):
        cameras = fleet(num_cameras=4, num_frames=10)
        drift = (0.45, "cam01", 0.35)
        rt_b, rep_b = run_fleet(cameras, batched=True, num_workers=3, drift_at=drift)
        rt_s, rep_s = run_fleet(cameras, batched=False, num_workers=3, drift_at=drift)
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)

    def test_single_camera_degenerate_batch(self):
        cameras = fleet(num_cameras=1, num_frames=8)
        rt_b, rep_b = run_fleet(cameras, batched=True, num_workers=2)
        rt_s, rep_s = run_fleet(cameras, batched=False, num_workers=2)
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)

    def test_disabled_batching_builds_no_scorer(self):
        runtime = FleetRuntime(
            fleet(num_cameras=1, num_frames=2),
            config=FleetConfig(batched_scoring=False),
        )
        assert runtime.batched is None
        runtime.run()

    @pytest.mark.slow
    def test_64_camera_shared_dnn_sweep(self):
        """64 cameras on one resident base DNN: bit-identical, every batch full."""
        cameras = fleet(num_cameras=64, num_frames=6, frame_rate=10.0)
        kwargs = dict(num_workers=8, queue_capacity=8, service_time_scale=0.02)
        rt_b, rep_b = run_fleet(cameras, batched=True, **kwargs)
        rt_s, rep_s = run_fleet(cameras, batched=False, **kwargs)
        assert_runs_identical(rt_b, rep_b, rt_s, rep_s)
        assert rt_b.batched.frames_batched == rep_b.frames_scored
        # One resolution, so every dispatch window batches whole: 384 frames
        # in 48 batches of 8 workers.
        assert rt_b.batched.frames_batched == 8 * rt_b.batched.batches_run


def migration_cluster(batched):
    """A 2-node imbalanced cluster the migration controller must rebalance."""
    migration = MigrationController(
        MigrationConfig(
            imbalance_threshold=1.1,
            sustain_ticks=2,
            cooldown_ticks=2,
            cost_model=MigrationCostModel(blackout_seconds=0.2, cold_start_seconds=0.2),
        )
    )
    cameras = []
    for i in range(6):
        rate = 24.0 if i % 2 == 0 else 2.0
        cameras.append(
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=48,
                height=32,
                frame_rate=rate,
                num_frames=int(rate * 2.0),
                scenario="urban_day",
                seed=i,
            )
        )
    runtime = ShardedFleetRuntime(
        cameras,
        config=ShardingConfig(
            num_nodes=2,
            placement="round_robin",
            total_uplink_bps=100_000.0,
            node_config=FleetConfig(
                num_workers=1,
                queue_capacity=4,
                service_time_scale=0.12,
                batched_scoring=batched,
            ),
        ),
        control_loop=ControlLoop([migration], interval_seconds=0.25),
    )
    report = runtime.run()
    return runtime, report, migration


class TestMigrationMidTick:
    @pytest.fixture(scope="class")
    def batched_run(self):
        return migration_cluster(batched=True)

    def test_migrated_camera_scored_in_exactly_one_nodes_batch(self, batched_run):
        """No frame double-scored, none skipped, across the migration."""
        runtime, report, migration = batched_run
        assert migration.migrations, "scenario must actually migrate a camera"
        for _, camera_id, _, _ in migration.migrations:
            stint_indices: list[list[int]] = []
            for node in runtime.nodes.values():
                for state in node._states.values():
                    if state.spec.camera_id == camera_id:
                        stint_indices.append(list(state.session.source_indices))
            assert len(stint_indices) >= 2, "migrated camera must have stints on both nodes"
            combined = [i for stint in stint_indices for i in stint]
            assert len(combined) == len(set(combined)), (
                f"{camera_id} had frames scored twice across node batches"
            )
            # Every scored frame landed in exactly one stint, and both sides
            # of the move actually scored (the mid-tick handoff lost nothing
            # beyond the explicit migration blackout accounting).
            assert all(stint for stint in stint_indices)

    def test_migration_trace_identical_with_batching_off(self, batched_run):
        _, rep_batched, _ = batched_run
        _, rep_scalar, _ = migration_cluster(batched=False)
        problems = diff_traces(
            control_trace_records(rep_batched), control_trace_records(rep_scalar)
        )
        assert problems == [], "\n".join(problems)

    def test_pending_completions_drain(self, batched_run):
        runtime, _, _ = batched_run
        for node in runtime.nodes.values():
            assert node._in_service == []
            assert node.batched is not None and node.batched.pending == 0
