"""Incremental runtime execution: stepping, actuators, handoff, scaling."""

import math
from dataclasses import replace

import pytest

from repro.fleet import (
    CameraReport,
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    generate_fleet,
    resolution_scaled_schedule,
)
from repro.fleet.worker import default_schedule
from repro.perf.cost_model import CostModel

FAST = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def cameras(n=3, frame_rate=8.0, duration=1.5, width=48, height=32):
    return [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=width,
            height=height,
            frame_rate=frame_rate,
            num_frames=int(frame_rate * duration),
            scenario="urban_day",
            seed=i,
        )
        for i in range(n)
    ]


class TestStepping:
    def test_advance_until_is_time_bounded(self):
        runtime = FleetRuntime(cameras(duration=2.0), config=FAST)
        runtime.start()
        runtime.advance_until(0.5)
        assert runtime.has_pending_events
        assert runtime._heap[0][0] > 0.5

    def test_lifecycle_guards(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        with pytest.raises(RuntimeError, match="start"):
            runtime.advance_until(1.0)
        with pytest.raises(RuntimeError, match="start"):
            runtime.finalize()
        runtime.start()
        with pytest.raises(RuntimeError, match="once"):
            runtime.start()
        with pytest.raises(RuntimeError, match="pending"):
            runtime.finalize()
        runtime.advance_until(math.inf)
        runtime.finalize()
        with pytest.raises(RuntimeError, match="once"):
            runtime.finalize()

    def test_horizon_covers_every_feed(self):
        runtime = FleetRuntime(cameras(duration=1.5), config=FAST)
        assert runtime.horizon == 0.0  # nothing installed before start
        runtime.start()
        assert runtime.horizon == pytest.approx(1.5)
        # A handed-off camera whose feed ends later raises it ...
        source = FleetRuntime(
            [replace(cameras(n=1, duration=3.0)[0], camera_id="late")], config=FAST
        )
        source.start()
        source.advance_until(0.5)
        runtime.advance_until(0.5)
        runtime.attach_camera(source.detach_camera("late", 0.5), 0.5)
        assert runtime.horizon == pytest.approx(3.0)
        # ... and a detach does not lower it: the stint was hosted here.
        runtime.detach_camera("late", 1.0)
        assert runtime.horizon == pytest.approx(3.0)
        assert source.horizon == pytest.approx(3.0)


class TestActuators:
    def test_set_drop_policy_live(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        runtime.start()
        runtime.set_drop_policy("cam000", DropPolicy.DROP_NEWEST)
        assert runtime._states["cam000"].queue.policy is DropPolicy.DROP_NEWEST
        with pytest.raises(ValueError, match="not active"):
            runtime.set_drop_policy("cam999", DropPolicy.DROP_NEWEST)

    def test_quota_mid_run_without_prior_admission(self):
        """Installing admission control mid-run must not unbalance releases."""
        runtime = FleetRuntime(cameras(frame_rate=12.0, duration=2.0), config=FAST)
        runtime.start()
        runtime.advance_until(1.0)  # frames already in flight, no admission yet
        runtime.set_camera_quota("cam000", 1)
        runtime.advance_until(math.inf)
        report = runtime.finalize()
        assert runtime.admission is not None
        assert runtime.admission.quota_for("cam000") == 1
        assert (
            report.frames_scored + report.frames_dropped + report.frames_rejected
            == report.frames_generated
        )

    def test_live_stats_shape(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        runtime.start()
        runtime.advance_until(0.5)
        stats = runtime.camera_live_stats()
        assert sorted(stats) == ["cam000", "cam001", "cam002"]
        assert all(s.generated >= s.scored for s in stats.values())
        assert all(s.service_seconds > 0 for s in stats.values())


class TestHandoff:
    def test_detach_then_attach_conserves_frames(self):
        source = FleetRuntime(cameras(n=2, frame_rate=10.0, duration=2.0), config=FAST)
        destination = FleetRuntime(cameras(n=1, frame_rate=2.0, duration=2.0), config=FAST)
        # Rename the destination's own camera to avoid id collision.
        destination.cameras[0] = CameraSpec(
            camera_id="dst000", width=48, height=32, frame_rate=2.0,
            num_frames=4, scenario="urban_day", seed=9,
        )
        source.start()
        destination.start()
        source.advance_until(1.0)
        destination.advance_until(1.0)
        handoff = source.detach_camera("cam001", 1.0)
        destination.attach_camera(handoff, 1.0, resume_time=1.25)
        source.advance_until(math.inf)
        destination.advance_until(math.inf)
        src_report = source.finalize()
        dst_report = destination.finalize()
        total_offered = sum(s.num_frames for s in source.cameras) + 4
        assert (
            src_report.frames_generated + dst_report.frames_generated == total_offered
        )
        # The migrated camera shows up in both reports with partial counts.
        assert "cam001" in src_report.cameras and "cam001" in dst_report.cameras
        moved = dst_report.cameras["cam001"]
        assert moved.frames_generated > 0
        # Blackout frames were charged as rejected on the destination.
        feed = handoff.feed
        blackout = sum(1.0 < feed.arrival_time(i) < 1.25 for i in range(len(feed)))
        assert moved.frames_rejected >= blackout
        assert (
            dst_report.frames_scored
            + dst_report.frames_dropped
            + dst_report.frames_rejected
            == dst_report.frames_generated
        )

    def test_detach_clears_quota_override(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        runtime.start()
        runtime.set_camera_quota("cam000", 1)
        handoff = runtime.detach_camera("cam000", 0.5)
        assert runtime.admission.quota_for("cam000") is None
        runtime.attach_camera(handoff, 0.6, resume_time=0.6)
        assert runtime.admission.quota_for("cam000") is None

    def test_detach_requires_active_camera(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        runtime.start()
        runtime.detach_camera("cam000", 0.5)
        with pytest.raises(ValueError, match="not active"):
            runtime.detach_camera("cam000", 0.6)
        assert runtime.hosted_cameras() == ["cam001", "cam002"]

    def test_attach_rejects_duplicates_and_bad_resume(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        runtime.start()
        handoff = runtime.detach_camera("cam000", 0.5)
        with pytest.raises(ValueError, match="precede"):
            runtime.attach_camera(handoff, 0.6, resume_time=0.4)
        runtime.attach_camera(handoff, 0.6, resume_time=0.6)
        with pytest.raises(ValueError, match="already active"):
            runtime.attach_camera(handoff, 0.7)

    def test_zero_blackout_boundary_frame_is_not_processed_twice(self):
        """A frame arriving exactly at the detach tick stays with the source."""
        spec = CameraSpec(
            camera_id="edge000", width=48, height=32, frame_rate=4.0,
            num_frames=8, scenario="urban_day", seed=3,
        )
        source = FleetRuntime([spec], config=FAST)
        sink_spec = CameraSpec(
            camera_id="sink000", width=48, height=32, frame_rate=2.0,
            num_frames=4, scenario="urban_day", seed=4,
        )
        destination = FleetRuntime([sink_spec], config=FAST)
        source.start()
        destination.start()
        # Frame 0 arrives exactly at 0.25 (= 1/4 fps); detach at that instant
        # with a zero-blackout handoff.
        source.advance_until(0.25)
        destination.advance_until(0.25)
        handoff = source.detach_camera("edge000", 0.25)
        destination.attach_camera(handoff, 0.25, resume_time=0.25)
        source.advance_until(math.inf)
        destination.advance_until(math.inf)
        src_report = source.finalize()
        dst_report = destination.finalize()
        moved_generated = (
            src_report.cameras["edge000"].frames_generated
            + dst_report.cameras["edge000"].frames_generated
        )
        assert moved_generated == spec.num_frames

    def test_round_trip_merges_stints_into_one_camera_report(self):
        runtime = FleetRuntime(cameras(n=2, frame_rate=10.0, duration=2.0), config=FAST)
        runtime.start()
        runtime.advance_until(0.8)
        handoff = runtime.detach_camera("cam000", 0.8)
        runtime.attach_camera(handoff, 1.0, resume_time=1.0)
        runtime.advance_until(math.inf)
        report = runtime.finalize()
        assert set(report.cameras) == {"cam000", "cam001"}
        assert report.cameras["cam000"].frames_generated == 20
        assert (
            report.frames_scored + report.frames_dropped + report.frames_rejected
            == report.frames_generated
        )


def moving_camera(frame_rate=10.0, num_frames=30, seed=0):
    return CameraSpec(
        camera_id="cam000", width=48, height=32, frame_rate=frame_rate,
        num_frames=num_frames, scenario="urban_day", seed=seed,
    )


def resident(camera_id, seed):
    """A node's own slow camera, so a runtime can exist to be migrated to."""
    return CameraSpec(
        camera_id=camera_id, width=48, height=32, frame_rate=5.0,
        num_frames=15, scenario="urban_day", seed=seed,
    )


def hand_over(nodes, moves, camera_id="cam000"):
    """Advance every node to each move's time, then move the camera; run out the rest."""
    for runtime in nodes.values():
        runtime.start()
    for now, source, destination, blackout in moves:
        for runtime in nodes.values():
            runtime.advance_until(now)
        handoff = nodes[source].detach_camera(camera_id, now)
        nodes[destination].attach_camera(handoff, now, resume_time=now + blackout)
    for runtime in nodes.values():
        runtime.advance_until(math.inf)
    return {node_id: runtime.finalize() for node_id, runtime in nodes.items()}


class TestHandoffCursor:
    def test_redetach_inside_blackout_charges_each_frame_once(self):
        """A camera moved on before its blackout ran out is not offered those frames again.

        node1 charges the arrivals in (0.5, 1.0) as its blackout; detached
        from node1 at 0.7, the handoff's cursor is already past them, so
        node2 — resuming at 0.9 — neither charges 0.8 again nor serves 0.9.
        """
        spec = moving_camera(num_frames=20)
        nodes = {
            "node0": FleetRuntime([spec], config=FAST),
            "node1": FleetRuntime([resident("res001", 1)], config=FAST),
            "node2": FleetRuntime([resident("res002", 2)], config=FAST),
        }
        reports = hand_over(
            nodes, [(0.5, "node0", "node1", 0.5), (0.7, "node1", "node2", 0.2)]
        )
        generated = {n: r.cameras["cam000"].frames_generated for n, r in reports.items()}
        assert generated == {"node0": 5, "node1": 4, "node2": 11}
        assert sum(generated.values()) == spec.num_frames
        blackout = {
            n: r.telemetry.get("frames.migration_blackout", 0) for n, r in reports.items()
        }
        assert blackout == {"node0": 0, "node1": 4, "node2": 0}
        assert reports["node1"].cameras["cam000"].frames_rejected == 4
        # node2 serves the feed from the frame node1 would have resumed at.
        assert reports["node2"].cameras["cam000"].frames_scored == 11

    def test_handoff_carries_the_cursor(self):
        runtime = FleetRuntime([moving_camera()], config=FAST)
        runtime.start()
        runtime.advance_until(0.5)  # frames 0..4 arrive at 0.1 .. 0.5
        handoff = runtime.detach_camera("cam000", 0.5)
        assert handoff.next_frame == 5
        runtime.attach_camera(handoff, 0.5, resume_time=1.0)  # 0.6 .. 0.9 blacked out
        assert runtime.detach_camera("cam000", 0.5).next_frame == 9

    def test_there_and_back_twice_matches_the_pinned_reports(self):
        """The reports of PR 20's runtime on this schedule, field for field.

        Every blackout runs out before the next move, so nothing here touches
        the double charge the cursor removed: the numbers are the pre-cursor
        runtime's (pre-seeded heap, ``id(frame)`` tables), pinned when the
        event loop changed underneath them.
        """
        config = FleetConfig(
            num_workers=1, queue_capacity=2, service_time_scale=0.5, max_in_flight=3
        )
        nodes = {
            "node0": FleetRuntime(
                [moving_camera(), replace(moving_camera(seed=1), camera_id="cam001")],
                config=config,
            ),
            "node1": FleetRuntime([resident("cam002", 2)], config=config),
        }
        reports = hand_over(
            nodes,
            [
                (0.5, "node0", "node1", 0.15),
                (1.0, "node1", "node0", 0.25),
                (1.5, "node0", "node1", 0.0),
                (2.0, "node1", "node0", 0.35),
            ],
        )

        def camera(camera_id, frame_rate=10.0, **tallies):
            return CameraReport(camera_id, "urban_day", (48, 32), frame_rate, **tallies)

        assert reports["node0"].cameras == {
            "cam000": camera(
                "cam000", frames_generated=20, frames_admitted=4, frames_rejected=16,
                frames_scored=4, queue_high_water=2,
                mean_queue_wait_seconds=0.3153446963333334,
            ),
            "cam001": camera(
                "cam001", frames_generated=30, frames_admitted=13, frames_rejected=17,
                frames_scored=13, matched_frames=13, events=1, queue_high_water=2,
                mean_queue_wait_seconds=0.3317978996307698, uploaded_bits=15600.000000000002,
            ),
        }
        assert reports["node1"].cameras == {
            "cam002": camera(
                "cam002", frame_rate=5.0, frames_generated=15, frames_admitted=15,
                frames_scored=15, queue_high_water=2,
                mean_queue_wait_seconds=0.28066171545777807,
            ),
            "cam000": camera(
                "cam000", frames_generated=10, frames_admitted=2, frames_rejected=8,
                frames_scored=2, queue_high_water=1,
                mean_queue_wait_seconds=0.2422757570666666,
            ),
        }
        totals = {
            n: (r.frames_generated, r.frames_scored, r.frames_dropped, r.frames_rejected,
                r.telemetry.get("frames.migration_blackout", 0), r.sim_duration)
            for n, r in reports.items()
        }
        assert totals == {
            "node0": (50, 17, 0, 33, 5, 3.434343935066668),
            "node1": (25, 17, 0, 8, 1, 3.542068178000001),
        }


class TestHeap:
    def test_start_schedules_one_arrival_per_camera(self):
        fleet = generate_fleet(16, seed=0, duration_seconds=2.0)
        runtime = FleetRuntime(fleet, config=FAST)
        runtime.start()
        assert len(runtime._heap) == len(fleet)
        assert sorted(entry[3].camera_id for entry in runtime._heap) == sorted(
            spec.camera_id for spec in fleet
        )

    def test_heap_never_outgrows_stints_and_frames_in_flight(self):
        """At most one entry per stint (its next arrival, or its end-of-feed
        marker once detached) plus one completion per frame in service."""
        fleet = generate_fleet(16, seed=0, duration_seconds=2.0)
        overloaded = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.5)
        runtime = FleetRuntime(fleet, config=overloaded)
        runtime.start()
        moved = [spec.camera_id for spec in fleet[:3]]
        handoffs = {}
        step, now = 0, 0.0
        while runtime.has_pending_events:
            step, now = step + 1, (step + 1) * 0.05
            runtime.advance_until(now)
            if step == 10:
                handoffs = {cid: runtime.detach_camera(cid, now) for cid in moved}
            if step == 16:  # two of the three come back; the third stays away
                for camera_id in moved[:2]:
                    runtime.attach_camera(handoffs[camera_id], now, resume_time=now + 0.1)
            stints = runtime._states.values()
            markers = sum(s.detached_at is not None for s in stints)
            bound = len(runtime.hosted_cameras()) + markers + len(runtime._in_service)
            assert len(runtime._heap) <= bound, (now, len(runtime._heap), bound)
        report = runtime.finalize()
        # The camera that stayed away took the rest of its feed with it.
        away = handoffs[moved[2]]
        assert away.next_frame < len(away.feed)
        assert report.frames_generated == sum(spec.num_frames for spec in fleet) - (
            len(away.feed) - away.next_frame
        )


class TestResolutionScaledService:
    def test_schedule_scales_with_multiply_adds(self):
        base = default_schedule(1)
        small = resolution_scaled_schedule(base, (64, 48))
        large = resolution_scaled_schedule(base, (96, 64))
        assert small.total_seconds < large.total_seconds < base.total_seconds
        small_model = CostModel(resolution=(64, 48))
        large_model = CostModel(resolution=(96, 64))
        expected = (
            large_model.base_dnn_cost() + large_model.mc_cost("localized")
        ) / (small_model.base_dnn_cost() + small_model.mc_cost("localized"))
        assert large.total_seconds / small.total_seconds == pytest.approx(expected)

    def test_runtime_uses_per_camera_service_times(self):
        config = FleetConfig(
            num_workers=2,
            queue_capacity=4,
            service_time_scale=10.0,
            resolution_scaled_service=True,
        )
        fleet = cameras(n=1, width=48, height=32) + [
            CameraSpec(
                camera_id="big000", width=96, height=64, frame_rate=8.0,
                num_frames=12, scenario="urban_day", seed=5,
            )
        ]
        runtime = FleetRuntime(fleet, config=config)
        runtime.start()
        stats = runtime.camera_live_stats()
        assert stats["big000"].service_seconds > stats["cam000"].service_seconds

    def test_flat_service_by_default(self):
        runtime = FleetRuntime(cameras(n=2), config=FAST)
        runtime.start()
        assert runtime.camera_live_stats()["cam000"].service_seconds == pytest.approx(
            runtime.workers.service_seconds_for()
        )


class TestLinkPort:
    def test_work_conserving_port_moves_no_bits_before_the_drain(self):
        from repro.edge.uplink import WorkConservingUplink

        link = WorkConservingUplink(200_000.0, {"node0": 1.0, "node1": 1.0})
        port = link.links["node0"]
        runtime = FleetRuntime(
            cameras(n=2, frame_rate=10.0, duration=2.0), config=FAST, uplink=port
        )
        runtime.start()
        runtime.advance_until(math.inf)
        duration = runtime.close()
        # Submitted, not sent: the port has nothing to show until the drain.
        assert port.total_bits == 0.0
        assert link.transfers == []
        assert port.utilization(duration) == 0.0
        link.drain()
        report = runtime.finalize()
        assert report.total_uploaded_bits > 0
        assert report.total_uploaded_bits == port.total_bits == link.total_bits
        assert {t.node_id for t in link.transfers} == {"node0"}
        # The node measures itself against its guarantee, half the link.
        assert port.capacity_bps == 100_000.0
        assert report.uplink_utilization == port.total_bits / (100_000.0 * duration)
        assert report.uplink_backlog_seconds == port.backlog_seconds(duration)

    def test_close_is_once_only_and_finalize_runs_it_when_nobody_has(self):
        runtime = FleetRuntime(cameras(), config=FAST)
        with pytest.raises(RuntimeError, match="start"):
            runtime.close()
        runtime.start()
        with pytest.raises(RuntimeError, match="pending"):
            runtime.close()
        runtime.advance_until(math.inf)
        duration = runtime.close()
        with pytest.raises(RuntimeError, match="once"):
            runtime.close()
        closed_first = runtime.finalize()
        assert closed_first.sim_duration == duration
        assert closed_first.telemetry == FleetRuntime(cameras(), config=FAST).run().telemetry
