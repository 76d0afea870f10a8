"""Per-camera SLO accounting: SLIs, error budgets, burn rates, merging."""

import math

import pytest

from repro.fleet import CameraSpec, FleetConfig, FleetRuntime, generate_fleet
from repro.obs import Tracer
from repro.obs.slo import CameraSLOStatus, SLOConfig, SLOReport


class TestSLOConfig:
    def test_defaults_are_valid(self):
        config = SLOConfig()
        assert config.objective == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"freshness_target_seconds": 0.0},
            {"latency_target_seconds": -1.0},
            {"objective": 0.0},
            {"objective": 1.0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            SLOConfig(**kwargs)


def _status(**overrides) -> CameraSLOStatus:
    fields = dict(
        camera_id="cam0",
        objective=0.9,
        frames=100,
        fresh=95,
        scored=90,
        within_latency=80,
        burn_rate=0.5,
        burning=False,
    )
    fields.update(overrides)
    return CameraSLOStatus(**fields)


class TestCameraSLOStatus:
    def test_fractions(self):
        status = _status()
        assert status.fresh_fraction == pytest.approx(0.95)
        assert status.latency_fraction == pytest.approx(80 / 90)
        assert status.meets_objective

    def test_empty_camera_is_vacuously_healthy(self):
        status = _status(frames=0, fresh=0, scored=0, within_latency=0)
        assert status.fresh_fraction == 1.0
        assert status.latency_fraction == 1.0
        assert status.meets_objective
        assert status.error_budget_remaining == 1.0

    def test_error_budget_accounting(self):
        # objective 0.9 over 100 frames allows 10 violations; 5 spent.
        assert _status().error_budget_remaining == pytest.approx(0.5)
        # Spending past the budget goes negative.
        assert _status(fresh=80).error_budget_remaining == pytest.approx(-1.0)
        # A zero-width budget is binary: perfect keeps it, any violation kills it.
        assert _status(frames=0, fresh=0).error_budget_remaining == 1.0

    def test_merged_with_adds_counts_and_keeps_worst_burn(self):
        first = _status(frames=60, fresh=55, scored=50, within_latency=45, burn_rate=0.5)
        second = _status(
            frames=40, fresh=40, scored=40, within_latency=35, burn_rate=2.5, burning=True
        )
        merged = first.merged_with(second)
        assert merged.frames == 100 and merged.fresh == 95
        assert merged.scored == 90 and merged.within_latency == 80
        assert merged.burn_rate == 2.5
        assert merged.burning

    def test_merged_with_rejects_mismatches(self):
        with pytest.raises(ValueError):
            _status().merged_with(_status(camera_id="cam1"))
        with pytest.raises(ValueError):
            _status().merged_with(_status(objective=0.95))


CONFIG = SLOConfig(freshness_target_seconds=0.5, latency_target_seconds=0.25, objective=0.9)


def _camera(camera_id="cam", num_frames=8, seed=0):
    return CameraSpec(camera_id, 32, 32, frame_rate=8.0, num_frames=num_frames, seed=seed)


class TestStintSLO:
    """A hosting stint's SLO tallies, written by the runtime's own SLO hooks."""

    def _stint(self, offered):
        """A started node's one stint, as if ``offered`` frames had arrived."""
        runtime = FleetRuntime([_camera()], config=FleetConfig(slo=CONFIG))
        runtime.start()
        stint = runtime._active["cam"]
        stint.generated = offered
        return runtime, stint

    def _scored(self, runtime, stint, *latencies):
        for latency in latencies:
            runtime._slo_scored(stint, latency)
            stint.scored += 1

    def test_scored_frames_classify_both_slis(self):
        runtime, stint = self._stint(offered=3)
        self._scored(runtime, stint, 0.1, 0.4, 0.9)
        status = stint.slo_status(CONFIG)
        assert status.frames == 3 and status.scored == 3
        assert status.fresh == 2 and status.within_latency == 1
        counters = runtime.telemetry.counters()
        assert counters["slo.freshness_violations"] == 1
        assert counters["slo.latency_violations"] == 2
        assert runtime.telemetry.histogram("latency.e2e_seconds").count == 3

    def test_lost_frames_count_against_freshness_only(self):
        runtime, stint = self._stint(offered=4)
        self._scored(runtime, stint, 0.1)
        runtime._slo_lost(stint, 3)
        status = stint.slo_status(CONFIG)
        assert status.frames == 4 and status.scored == 1
        assert status.fresh_fraction == pytest.approx(0.25)
        assert status.latency_fraction == 1.0  # the one scored frame was fast
        assert runtime.telemetry.counters()["slo.freshness_violations"] == 3

    def test_nonpositive_loss_is_a_noop(self):
        runtime, stint = self._stint(offered=0)
        runtime._slo_lost(stint, 0)
        runtime._slo_lost(stint, -5)
        assert not stint.burn_window
        assert "slo.freshness_violations" not in runtime.telemetry.counters()

    def test_burn_rate_is_windowed(self):
        runtime, stint = self._stint(offered=128)  # window 64, objective 0.9 -> allowed 10%
        self._scored(runtime, stint, *[9.9] * 64)  # all stale
        status = stint.slo_status(CONFIG)
        assert status.burn_rate == pytest.approx(10.0)
        assert status.burning
        # 64 fresh frames push the stale ones out of the window: burn
        # resets even though the cumulative SLI stays damaged.
        self._scored(runtime, stint, *[0.01] * 64)
        status = stint.slo_status(CONFIG)
        assert status.burn_rate == 0.0
        assert not status.burning
        assert status.fresh_fraction == pytest.approx(0.5)

    def test_lost_burst_larger_than_window_saturates_it(self):
        runtime, stint = self._stint(offered=1000)
        runtime._slo_lost(stint, 1000)
        status = stint.slo_status(CONFIG)
        assert status.frames == 1000 and len(stint.burn_window) == 64
        assert status.burn_rate == pytest.approx(10.0)
        assert runtime.telemetry.counters()["slo.freshness_violations"] == 1000

    def test_run_tallies_match_the_frames_traces(self):
        # One slow worker sheds; every camera's counts are its report's, and
        # its fresh / within-latency frames are the traced scored frames that
        # met each target (a shed frame is never fresh).
        cameras = [_camera(f"cam{i}", num_frames=12, seed=i) for i in range(3)]
        config = FleetConfig(num_workers=1, queue_capacity=2, service_time_scale=0.3, slo=CONFIG)
        tracer = Tracer(sample_every=1)
        report = FleetRuntime(cameras, config=config, tracer=tracer).run()
        assert report.frames_dropped > 0
        traces = tracer.frame_traces()
        for camera_id, camera in report.cameras.items():
            status = report.slo.camera(camera_id)
            assert (status.frames, status.scored) == (camera.frames_generated, camera.frames_scored)
            latencies = [
                t.completed_at - t.arrival
                for t in traces
                if t.camera_id == camera_id and t.completed_at is not None
            ]
            assert status.fresh == sum(latency <= 0.5 for latency in latencies)
            assert status.within_latency == sum(latency <= 0.25 for latency in latencies)

    def test_report_orders_cameras(self):
        cameras = [_camera(camera_id, seed=i) for i, camera_id in enumerate(("z", "a", "m"))]
        report = FleetRuntime(cameras, config=FleetConfig(slo=CONFIG)).run()
        assert [c.camera_id for c in report.slo.cameras] == ["a", "m", "z"]
        assert report.slo.camera("m").camera_id == "m"
        assert report.slo.camera("ghost") is None

    def test_a_stint_offered_no_frame_has_no_standing(self):
        # cam moves to the second node after its last arrival: that stint is
        # in the node's camera reports, offered nothing, and absent from its SLO report.
        first = FleetRuntime([_camera()], config=FleetConfig(slo=CONFIG))
        second = FleetRuntime([_camera("other", seed=1)], config=FleetConfig(slo=CONFIG))
        for runtime in (first, second):
            runtime.start()
            runtime.advance_until(2.0)
        second.attach_camera(first.detach_camera("cam", 2.0), 2.0)
        second.advance_until(math.inf)
        report = second.finalize()
        assert report.cameras["cam"].frames_generated == 0
        assert report.slo.camera("cam") is None
        assert report.slo.camera("other") is not None
class TestSLOReport:
    def _report(self) -> SLOReport:
        # cam0 scored two fresh frames; cam1 lost two, its window all violations.
        return SLOReport(
            config=SLOConfig(objective=0.9),
            cameras=(
                _status(frames=2, fresh=2, scored=2, within_latency=2, burn_rate=0.0),
                _status(
                    camera_id="cam1", frames=2, fresh=0, scored=0, within_latency=0,
                    burn_rate=10.0, burning=True,
                ),
            ),
        )

    def test_fleet_aggregates(self):
        report = self._report()
        assert report.frames == 4
        assert report.fresh_fraction == pytest.approx(0.5)
        assert report.latency_fraction == 1.0
        assert report.cameras_missing_objective == 1
        assert report.cameras_burning == 1  # cam1's window is all violations

    def test_summary_line(self):
        summary = self._report().summary()
        assert summary.startswith("slo: fresh 50.0% of frames")
        assert "1/2 cameras below objective, 1 burning" in summary

    def test_empty_report_is_vacuously_healthy(self):
        report = SLOReport(config=SLOConfig(), cameras=())
        assert report.frames == 0
        assert report.fresh_fraction == 1.0
        assert report.latency_fraction == 1.0

    def test_merged_combines_migrated_cameras(self):
        config = SLOConfig(objective=0.9)
        fresh = dict(frames=1, fresh=1, scored=1, within_latency=1, burn_rate=0.0)
        node_a = SLOReport(config, (_status(**fresh), _status(camera_id="only_a", **fresh)))
        lost = dict(frames=1, fresh=0, scored=0, within_latency=0, burn_rate=10.0, burning=True)
        node_b = SLOReport(config, (_status(**lost),))
        merged = SLOReport.merged([node_a, None, node_b])
        assert [c.camera_id for c in merged.cameras] == ["cam0", "only_a"]
        cam0 = merged.camera("cam0")
        assert cam0.frames == 2 and cam0.fresh == 1
        assert cam0.burn_rate == 10.0 and cam0.burning

    def test_merged_of_nothing_is_none(self):
        assert SLOReport.merged([]) is None
        assert SLOReport.merged([None, None]) is None

    def test_merged_rejects_config_mismatch(self):
        first = SLOReport(config=SLOConfig(objective=0.9), cameras=())
        second = SLOReport(config=SLOConfig(objective=0.95), cameras=())
        with pytest.raises(ValueError):
            SLOReport.merged([first, second])


class TestBurnRule:
    """A camera's burn rate on a node is its worst stint's, each stint read over its own window."""

    def test_a_returning_camera_reports_its_worst_stints_burn(self):
        fleet = generate_fleet(6, seed=1, duration_seconds=4.0)
        config = FleetConfig(
            num_workers=1, queue_capacity=2, per_camera_quota=1, service_time_scale=0.3,
            slo=SLOConfig(),
        )
        tracer = Tracer(sample_every=1)
        nodes = {
            "A": FleetRuntime(fleet[:3], config=config, tracer=tracer),
            "B": FleetRuntime(fleet[3:], config=config),
        }
        for runtime in nodes.values():
            runtime.start()
        hops = [(1.0, "A", "B"), (1.6, "B", "A"), (2.4, "A", "B"), (3.0, "B", "A")]
        for at, source, destination in hops:
            for runtime in nodes.values():
                runtime.advance_until(at)
            handoff = nodes[source].detach_camera("cam000", at)
            nodes[destination].attach_camera(handoff, at, resume_time=at + 0.1)
        for runtime in nodes.values():
            runtime.advance_until(math.inf)
        duration = max(runtime.close() for runtime in nodes.values())
        report = nodes["A"].finalize(duration)

        # A's three stints of cam000: (blackout start, first arrival, last arrival).
        objective = config.slo.objective
        arrival = handoff.feed.arrival_time
        arrivals = [arrival(i) for i in range(len(handoff.feed))]
        traces = [t for t in tracer.frame_traces() if t.camera_id == "cam000"]
        burns = []
        for lost_after, first, last in [(None, 0.0, 1.0), (1.6, 1.7, 2.4), (3.0, 3.1, math.inf)]:
            lost = 0 if lost_after is None else sum(lost_after < t < first for t in arrivals)
            stint = [t for t in traces if first <= t.arrival <= last]
            frames = lost + len(stint)
            fresh = sum(
                t.completed_at is not None and t.completed_at - t.arrival <= 0.5 for t in stint
            )
            # Under 64 frames, a stint's window holds all of them, in whatever order.
            assert 0 < frames <= 64
            burns.append((frames - fresh) / frames / (1.0 - objective))
        status, camera = report.slo.camera("cam000"), report.cameras["cam000"]
        assert status.burn_rate == pytest.approx(max(burns), rel=1e-12)
        # One window across all three stints would read the node's whole tally instead.
        whole = (status.frames - status.fresh) / status.frames / (1.0 - objective)
        assert status.frames <= 64 and status.burn_rate != pytest.approx(whole)
        assert (status.frames, status.scored) == (camera.frames_generated, camera.frames_scored)
