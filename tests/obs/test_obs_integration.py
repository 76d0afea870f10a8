"""Observability wired through the fleet runtimes, control loop, and uplinks."""

import numpy as np
import pytest

from repro.control import AdaptiveSheddingController, ControlLoop, SheddingConfig
from repro.core.pipeline import PipelineConfig
from repro.core.streaming import StreamingPipeline
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
    generate_fleet,
)
from repro.fleet.runtime import _SessionRecipe, default_pipeline_factory
from repro.obs import (
    AlertRule,
    MetricsTimeline,
    SLOConfig,
    SLOReport,
    Tracer,
    profile_from_tracer,
)

NODE_CONFIG = FleetConfig(
    num_workers=2,
    queue_capacity=3,
    drop_policy=DropPolicy.DROP_OLDEST,
    slo=SLOConfig(objective=0.9),
)


class TestFleetRuntimeObservability:
    @pytest.fixture(scope="class")
    def observed_run(self):
        fleet = generate_fleet(6, seed=1, duration_seconds=1.5)
        tracer = Tracer(sample_every=1)
        runtime = FleetRuntime(
            fleet,
            config=NODE_CONFIG,
            pipeline_factory=default_pipeline_factory(threshold=0.05),
            tracer=tracer,
        )
        report = runtime.run()
        return runtime, tracer, report

    def test_report_carries_slo_and_summary_mentions_it(self, observed_run):
        _, _, report = observed_run
        assert report.slo is not None
        assert report.slo.frames == report.frames_generated
        assert "slo: fresh" in report.summary()

    def test_report_carries_each_cameras_slo(self, observed_run):
        _, _, report = observed_run
        assert report.cameras, "fleet must have cameras"
        for camera_id, camera in report.cameras.items():
            status = report.slo.camera(camera_id)
            assert status is not None and status.camera_id == camera_id
            assert status.frames >= status.scored == camera.frames_scored

    def test_slo_counters_and_latency_histogram_feed_telemetry(self, observed_run):
        runtime, _, report = observed_run
        latency = runtime.telemetry.histogram("latency.e2e_seconds")
        assert latency.count == report.frames_scored
        violations = runtime.telemetry.counter("slo.freshness_violations").value
        assert violations == report.slo.frames - sum(c.fresh for c in report.slo.cameras)

    def test_traces_account_for_every_generated_frame(self, observed_run):
        _, tracer, report = observed_run
        traces = tracer.frame_traces()
        assert len(traces) == report.frames_generated
        dropped = [t for t in traces if t.drop_reason is not None]
        scored = [t for t in traces if t.completed_at is not None]
        assert len(scored) == report.frames_scored
        assert len(dropped) == report.frames_generated - report.frames_scored

    def test_observability_does_not_change_the_simulation(self):
        fleet = generate_fleet(6, seed=1, duration_seconds=1.5)
        plain = FleetRuntime(fleet, config=FleetConfig(
            num_workers=2, queue_capacity=3, drop_policy=DropPolicy.DROP_OLDEST
        )).run()
        fleet = generate_fleet(6, seed=1, duration_seconds=1.5)
        observed = FleetRuntime(
            fleet,
            config=NODE_CONFIG,
            tracer=Tracer(sample_every=4),
        ).run()
        assert observed.frames_generated == plain.frames_generated
        assert observed.frames_scored == plain.frames_scored
        assert observed.frames_dropped == plain.frames_dropped


def _two_mc_factory(threshold=0.05):
    """The fleet's session with two low-threshold heads, so most matches overlap."""
    recipe = _SessionRecipe()

    def factory(spec):
        extractor = recipe.extractor(spec)
        heads = [
            recipe.head("localized", f"{spec.camera_id}/{name}", extractor, rng, threshold)
            for name, rng in (("a", np.random.default_rng(0)), ("b", np.random.default_rng(1)))
        ]
        return StreamingPipeline(
            extractor,
            heads,
            config=PipelineConfig(batch_size=1),
            frame_rate=spec.frame_rate,
            resolution=spec.resolution,
        )

    return factory


class TestUploadsReachTheirFrames:
    """The runtime stamps each traced frame with the transfer it submitted."""

    def test_a_frame_carried_by_two_events_keeps_the_first(self):
        fleet = generate_fleet(3, seed=1, duration_seconds=1.5)
        tracer = Tracer(sample_every=1)
        runtime = FleetRuntime(
            fleet, config=NODE_CONFIG, pipeline_factory=_two_mc_factory(), tracer=tracer
        )
        runtime.run()
        transfers = {t.description: t for t in runtime.uplink.transfers}
        # Every traced frame's carriers in close() order: head "a" before "b", then by event.
        carriers: dict[tuple[str, int], list[str]] = {}
        records = sorted(
            runtime.event_records,
            key=lambda r: (r.key.camera_id, r.mc_name.endswith("/b"), r.key.event_id),
        )
        for record in records:
            camera_id = record.key.camera_id
            description = f"{camera_id}/{record.mc_name}/event{record.key.event_id}"
            assert description in transfers
            source = runtime._states[camera_id].session.source_indices
            for index in source[record.start : record.end]:
                carriers.setdefault((camera_id, index), []).append(description)
        assert len(transfers) == len(records)
        shared = 0
        for trace in tracer.frame_traces():
            descriptions = carriers.get((trace.camera_id, trace.frame_index))
            if descriptions is None:
                assert (trace.upload_description, trace.upload_end) == (None, None)
                continue
            first = transfers[descriptions[0]]
            assert trace.upload_description == first.description
            assert (trace.upload_start, trace.upload_end) == (first.start_time, first.end_time)
            shared += len(descriptions) > 1
        assert shared > 0, "two threshold-0.05 heads must both carry some frame"

    @pytest.mark.parametrize("link", ["standalone", "work_conserving"])
    def test_each_uploaded_frame_reads_its_transfers_interval(self, link):
        fleet = generate_fleet(4, seed=1, duration_seconds=1.5)
        tracer = Tracer(sample_every=1)
        factory = default_pipeline_factory(threshold=0.05)
        if link == "standalone":
            runtime = FleetRuntime(
                fleet, config=NODE_CONFIG, pipeline_factory=factory, tracer=tracer
            )
            runtime.run()
            transfers = {"node0": runtime.uplink.transfers}
        else:
            runtime = ShardedFleetRuntime(
                fleet,
                config=ShardingConfig(
                    num_nodes=2,
                    total_uplink_bps=300_000.0,
                    uplink_sharing=link,
                    node_config=NODE_CONFIG,
                ),
                pipeline_factory=factory,
                tracer=tracer,
            )
            runtime.run()
            transfers = {
                node_id: [t for t in runtime.shared_uplink.transfers if t.node_id == node_id]
                for node_id in runtime.node_ids
            }
        uploaded = 0
        for node_id, node_transfers in transfers.items():
            by_description = {t.description: t for t in node_transfers}
            for trace in tracer.node(node_id).frame_traces():
                if trace.upload_description is None:
                    assert trace.upload_end is None
                    continue
                transfer = by_description[trace.upload_description]
                assert (trace.upload_start, trace.upload_end) == (
                    transfer.start_time,
                    transfer.end_time,
                )
                uploaded += 1
        assert uploaded > 0


ALERT_RULES = [
    AlertRule(
        name="queue_wait_p99",
        metric="latency.queue_wait_seconds.p99",
        threshold=0.3,
        for_seconds=0.25,
    ),
    AlertRule(
        name="uplink_demand",
        metric="uplink.estimated_bits",
        threshold=10_000.0,
        mode="rate",
        severity="page",
    ),
]


def _sharded_run(with_control: bool, shedding=SheddingConfig(cameras_per_step=1)):
    fleet = generate_fleet(8, seed=2, duration_seconds=1.5)
    tracer = Tracer(sample_every=2)
    timeline = MetricsTimeline()
    loop = None
    if with_control:
        loop = ControlLoop([AdaptiveSheddingController(shedding)], interval_seconds=0.25)
    runtime = ShardedFleetRuntime(
        fleet,
        config=ShardingConfig(
            num_nodes=2,
            total_uplink_bps=300_000.0,
            uplink_sharing="work_conserving",
            node_config=NODE_CONFIG,
        ),
        pipeline_factory=default_pipeline_factory(threshold=0.05),
        control_loop=loop,
        tracer=tracer,
        timeline=timeline,
        alert_rules=ALERT_RULES,
    )
    report = runtime.run()
    return report, tracer, timeline


class TestShardedObservability:
    def test_control_loop_path_scrapes_nodes_and_control(self):
        report, tracer, timeline = _sharded_run(with_control=True)
        assert timeline.sources == ["control", "node0", "node1"]
        assert len(timeline) > 3
        assert len(report.alerts) > 0
        assert report.slo is not None
        assert "slo: fresh" in report.summary()
        assert tracer.node_ids == ["node0", "node1"]

    def test_lockstep_path_scrapes_without_a_control_loop(self):
        report, _, timeline = _sharded_run(with_control=False)
        assert timeline.sources == ["node0", "node1"]
        times = sorted({s.time for s in timeline.samples})
        assert len(times) > 2, "lockstep driver must scrape at interval boundaries"
        assert report.slo is not None

    def test_merged_slo_covers_every_camera_once(self):
        report, _, _ = _sharded_run(with_control=False)
        camera_ids = [c.camera_id for c in report.slo.cameras]
        assert camera_ids == sorted(camera_ids)
        assert len(camera_ids) == len(set(camera_ids)) == 8
        assert report.slo.frames == report.frames_generated

    def test_work_conserving_upload_spans_reach_the_trace(self):
        _, tracer, _ = _sharded_run(with_control=False)
        uploaded = [t for t in tracer.frame_traces() if t.upload_end is not None]
        assert uploaded, "threshold=0.05 over a shared uplink must upload frames"
        for trace in uploaded:
            assert trace.upload_start >= trace.completed_at
            assert abs(trace.unaccounted_seconds()) < 1e-9

    def test_watching_controller_leaves_provenance_and_steers_nothing(self):
        # Watermarks no queue reaches: a decision is recorded per node per
        # tick, none acts, so the run sheds and scores as the uncontrolled one.
        watching = SheddingConfig(
            high_watermark_seconds=1e9, low_watermark_seconds=1e8, quota_ladder=(2,)
        )
        report, _, _ = _sharded_run(with_control=True, shedding=watching)
        plain, _, _ = _sharded_run(with_control=False)
        assert not report.control_log
        assert report.decision_records, "a watching controller must leave provenance"
        assert all(not record["actions"] for record in report.decision_records)
        assert report.frames_generated == plain.frames_generated
        assert report.frames_scored == plain.frames_scored
        assert report.alerts.to_jsonl() == plain.alerts.to_jsonl()


class TestMigrationObservability:
    def _cameras(self, n=2, frame_rate=16.0, duration=1.5):
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

    def test_migration_blackout_reaches_merged_slo(self):
        # Slow service sheds frames at the source; the blackout charges the destination.
        config = FleetConfig(
            num_workers=1,
            queue_capacity=2,
            service_time_scale=50.0,
            slo=SLOConfig(objective=0.9),
        )
        source = FleetRuntime(self._cameras(), config=config)
        destination = FleetRuntime(
            [
                CameraSpec(
                    camera_id="dst000",
                    width=48,
                    height=32,
                    frame_rate=2.0,
                    num_frames=3,
                    scenario="urban_day",
                    seed=9,
                )
            ],
            config=config,
        )
        source.start()
        destination.start()
        source.advance_until(0.5)
        destination.advance_until(0.5)
        handoff = source.detach_camera("cam001", 0.5)
        destination.attach_camera(handoff, 0.5, resume_time=0.75)
        source.advance_until(float("inf"))
        destination.advance_until(float("inf"))
        src_report = source.finalize()
        dst_report = destination.finalize()

        merged = SLOReport.merged([src_report.slo, dst_report.slo])
        moved = merged.camera("cam001")
        assert moved.frames == (
            src_report.cameras["cam001"].frames_generated
            + dst_report.cameras["cam001"].frames_generated
        )
        # Shed frames and the blackout both burn freshness.
        assert moved.fresh < moved.frames
        feed = handoff.feed
        blackout = sum(0.5 < feed.arrival_time(i) < 0.75 for i in range(len(feed)))
        assert blackout > 0
        assert dst_report.slo.camera("cam001").frames >= blackout


class TestProfileAttribution:
    @pytest.fixture(scope="class")
    def profile(self):
        fleet = generate_fleet(4, seed=3, duration_seconds=1.0)
        tracer = Tracer(sample_every=1)
        FleetRuntime(
            fleet,
            config=NODE_CONFIG,
            pipeline_factory=default_pipeline_factory(threshold=0.05),
            tracer=tracer,
        ).run()
        return profile_from_tracer(tracer)

    def test_rows_cover_lifecycle_stages_with_nesting(self, profile):
        stages = {row.stage for row in profile.rows}
        assert {"queue", "service"} <= stages
        sub_stages = [s for s in stages if s.startswith("service/")]
        assert sub_stages, "phased schedules must yield service sub-stages"
        for row in profile.rows:
            assert row.seconds >= 0.0 and row.frames > 0
            assert row.depth == row.stage.count("/")

    def test_sub_stages_sum_into_their_parent(self, profile):
        for camera_id in profile.cameras():
            rows = {row.stage: row for row in profile.camera_rows(camera_id)}
            service = rows.get("service")
            if service is None:
                continue
            nested = sum(
                row.seconds for stage, row in rows.items()
                if stage.startswith("service/") and stage.count("/") == 1
            )
            assert nested <= service.seconds + 1e-9

    def test_camera_total_counts_top_level_stages_only(self, profile):
        camera_id = profile.cameras()[0]
        total = profile.camera_total_seconds(camera_id)
        top = sum(r.seconds for r in profile.camera_rows(camera_id) if r.depth == 0)
        assert total == pytest.approx(top)

    def test_format_table_renders_every_camera(self, profile):
        table = profile.format_table()
        assert "per-stage attribution over sampled frames (1 in 1)" in table
        for camera_id in profile.cameras():
            assert camera_id in table
        assert "  base_dnn" in table or "service" in table
