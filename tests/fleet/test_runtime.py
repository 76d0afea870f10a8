"""End-to-end fleet runtime: scheduling, shedding, telemetry, reporting."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.control import (
    ControlLoop,
    MigrationConfig,
    MigrationCostModel,
    SheddingConfig,
    ThresholdDriftConfig,
)
from repro.control.hierarchy import HierarchicalControlPlane, NodeControlPlane
from repro.edge.uplink import ConstrainedUplink
from repro.events import DeliveryConfig, OutboxConfig
from repro.events.ingest import DatacenterIngest
from repro.fleet.accuracy import AccuracyConfig, TrainedMicroClassifiers
from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import FleetConfig, FleetRuntime, default_pipeline_factory
from repro.fleet.sharding import ShardingConfig
from repro.fleet.worker import WorkerPool, default_schedule
from repro.obs.alerts import AlertRule, BurnRateRule, delivery_burn_rule, slo_burn_rule
from repro.obs.slo import DeliverySLOConfig, SLOConfig
from repro.video.frame import Frame


def tiny_fleet(num_cameras=3, num_frames=10, frame_rate=10.0, **spec_kwargs):
    scenarios = ["urban_day", "busy_intersection", "quiet_residential", "night_watch"]
    return [
        CameraSpec(
            camera_id=f"cam{i:02d}",
            width=32,
            height=32,
            frame_rate=frame_rate,
            num_frames=num_frames,
            scenario=scenarios[i % len(scenarios)],
            seed=i,
            **spec_kwargs,
        )
        for i in range(num_cameras)
    ]


def run_fleet(cameras, **config_kwargs):
    config = FleetConfig(**config_kwargs)
    runtime = FleetRuntime(cameras, config=config)
    return runtime.run()


class TestInferenceMemory:
    def test_a_deployed_camera_holds_its_weights_and_little_else(self):
        """A camera's pipeline costs ``8 * num_parameters`` bytes, not twice that.

        Deployment never trains, so no parameter may carry a gradient buffer
        (the same size again).  Measured with ``tracemalloc``, which NumPy
        reports its buffers to, rather than RSS, so the pin is deterministic.
        The slack covers the frames, the feature-map cache and initializer
        temporaries.
        """
        spec = CameraSpec(camera_id="cam00", width=96, height=64, frame_rate=10.0, num_frames=3)
        rng = np.random.default_rng(0)
        frames = [Frame(i, i / 10.0, rng.random((64, 96, 3))) for i in range(3)]
        gc.collect()
        tracemalloc.start()
        try:
            session = default_pipeline_factory()(spec)
            for frame in frames:
                session.push(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = 8 * (
            session.extractor.base_dnn.num_parameters()
            + sum(mc.num_parameters() for mc in session.microclassifiers)
        )
        assert weights > 4_000_000  # the 96x64 localized MC of e2e finding 2
        assert peak < 1.25 * weights + 256 * 1024, f"peak {peak} B for {weights} B of weights"


class TestWorkerPool:
    def test_phased_schedule_service_time(self):
        pool = WorkerPool(num_workers=2, service_time_scale=0.5)
        assert pool.service_seconds_for() == pytest.approx(default_schedule().total_seconds * 0.5)
        worker = pool.idle_worker(0.0)
        end = pool.start_frame(worker, 0.0)
        assert end == pytest.approx(pool.service_seconds_for())
        assert not worker.is_idle(end - 1e-6)
        assert worker.is_idle(end)

    def test_busy_worker_cannot_start(self):
        pool = WorkerPool(num_workers=1)
        worker = pool.workers[0]
        pool.start_frame(worker, 0.0)
        with pytest.raises(RuntimeError):
            pool.start_frame(worker, 0.0)

    def test_utilization(self):
        pool = WorkerPool(num_workers=2, service_time_scale=1.0)
        pool.start_frame(pool.workers[0], 0.0)
        duration = pool.service_seconds_for() * 2
        assert pool.utilization(duration) == pytest.approx(0.25)


class TestBatchedScoring:
    """What the scorer does; that it changes no output is the oracle registry's ``batched``."""

    def test_frames_in_service_score_as_whole_batches_and_drain(self):
        runtime = FleetRuntime(
            tiny_fleet(8, num_frames=6),
            config=FleetConfig(num_workers=4, queue_capacity=8, service_time_scale=0.02),
        )
        report = runtime.run()
        # One resolution, so every dispatch window batches all four workers' frames.
        assert runtime.batched.frames_batched == report.frames_scored == 4 * runtime.batched.batches_run
        assert runtime.batched._ready == {} and runtime._in_service == []

    def test_disabled_batching_builds_no_scorer(self):
        runtime = FleetRuntime(tiny_fleet(1, num_frames=2), config=FleetConfig(batched_scoring=False))
        assert runtime.batched is None
        runtime.run()


class TestOneSessionRecipe:
    """A trained fleet builds the default fleet's session; only the head varies."""

    def test_a_trained_session_differs_from_the_default_only_in_its_head(self):
        spec = CameraSpec("cam00", 32, 32, frame_rate=10.0, num_frames=8, scenario="urban_day")
        models = TrainedMicroClassifiers(AccuracyConfig(train_frames=16, epochs=0.5))
        default, trained = default_pipeline_factory()(spec), models.pipeline_factory()(spec)

        def weights(model):
            return [p.value.tobytes() for p in model.parameters()]

        assert weights(default.extractor.base_dnn) == weights(trained.extractor.base_dnn)
        assert default.extractor.tap_layers == trained.extractor.tap_layers
        assert default.extractor.cache_size == trained.extractor.cache_size
        assert default.config == trained.config
        (default_head,), (trained_head,) = default.microclassifiers, trained.microclassifiers
        assert default_head.config.upload_bitrate == trained_head.config.upload_bitrate
        assert weights(default_head) != weights(trained_head)


class TestFleetRuntime:
    def test_underload_scores_everything(self):
        report = run_fleet(
            tiny_fleet(2, num_frames=8, frame_rate=5.0),
            num_workers=2,
            service_time_scale=0.05,
        )
        assert report.frames_generated == 16
        assert report.frames_scored == 16
        assert report.frames_dropped == 0
        assert report.drop_rate == 0.0
        assert 0 < report.worker_utilization < 1.0

    def test_overload_sheds_load(self):
        report = run_fleet(
            tiny_fleet(4, num_frames=12, frame_rate=15.0),
            num_workers=1,
            queue_capacity=2,
            service_time_scale=1.0,
        )
        assert report.frames_dropped > 0
        assert 0.0 < report.drop_rate < 1.0
        assert report.frames_scored + report.frames_dropped == report.frames_generated
        # Every camera still made some progress (round-robin fairness).
        assert all(c.frames_scored > 0 for c in report.cameras.values())

    def test_admission_control_rejects_over_budget(self):
        report = run_fleet(
            tiny_fleet(3, num_frames=12, frame_rate=15.0),
            num_workers=1,
            queue_capacity=4,
            max_in_flight=3,
            service_time_scale=1.0,
        )
        assert report.frames_rejected > 0
        assert (
            report.frames_scored + report.frames_dropped + report.frames_rejected
            == report.frames_generated
        )

    def test_report_structure_and_summary(self):
        report = run_fleet(tiny_fleet(2, num_frames=6), num_workers=2, service_time_scale=0.1)
        assert report.num_cameras == 2
        assert set(report.cameras) == {"cam00", "cam01"}
        assert report.sim_duration > 0
        assert report.uplink_backlog_seconds >= 0.0
        summary = report.summary()
        assert "2 cameras" in summary and "fps" in summary

    def test_uplink_accounting_consistent(self):
        report = run_fleet(
            tiny_fleet(2, num_frames=10),
            num_workers=2,
            service_time_scale=0.05,
            uplink_capacity_bps=5_000.0,
        )
        per_camera = sum(c.uploaded_bits for c in report.cameras.values())
        assert report.total_uploaded_bits == pytest.approx(per_camera)
        if report.total_uploaded_bits > 0:
            assert report.uplink_utilization > 0

    def test_event_uploads_wait_for_scoring(self):
        """Under overload, events reach the uplink only after their frames are scored."""
        cameras = tiny_fleet(2, num_frames=10, frame_rate=15.0)
        runtime = FleetRuntime(
            cameras,
            pipeline_factory=default_pipeline_factory(threshold=0.01),
            config=FleetConfig(num_workers=1, queue_capacity=3, service_time_scale=1.0),
        )
        runtime.run()
        transfers = runtime.uplink.transfers
        assert transfers  # threshold 0.01 matches every scored frame
        for transfer in transfers:
            camera_id = transfer.description.split("/")[0]
            completions = runtime._states[camera_id].completion_times
            # The all-matching event closes at end of stream, long after the
            # feed itself ended; the upload cannot start before the camera's
            # last frame was scored.
            assert transfer.start_time >= completions[-1] - 1e-9

    def test_duplicate_camera_ids_rejected(self):
        cameras = tiny_fleet(2)
        with pytest.raises(ValueError, match="Duplicate"):
            FleetRuntime([cameras[0], cameras[0]])

    def test_requires_cameras(self):
        with pytest.raises(ValueError):
            FleetRuntime([])

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda nan: FleetConfig(service_time_scale=nan), id="service_time_scale"),
            pytest.param(lambda nan: FleetConfig(uplink_capacity_bps=nan), id="uplink_capacity_bps"),
            pytest.param(lambda nan: ShardingConfig(total_uplink_bps=nan), id="total_uplink_bps"),
            pytest.param(lambda nan: ConstrainedUplink(nan), id="link_capacity_bps"),
            # A NaN control interval would make ControlLoop.drive() spin forever.
            pytest.param(lambda nan: ControlLoop([], interval_seconds=nan), id="loop_interval"),
            pytest.param(
                lambda nan: HierarchicalControlPlane(interval_seconds=nan), id="hierarchy_interval"
            ),
            pytest.param(
                lambda nan: NodeControlPlane("node0", None, interval_seconds=nan),
                id="node_plane_interval",
            ),
            pytest.param(lambda nan: OutboxConfig(backoff_base_seconds=nan), id="backoff_base"),
            pytest.param(lambda nan: OutboxConfig(backoff_cap_seconds=nan), id="backoff_cap"),
            pytest.param(lambda nan: DatacenterIngest(nan), id="ingest_consumer_rate"),
            pytest.param(
                lambda nan: DeliveryConfig(consumer_rate_eps=nan), id="delivery_consumer_rate"
            ),
            pytest.param(lambda nan: SLOConfig(freshness_target_seconds=nan), id="freshness"),
            pytest.param(lambda nan: SLOConfig(latency_target_seconds=nan), id="latency"),
            pytest.param(lambda nan: DeliverySLOConfig(ack_latency_seconds=nan), id="ack_latency"),
            pytest.param(lambda nan: MigrationCostModel(blackout_seconds=nan), id="blackout"),
            pytest.param(lambda nan: MigrationCostModel(cold_start_seconds=nan), id="cold_start"),
            pytest.param(lambda nan: SheddingConfig(high_watermark_seconds=nan), id="high_wm"),
            pytest.param(lambda nan: SheddingConfig(low_watermark_seconds=nan), id="low_wm"),
            pytest.param(lambda nan: MigrationConfig(imbalance_threshold=nan), id="imbalance"),
            pytest.param(lambda nan: MigrationConfig(payback_factor=nan), id="payback"),
            pytest.param(lambda nan: ThresholdDriftConfig(tolerance=nan), id="drift_tolerance"),
            pytest.param(lambda nan: WorkerPool(service_time_scale=nan), id="worker_pool_scale"),
            pytest.param(lambda nan: AlertRule("r", "m", threshold=nan), id="alert_threshold"),
            pytest.param(
                lambda nan: AlertRule("r", "m", threshold=1.0, for_seconds=nan),
                id="alert_for_seconds",
            ),
            pytest.param(
                lambda nan: BurnRateRule("r", 0.9, threshold=nan, window_seconds=1.0),
                id="burn_threshold",
            ),
            pytest.param(
                lambda nan: BurnRateRule(
                    "r", 0.9, threshold=2.0, window_seconds=1.0, for_seconds=nan
                ),
                id="burn_for_seconds",
            ),
            pytest.param(
                lambda nan: BurnRateRule("r", 0.9, threshold=2.0, window_seconds=nan),
                id="burn_window_seconds",
            ),
            pytest.param(
                lambda nan: slo_burn_rule(SLOConfig(), window_seconds=nan), id="slo_burn_window"
            ),
            pytest.param(
                lambda nan: delivery_burn_rule(DeliverySLOConfig(), window_seconds=nan),
                id="delivery_burn_window",
            ),
        ],
    )
    def test_a_nan_setting_is_rejected(self, build):
        with pytest.raises(ValueError, match="must be"):
            build(math.nan)

    def test_per_camera_quota_improves_fairness(self):
        """A high-rate camera cannot monopolize the in-flight budget under quota."""
        cameras = [
            CameraSpec("hog", 32, 32, frame_rate=30.0, num_frames=30, scenario="urban_day"),
            CameraSpec("meek", 32, 32, frame_rate=5.0, num_frames=5, scenario="night_watch"),
        ]
        kwargs = dict(num_workers=1, queue_capacity=4, max_in_flight=4, service_time_scale=1.0)
        unfair = run_fleet(cameras, **kwargs)
        fair = run_fleet(cameras, per_camera_quota=2, **kwargs)
        assert fair.fairness_index >= unfair.fairness_index
        assert fair.cameras["meek"].frames_scored >= unfair.cameras["meek"].frames_scored
        assert fair.telemetry["admission.rejected_over_quota"]["value"] > 0

    def test_quota_without_node_budget(self):
        report = run_fleet(
            tiny_fleet(2, num_frames=12, frame_rate=15.0),
            num_workers=1,
            queue_capacity=2,
            per_camera_quota=3,
            service_time_scale=1.0,
        )
        assert report.frames_rejected > 0
        assert (
            report.frames_scored + report.frames_dropped + report.frames_rejected
            == report.frames_generated
        )

    def test_starvation_gauge_tracks_unscored_cameras(self):
        report = run_fleet(
            tiny_fleet(3, num_frames=8, frame_rate=12.0),
            num_workers=1,
            queue_capacity=2,
            service_time_scale=0.8,
        )
        gauge = report.telemetry["fairness.starved_cameras"]
        # Before any frame completes every arriving camera counts as starved;
        # by the end of this run each camera has scored something.
        assert gauge["max"] >= 1
        assert gauge["value"] == report.starved_cameras == 0

    def test_fairness_index_bounds(self):
        report = run_fleet(tiny_fleet(3, num_frames=6), num_workers=2, service_time_scale=0.05)
        assert report.fairness_index == pytest.approx(1.0)
        overloaded = run_fleet(
            tiny_fleet(4, num_frames=12, frame_rate=15.0),
            num_workers=1,
            queue_capacity=2,
            service_time_scale=1.0,
        )
        assert 1.0 / overloaded.num_cameras <= overloaded.fairness_index <= 1.0

    def test_injected_uplink_is_used(self):
        link = ConstrainedUplink(123_456.0)
        runtime = FleetRuntime(
            tiny_fleet(2, num_frames=5),
            config=FleetConfig(num_workers=2, service_time_scale=0.05),
            uplink=link,
        )
        runtime.run()
        assert runtime.uplink is link

    def test_shared_base_dnn_across_same_resolution(self):
        factory = default_pipeline_factory()
        specs = tiny_fleet(2)
        first = factory(specs[0])
        second = factory(specs[1])
        assert first.extractor.base_dnn is second.extractor.base_dnn
        assert first.extractor is not second.extractor

    def test_live_upload_estimate_tracks_matches(self):
        # Event-dense content at a generous capacity: matches happen, and
        # every match adds ~bitrate/frame_rate estimated bits, per camera
        # and node-wide, while the run is still in flight.  Snapshot the
        # live stats before finalize(): the end-of-run flush finalizes a
        # few more matches (smoothing lookahead) that no live tick ever saw.
        runtime = FleetRuntime(
            tiny_fleet(3),
            config=FleetConfig(num_workers=2, service_time_scale=0.01),
        )
        runtime.start()
        runtime.advance_until(float("inf"))
        stats = runtime.camera_live_stats()
        total = sum(s.estimated_upload_bits for s in stats.values())
        counter = runtime.telemetry.counters().get("uplink.estimated_bits", 0.0)
        assert counter == pytest.approx(total)
        assert total > 0.0  # event-dense scenarios match during the run
        for s in stats.values():
            # Per-frame estimate: matched frames * bitrate / frame_rate.
            assert s.estimated_upload_bits == pytest.approx(
                s.matched * 12_000.0 / s.frame_rate
            )
            if s.scored:
                assert s.upload_bits_per_scored_frame == pytest.approx(
                    s.estimated_upload_bits / s.scored
                )
        runtime.finalize()

    def test_live_stats_expose_session_threshold(self):
        runtime = FleetRuntime(
            tiny_fleet(2, num_frames=5),
            config=FleetConfig(num_workers=2, service_time_scale=0.05),
        )
        runtime.run()
        for stats in runtime.camera_live_stats().values():
            assert stats.threshold == pytest.approx(0.6)  # factory default
