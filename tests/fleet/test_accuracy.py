"""The fleet accuracy plane: seed ladder, trained-model cache, event F1.

Training is real but tiny (32x32 frames, short clips); one module-scoped
trained cache is shared across tests so each camera trains exactly once.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.architectures import WindowedLocalizedBinaryClassifierMC
from repro.fleet import (
    AccuracyConfig,
    CameraAccuracy,
    CameraSpec,
    DropPolicy,
    FleetAccuracy,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
    TrainedMicroClassifiers,
    camera_seed_ladder,
    evaluate_offline,
)
from repro.fleet.camera import CameraFeed
from repro.video.synthetic import TASK_PEDESTRIAN, SurveillanceSceneGenerator

SCENARIOS = ["retail_entrance", "busy_intersection", "urban_day"]

ACCURACY = AccuracyConfig(train_frames=48, epochs=2.0)


def tiny_fleet(num_cameras=3, num_frames=20, frame_rate=10.0):
    return [
        CameraSpec(
            camera_id=f"cam{i:02d}",
            width=32,
            height=32,
            frame_rate=frame_rate,
            num_frames=num_frames,
            scenario=SCENARIOS[i % len(SCENARIOS)],
            seed=100 + i,
            event_rate_scale=2.5,
        )
        for i in range(num_cameras)
    ]


@pytest.fixture(scope="module")
def models() -> TrainedMicroClassifiers:
    return TrainedMicroClassifiers(ACCURACY)


@pytest.fixture(scope="module")
def fleet():
    return tiny_fleet()


@pytest.fixture(scope="module")
def no_shed_report(fleet, models):
    config = FleetConfig(num_workers=2, service_time_scale=0.01, accuracy_task=ACCURACY.task)
    return FleetRuntime(fleet, pipeline_factory=models.pipeline_factory(), config=config).run()


@pytest.fixture(scope="module")
def shed_report(fleet, models):
    config = FleetConfig(
        num_workers=1, queue_capacity=2, service_time_scale=1.0, accuracy_task=ACCURACY.task
    )
    return FleetRuntime(fleet, pipeline_factory=models.pipeline_factory(), config=config).run()


class TestSeedLadder:
    def test_deterministic(self):
        spec = tiny_fleet(1)[0]
        assert camera_seed_ladder(spec, "weights") == camera_seed_ladder(spec, "weights")

    def test_purposes_are_independent(self):
        spec = tiny_fleet(1)[0]
        seeds = {camera_seed_ladder(spec, p) for p in ("train_scene", "weights", "training")}
        assert len(seeds) == 3

    def test_cameras_differ_even_with_equal_spec_seeds(self):
        a = CameraSpec("a", 32, 32, frame_rate=10.0, num_frames=10, seed=7)
        b = CameraSpec("b", 32, 32, frame_rate=10.0, num_frames=10, seed=7)
        assert camera_seed_ladder(a, "weights") != camera_seed_ladder(b, "weights")

    def test_unknown_purpose_rejected(self):
        with pytest.raises(ValueError, match="purpose"):
            camera_seed_ladder(tiny_fleet(1)[0], "lunch")


class TestAccuracyConfig:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="task"):
            AccuracyConfig(task="jaywalking")

    def test_tiny_training_clip_rejected(self):
        with pytest.raises(ValueError, match="train_frames"):
            AccuracyConfig(train_frames=4)

    def test_unknown_fleet_accuracy_task_rejected(self):
        with pytest.raises(ValueError, match="accuracy_task"):
            FleetConfig(accuracy_task="jaywalking")

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            AccuracyConfig(architecture="localised")

    @pytest.mark.parametrize("epochs", [0.0, -1.0, float("nan")])
    def test_non_positive_epochs_rejected_at_construction(self, epochs):
        # Not when the first camera trains inside FleetRuntime.start().
        with pytest.raises(ValueError, match="epochs"):
            AccuracyConfig(epochs=epochs)


class TestTrainedCache:
    def test_training_is_cached_per_spec(self, models, fleet):
        first = models.trained(fleet[0])
        hits = models.cache_hits
        again = models.trained(fleet[0])
        assert again is first
        assert models.cache_hits == hits + 1

    def test_training_is_bit_identical_across_instances(self, models, fleet):
        fresh = TrainedMicroClassifiers(ACCURACY)
        a = models.trained(fleet[1])
        b = fresh.trained(fleet[1])
        assert a.config.threshold == b.config.threshold
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_training_clip_uses_ladder_seed_not_live_seed(self, models, fleet):
        train_spec = models._training_spec(fleet[0])
        assert train_spec.seed == camera_seed_ladder(fleet[0], "train_scene")
        assert train_spec.seed != fleet[0].seed
        assert train_spec.num_frames == ACCURACY.train_frames

    def test_base_dnn_shared_per_resolution(self, models, fleet):
        factory = models.pipeline_factory()
        first, second = factory(fleet[0]), factory(fleet[1])
        assert first.extractor.base_dnn is second.extractor.base_dnn
        assert first.extractor is not second.extractor

    def test_threshold_was_calibrated_into_the_mc(self, models, fleet):
        assert 0.0 < models.trained(fleet[0]).config.threshold < 1.0


class TestCalibrationFallback:
    """An all-negative training clip must not calibrate a permissive threshold."""

    def test_all_negative_training_clip_end_to_end(self):
        # event_rate_scale=0 spawns no pedestrians at all: the rendered
        # training clip is all-negative and calibration must fall back.
        models = TrainedMicroClassifiers(ACCURACY)
        spec = CameraSpec(
            camera_id="cam_silent",
            width=32,
            height=32,
            frame_rate=10.0,
            num_frames=20,
            scenario="quiet_residential",
            seed=7,
            event_rate_scale=0.0,
        )
        generator = SurveillanceSceneGenerator(models._training_spec(spec).scene_config())
        assert not generator.labels_for_task(generator.spawn_objects(), ACCURACY.task).labels.any()
        assert models.trained(spec).config.threshold == 0.5


class TestWindowedCameras:
    """A windowed MC trains through the same cache: its window ring lives on the session."""

    @pytest.fixture(scope="class")
    def setup(self):
        models = TrainedMicroClassifiers(replace(ACCURACY, architecture="windowed"))
        cameras = tiny_fleet(2)
        config = FleetConfig(num_workers=2, service_time_scale=0.01, accuracy_task=ACCURACY.task)

        def run():
            return FleetRuntime(
                cameras, pipeline_factory=models.pipeline_factory(), config=config
            ).run()

        return models, cameras, run

    def test_trains_windowed_mcs(self, setup):
        models, cameras, _ = setup
        for spec in cameras:
            mc = models.trained(spec)
            assert isinstance(mc, WindowedLocalizedBinaryClassifierMC)
            assert 0.0 < mc.config.threshold < 1.0

    def test_no_shed_run_equals_offline_and_reruns_bit_for_bit(self, setup):
        models, cameras, run = setup
        first, second = run(), run()
        offline = evaluate_offline(cameras, models)
        assert first.drop_rate == 0.0
        assert first.accuracy.macro_f1 == offline.macro_f1
        assert first.telemetry == second.telemetry
        for camera_id, offline_camera in offline.cameras.items():
            for report in (first, second):
                camera = report.accuracy.cameras[camera_id]
                assert np.array_equal(camera.predictions, offline_camera.predictions)


class TestFleetAccuracyReport:
    def test_report_carries_accuracy(self, no_shed_report, fleet):
        accuracy = no_shed_report.accuracy
        assert accuracy is not None
        assert accuracy.task == TASK_PEDESTRIAN
        assert sorted(accuracy.cameras) == [spec.camera_id for spec in fleet]

    def test_accuracy_off_by_default(self, fleet, models):
        config = FleetConfig(num_workers=2, service_time_scale=0.01)
        report = FleetRuntime(
            fleet, pipeline_factory=models.pipeline_factory(), config=config
        ).run()
        assert report.accuracy is None
        assert "accuracy.truth_positive_generated" not in report.telemetry

    def test_no_shedding_reproduces_offline_exactly(self, no_shed_report, fleet, models):
        offline = evaluate_offline(fleet, models)
        assert no_shed_report.drop_rate == 0.0
        assert no_shed_report.accuracy.macro_f1 == offline.macro_f1
        for camera_id, offline_camera in offline.cameras.items():
            fleet_camera = no_shed_report.accuracy.cameras[camera_id]
            assert np.array_equal(fleet_camera.predictions, offline_camera.predictions)
            assert np.array_equal(fleet_camera.truth, offline_camera.truth)

    def test_truth_matches_feed_labels(self, no_shed_report, fleet):
        for spec in fleet:
            camera = no_shed_report.accuracy.cameras[spec.camera_id]
            expected = CameraFeed(spec).labels(TASK_PEDESTRIAN).labels
            assert np.array_equal(camera.truth, expected)
            assert camera.truth.size == spec.num_frames

    def test_truth_telemetry_counts_generated_positives(self, no_shed_report):
        accuracy = no_shed_report.accuracy
        total_positives = sum(int(c.truth.sum()) for c in accuracy.cameras.values())
        assert (
            no_shed_report.telemetry["accuracy.truth_positive_generated"] == total_positives
        )
        # Nothing was shed, so every generated positive was also scored.
        assert (
            no_shed_report.telemetry["accuracy.truth_positive_scored"] == total_positives
        )

    def test_shedding_shows_up_in_accuracy_drop_rate(self, shed_report):
        accuracy = shed_report.accuracy
        assert accuracy.drop_rate == pytest.approx(shed_report.drop_rate)
        assert accuracy.drop_rate > 0.3
        for camera in accuracy.cameras.values():
            assert camera.frames_scored < camera.frames_generated

    def test_shed_run_scores_fewer_truth_positives(self, shed_report):
        scored = shed_report.telemetry["accuracy.truth_positive_scored"]
        generated = shed_report.telemetry["accuracy.truth_positive_generated"]
        assert scored < generated

    def test_live_stats_expose_truth_density(self, fleet, models):
        config = FleetConfig(num_workers=2, service_time_scale=0.01, accuracy_task=ACCURACY.task)
        runtime = FleetRuntime(fleet, pipeline_factory=models.pipeline_factory(), config=config)
        runtime.start()
        runtime.advance_until(float("inf"))
        stats = runtime.camera_live_stats()
        for spec in fleet:
            expected = int(CameraFeed(spec).labels(TASK_PEDESTRIAN).labels.sum())
            assert stats[spec.camera_id].truth_positive_generated == expected
            assert stats[spec.camera_id].truth_positive_scored == expected
            assert 0.0 <= stats[spec.camera_id].truth_density <= 1.0
        runtime.finalize()

    def test_summary_mentions_accuracy(self, no_shed_report):
        assert "macro-F1" in no_shed_report.summary()


class TestTruthDensitySignal:
    def _stats(self, truth_known, truth_positive_generated, matched):
        from repro.fleet.runtime import CameraLiveStats

        return CameraLiveStats(
            camera_id="cam",
            resolution=(32, 32),
            frame_rate=10.0,
            generated=10,
            scored=10,
            matched=matched,
            service_seconds=0.01,
            truth_known=truth_known,
            truth_positive_generated=truth_positive_generated,
        )

    def test_shedding_uses_truth_density_when_known(self):
        from repro.control import AdaptiveSheddingController, SheddingConfig

        controller = AdaptiveSheddingController(
            SheddingConfig(value_signal="truth_density")
        )
        stats = self._stats(truth_known=True, truth_positive_generated=6, matched=1)
        assert controller._value(stats) == pytest.approx(0.6)

    def test_truth_density_falls_back_to_match_proxy_without_accuracy_plane(self):
        from repro.control import AdaptiveSheddingController, SheddingConfig

        controller = AdaptiveSheddingController(
            SheddingConfig(value_signal="truth_density")
        )
        # Accuracy plane off: every camera would report truth_density 0.0,
        # so the controller must fall back to the match-density proxy
        # instead of shedding purely by frame rate.
        stats = self._stats(truth_known=False, truth_positive_generated=0, matched=3)
        assert controller._value(stats) == pytest.approx(0.3)

    def test_unknown_value_signal_rejected(self):
        from repro.control import SheddingConfig

        with pytest.raises(ValueError, match="value_signal"):
            SheddingConfig(value_signal="vibes")


class TestCameraAccuracy:
    def _camera(self, truth, predictions, **kwargs):
        defaults = dict(camera_id="cam", scenario="urban_day", task=TASK_PEDESTRIAN)
        defaults.update(kwargs)
        return CameraAccuracy(truth=truth, predictions=predictions, **defaults)

    def test_perfect_predictions(self):
        camera = self._camera([0, 1, 1, 0], [0, 1, 1, 0], frames_generated=4, frames_scored=4)
        assert camera.f1 == 1.0
        assert camera.num_events == 1
        assert camera.drop_rate == 0.0

    def test_missed_event_scores_zero_recall(self):
        camera = self._camera([0, 1, 1, 0], [0, 0, 0, 0], frames_generated=4, frames_scored=1)
        assert camera.recall == 0.0
        assert camera.f1 == 0.0
        assert camera.drop_rate == pytest.approx(0.75)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            self._camera([0, 1], [0, 1, 0])

    def test_stint_merge_ors_predictions(self):
        first = self._camera([0, 1, 1, 0], [0, 1, 0, 0], frames_generated=2, frames_scored=1)
        second = self._camera([0, 1, 1, 0], [0, 0, 1, 0], frames_generated=2, frames_scored=1)
        merged = first.merged_with(second)
        assert merged.predictions.tolist() == [0, 1, 1, 0]
        assert merged.frames_generated == 4
        assert merged.f1 == 1.0

    def test_stint_merge_rejects_truth_mismatch(self):
        first = self._camera([0, 1], [0, 1])
        second = self._camera([1, 1], [0, 1])
        with pytest.raises(ValueError, match="truth"):
            first.merged_with(second)

    def test_fleet_merge_handles_empty_and_mixed(self):
        assert FleetAccuracy.merged([None, None]) is None
        one = FleetAccuracy(TASK_PEDESTRIAN, {"cam": self._camera([0, 1], [0, 1])})
        other = FleetAccuracy("person_with_red", {})
        with pytest.raises(ValueError, match="task"):
            FleetAccuracy.merged([one, other])


@pytest.mark.slow
class TestShardedAccuracy:
    @pytest.fixture(scope="class")
    def cluster_report(self, models):
        cameras = tiny_fleet(4)
        config = ShardingConfig(
            num_nodes=2,
            placement="round_robin",
            node_config=FleetConfig(
                num_workers=1, service_time_scale=0.01, accuracy_task=ACCURACY.task
            ),
        )
        return ShardedFleetRuntime(
            cameras, config=config, pipeline_factory=models.pipeline_factory()
        ).run()

    def test_cluster_report_merges_node_accuracy(self, cluster_report):
        accuracy = cluster_report.accuracy
        assert accuracy is not None
        assert accuracy.num_cameras == 4
        node_macro = [n.report.accuracy.macro_f1 for n in cluster_report.nodes]
        cluster_mean = float(
            np.mean([c.f1 for c in accuracy.cameras.values()])
        )
        assert accuracy.macro_f1 == cluster_mean
        assert all(0.0 <= f1 <= 1.0 for f1 in node_macro)

    def test_cluster_summary_mentions_accuracy(self, cluster_report):
        assert "macro-F1" in cluster_report.summary()


@pytest.mark.slow
class TestSheddingCostsAccuracy:
    """The F1-vs-drop-rate curve scheduling and control changes are read against.

    32 trained cameras over the four event-bearing scenarios at 8 / 10 /
    12 fps for 4 s, on 4 workers with 2-deep queues, under four increasing
    service times: provisioned, then 25 %, 60 % and 77 % shed.
    """

    SERVICE_SCALES = (0.004, 0.045, 0.09, 0.18)

    @pytest.fixture(scope="class")
    def run(self):
        scenarios = ("retail_entrance", "busy_intersection", "urban_day", "quiet_residential")
        rates = (8.0, 10.0, 12.0)
        cameras = [
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=48,
                height=32,
                frame_rate=rates[i % 3],
                num_frames=int(rates[i % 3] * 4.0),
                scenario=scenarios[i % 4],
                seed=500 + i,
                event_rate_scale=2.0,
            )
            for i in range(32)
        ]
        accuracy = AccuracyConfig(train_frames=96, epochs=3.0)
        models = TrainedMicroClassifiers(accuracy)

        def run(service_time_scale, drop_policy=DropPolicy.DROP_OLDEST):
            config = FleetConfig(
                num_workers=4,
                queue_capacity=2,
                drop_policy=drop_policy,
                service_time_scale=service_time_scale,
                accuracy_task=accuracy.task,
            )
            return FleetRuntime(
                cameras, pipeline_factory=models.pipeline_factory(), config=config
            ).run()

        return run

    def test_macro_f1_never_rises_as_more_is_shed(self, run):
        reports = [run(scale) for scale in self.SERVICE_SCALES]
        drop_rates = [report.drop_rate for report in reports]
        f1s = [report.accuracy.macro_f1 for report in reports]
        assert drop_rates[0] == 0.0
        assert all(b > a for a, b in zip(drop_rates, drop_rates[1:]))
        # 0.6428, 0.6397, 0.6151, 0.5284.
        assert all(b <= a for a, b in zip(f1s, f1s[1:]))
        assert f1s[-1] < f1s[0]

    @pytest.mark.parametrize("scale", SERVICE_SCALES[1:3])
    def test_drop_oldest_keeps_more_f1_than_drop_newest(self, run, scale):
        """Fresh frames keep smoothing runs alive; a stale head fragments them."""
        oldest, newest = run(scale), run(scale, DropPolicy.DROP_NEWEST)
        assert oldest.drop_rate == newest.drop_rate
        # 0.6397 against 0.6311 at 25 % shed, 0.6151 against 0.5719 at 60 %.
        assert oldest.accuracy.macro_f1 > newest.accuracy.macro_f1

    def test_a_shedding_run_repeats_bit_for_bit(self, run):
        first, second = run(self.SERVICE_SCALES[2]), run(self.SERVICE_SCALES[2])
        assert first.telemetry == second.telemetry
        assert first.accuracy.macro_f1 == second.accuracy.macro_f1
        for camera_id, camera in first.accuracy.cameras.items():
            twin = second.accuracy.cameras[camera_id]
            assert np.array_equal(camera.predictions, twin.predictions)
