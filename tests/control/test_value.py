"""Value-aware control: threshold drift, and what value-ranked shedding buys."""

import pytest

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    NodeActuator,
    SetCameraThreshold,
    SheddingConfig,
    ThresholdDriftConfig,
    ThresholdDriftController,
)
from repro.control.policies import Controller
from repro.fleet import (
    AccuracyConfig,
    CameraSpec,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
    TrainedMicroClassifiers,
)

from control_helpers import FakeRuntime, action_records, actions_of, make_stats, make_view

def drift_stats(
    camera_id: str = "cam000",
    generated: int = 40,
    scored: int = 40,
    matched: int = 0,
    truth_positive: int = 8,
    threshold: float = 0.5,
):
    return make_stats(
        camera_id,
        generated=generated,
        scored=scored,
        matched=matched,
        truth_known=True,
        truth_positive_generated=truth_positive,
        truth_positive_scored=truth_positive,
        threshold=threshold,
    )


class TestThresholdDriftConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            ThresholdDriftConfig(tolerance=-0.1)
        with pytest.raises(ValueError, match="min_scored"):
            ThresholdDriftConfig(min_scored=0)
        with pytest.raises(ValueError, match="cooldown"):
            ThresholdDriftConfig(cooldown_ticks=-1)


class TestThresholdDrift:
    CONFIG = ThresholdDriftConfig(
        tolerance=0.5, min_scored=16, cooldown_ticks=2
    )

    def drift_once(self, runtime):
        """The actions a fresh controller takes on its first look at ``runtime``."""
        return actions_of(ThresholdDriftController(self.CONFIG).decide(make_view({"node0": runtime})))

    def test_over_firing_camera_gets_threshold_raised(self):
        # Truth density 0.2, match density 0.75: the MC fires far too often.
        runtime = FakeRuntime({"cam000": drift_stats(matched=30, truth_positive=8)})
        actions = self.drift_once(runtime)
        assert actions == [
            SetCameraThreshold(node_id="node0", camera_id="cam000", threshold=0.55)
        ]

    def test_under_firing_camera_gets_threshold_lowered(self):
        # Truth density 0.5, match density 0.05: the MC misses events.
        runtime = FakeRuntime({"cam000": drift_stats(matched=2, truth_positive=20)})
        actions = self.drift_once(runtime)
        assert actions == [
            SetCameraThreshold(node_id="node0", camera_id="cam000", threshold=0.45)
        ]

    def test_in_band_camera_is_left_alone(self):
        runtime = FakeRuntime({"cam000": drift_stats(matched=8, truth_positive=8)})
        assert self.drift_once(runtime) == []

    def test_zero_truth_density_never_lowers(self):
        # Nothing to recall: a silent scene only ever pushes the threshold up.
        runtime = FakeRuntime({"cam000": drift_stats(matched=0, truth_positive=0)})
        assert self.drift_once(runtime) == []

    def test_needs_min_scored_window(self):
        runtime = FakeRuntime(
            {"cam000": drift_stats(generated=10, scored=10, matched=9, truth_positive=1)}
        )
        assert self.drift_once(runtime) == []

    def test_cameras_without_truth_or_threshold_are_skipped(self):
        runtime = FakeRuntime(
            {
                "cam_no_truth": make_stats(
                    "cam_no_truth", generated=40, scored=40, matched=30, threshold=0.5
                ),
                "cam_no_threshold": drift_stats("cam_no_threshold", matched=30, threshold=0.0),
            }
        )
        assert self.drift_once(runtime) == []

    def test_cooldown_then_fresh_window(self):
        controller = ThresholdDriftController(self.CONFIG)
        runtime = FakeRuntime({"cam000": drift_stats(matched=30, truth_positive=8)})
        assert len(actions_of(controller.decide(make_view({"node0": runtime})))) == 1
        # Two cooldown ticks: silent even though the picture looks the same.
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []
        # Post-cooldown, only post-adjustment frames count: the new window
        # (40 more scored, all matched at the raised threshold) still
        # over-fires, so it steps again from the *live* threshold.
        runtime.cameras["cam000"] = drift_stats(
            generated=80, scored=80, matched=60, truth_positive=16, threshold=0.55
        )
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert actions == [
            SetCameraThreshold(node_id="node0", camera_id="cam000", threshold=0.6)
        ]

    def test_balanced_second_window_is_quiet_despite_skewed_history(self):
        controller = ThresholdDriftController(ThresholdDriftConfig(cooldown_ticks=0))
        runtime = FakeRuntime({"cam000": drift_stats(matched=30, truth_positive=8)})
        controller.decide(make_view({"node0": runtime}))
        # The next 40 frames are perfectly calibrated; cumulative densities
        # are still skewed, but the windowed view sees no leak.
        runtime.cameras["cam000"] = drift_stats(
            generated=80, scored=80, matched=38, truth_positive=16, threshold=0.55
        )
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_clamped_threshold_emits_no_noop_actions(self):
        controller = ThresholdDriftController(ThresholdDriftConfig(cooldown_ticks=0))
        runtime = FakeRuntime(
            {"cam000": drift_stats(matched=30, truth_positive=8, threshold=0.93)}
        )
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert actions[0].threshold == 0.95  # clamped: 0.93 + 0.05 is past the ceiling
        runtime.cameras["cam000"] = drift_stats(
            generated=80, scored=80, matched=60, truth_positive=16, threshold=0.95
        )
        # Pinned at the clamp: stepping again would be a no-op, so silence.
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_stint_change_during_cooldown_does_not_corrupt_the_window(self):
        # Adjustment at tick 0 starts a cooldown; the camera migrates away
        # and returns DURING the cooldown with freshly-zeroed counters that
        # then catch up past the stale baseline.  Without stint detection,
        # the first post-cooldown window computes a negative match delta
        # ((4 - 30) / window) and spuriously lowers the threshold.
        controller = ThresholdDriftController(
            ThresholdDriftConfig(tolerance=0.5, min_scored=16, cooldown_ticks=2)
        )
        runtime = FakeRuntime({"cam000": drift_stats(matched=30, truth_positive=8)})
        assert len(actions_of(controller.decide(make_view({"node0": runtime})))) == 1
        # New stint (attached_at moved): counters restarted and caught up
        # past the baseline on scored/generated, but not on matched.
        runtime.cameras["cam000"] = make_stats(
            "cam000", generated=36, scored=36, matched=4, truth_known=True,
            truth_positive_generated=8, truth_positive_scored=8,
            threshold=0.55, attached_at=1.25,
        )
        # The stint change rebases (and clears the stale cooldown) instead
        # of evaluating a cross-stint window.
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []
        # The next window is judged purely on the new stint's frames: a
        # balanced stint (matched tracks truth) stays quiet.
        runtime.cameras["cam000"] = make_stats(
            "cam000", generated=72, scored=72, matched=12, truth_known=True,
            truth_positive_generated=16, truth_positive_scored=16,
            threshold=0.55, attached_at=1.25,
        )
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_shed_truth_positives_do_not_read_as_under_firing(self):
        # Half the frames (including every event frame) were shed by a
        # co-deployed quota cap: the truth positives all sit in UNSCORED
        # frames.  Judging matches against generated-frame truth would see
        # observed 0 < expected 0.25 and ratchet the threshold down; over
        # scored frames the expected rate is 0 and drift stays silent.
        controller = ThresholdDriftController(self.CONFIG)
        runtime = FakeRuntime(
            {
                "cam000": make_stats(
                    "cam000", generated=32, scored=16, matched=0, truth_known=True,
                    truth_positive_generated=8, truth_positive_scored=0,
                    threshold=0.5,
                )
            }
        )
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_migrated_and_returned_camera_rebases_the_window(self):
        controller = ThresholdDriftController(ThresholdDriftConfig(cooldown_ticks=0))
        runtime = FakeRuntime({"cam000": drift_stats(generated=100, scored=100, matched=20)})
        controller.decide(make_view({"node0": runtime}))
        # Fresh stint: counts reset below the baseline -> rebase, no action.
        runtime.cameras["cam000"] = drift_stats(
            generated=30, scored=30, matched=25, truth_positive=6
        )
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []
        # The stint's next window is judged on its own frames.
        runtime.cameras["cam000"] = drift_stats(
            generated=70, scored=70, matched=60, truth_positive=14
        )
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert [a.camera_id for a in actions] == ["cam000"]


class _ScriptedController(Controller):
    """Emits a fixed action list once, for actuator plumbing tests."""

    name = "scripted"

    def __init__(self, actions):
        self._actions = list(actions)

    def decide(self, view):
        actions, self._actions = self._actions, []
        return action_records(self.name, actions)


class TestThresholdActuation:
    def small_runtime(self) -> FleetRuntime:
        cameras = [
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=32,
                height=32,
                frame_rate=4.0,
                num_frames=8,
                scenario="urban_day",
                seed=i,
            )
            for i in range(2)
        ]
        return FleetRuntime(cameras, config=FleetConfig(num_workers=2))

    def test_set_camera_threshold_reaches_the_live_session(self):
        runtime = self.small_runtime()
        loop = ControlLoop(
            [
                _ScriptedController(
                    [SetCameraThreshold(node_id="node0", camera_id="cam001", threshold=0.9)]
                )
            ],
            interval_seconds=0.5,
        )
        loop.run_node(runtime)
        report = runtime.finalize()
        assert report.frames_scored > 0
        stats = runtime.camera_live_stats()
        assert stats["cam001"].threshold == pytest.approx(0.9)
        assert stats["cam000"].threshold == pytest.approx(0.6)  # factory default
        assert loop.counter_value("control.threshold.drifts") == 1
        assert any("set_camera_threshold" in line for line in loop.decision_log)
        gauge = runtime.telemetry.snapshot()["accuracy.threshold.cam001"]
        assert gauge["value"] == pytest.approx(0.9)

    def test_threshold_override_changes_decisions_not_the_shared_mc(self):
        runtime = self.small_runtime()
        runtime.start()
        runtime.advance_until(0.5)
        session = runtime._active["cam000"].session
        mc = session.microclassifiers[0]
        before = mc.config.threshold
        runtime.set_camera_threshold("cam000", 0.95)
        assert session.current_threshold() == pytest.approx(0.95)
        assert mc.config.threshold == before  # shared model untouched
        runtime.advance_until(float("inf"))
        runtime.finalize()

    def test_multi_mc_session_drifts_only_the_primary(self):
        # A session with two differently-calibrated MCs: the unnamed
        # actuation targets the primary (first-installed, the one live
        # stats report); the secondary keeps its own threshold unless
        # named explicitly.
        import numpy as np

        from repro.core.architectures import build_microclassifier
        from repro.core.microclassifier import MicroClassifierConfig
        from repro.core.streaming import StreamingPipeline
        from repro.features.base_dnn import build_mobilenet_like
        from repro.features.extractor import FeatureExtractor

        def factory(spec):
            base = build_mobilenet_like(
                (spec.height, spec.width, 3), alpha=0.125, rng=np.random.default_rng(0)
            )
            extractor = FeatureExtractor(base, ["conv2_2/sep"], cache_size=4)
            mcs = [
                build_microclassifier(
                    "localized",
                    MicroClassifierConfig(
                        f"{spec.camera_id}/{name}",
                        "conv2_2/sep",
                        threshold=threshold,
                        upload_bitrate=12_000.0,
                    ),
                    extractor.layer_shape("conv2_2/sep"),
                    rng=np.random.default_rng(i),
                )
                for i, (name, threshold) in enumerate(
                    [("primary", 0.6), ("secondary", 0.7)]
                )
            ]
            return StreamingPipeline(
                extractor, mcs, frame_rate=spec.frame_rate, resolution=spec.resolution
            )

        spec = CameraSpec(
            camera_id="cam000", width=32, height=32, frame_rate=4.0, num_frames=4,
            scenario="urban_day", seed=0,
        )
        runtime = FleetRuntime([spec], pipeline_factory=factory, config=FleetConfig())
        runtime.start()
        runtime.set_camera_threshold("cam000", 0.9)
        session = runtime._active["cam000"].session
        assert session.current_threshold("cam000/primary") == pytest.approx(0.9)
        assert session.current_threshold("cam000/secondary") == pytest.approx(0.7)
        assert runtime.camera_live_stats()["cam000"].threshold == pytest.approx(0.9)
        runtime.set_camera_threshold("cam000", 0.8)  # a second drift moves the primary again
        assert session.current_threshold("cam000/primary") == pytest.approx(0.8)
        assert session.current_threshold("cam000/secondary") == pytest.approx(0.7)
        runtime.advance_until(float("inf"))
        runtime.finalize()

    def test_unknown_camera_is_rejected(self):
        runtime = self.small_runtime()
        runtime.start()
        with pytest.raises(ValueError, match="not active"):
            runtime.set_camera_threshold("nope", 0.5)
        runtime.advance_until(float("inf"))
        runtime.finalize()

    def test_node_actuator_exposes_its_uplink_guarantee(self):
        runtime = self.small_runtime()
        actuator = NodeActuator(runtime, "node0")
        assert actuator.uplink_guarantees == {
            "node0": runtime.uplink.capacity_bps
        }


@pytest.mark.slow
class TestTruthRankingKeepsMoreF1:
    """Who sheds decides what shedding costs: 64 trained cameras on 4 nodes.

    32 sparse, heavy cameras (highway / night, 64x48, 8-10 fps) carry most of
    the compute and few events; 16 dense steady ones (busy intersections,
    6 fps) and 16 dense hot ones (retail entrances, 12 fps) that only come
    online at mid-run push every node past capacity.  The hot cameras have
    scored nothing when they appear, so their match-density proxy reads
    exactly 0 and ranking by it caps the event-densest cameras first;
    ranking by truth density per service-second caps the sparse heavy ones.
    Every loop under comparison is the one shedding controller with the same
    watermarks and ladder; only ``value_signal`` differs.
    """

    WATERMARKS = dict(
        high_watermark_seconds=0.3,
        low_watermark_seconds=0.1,
        cameras_per_step=2,
        quota_ladder=(1,),
    )

    @pytest.fixture(scope="class")
    def models(self):
        return TrainedMicroClassifiers(AccuracyConfig(train_frames=64, epochs=2.0))

    @pytest.fixture(scope="class")
    def fleet(self):
        def camera(camera_id, size, rate, seconds, scenario, seed, **kwargs):
            return CameraSpec(
                camera_id=camera_id,
                width=size[0],
                height=size[1],
                frame_rate=rate,
                num_frames=int(rate * seconds),
                scenario=scenario,
                seed=seed,
                **kwargs,
            )

        small, large = (48, 32), (64, 48)
        dense = dict(event_rate_scale=2.0)
        hot = dict(start_time=1.5, **dense)
        fleet = []
        for i in range(16):
            fleet.append(camera(f"hot{i:02d}", small, 12.0, 1.5, "retail_entrance", 900 + i, **hot))
        for i in range(16):
            spec = camera(f"den{i:03d}", small, 6.0, 3.0, "busy_intersection", 300 + i, **dense)
            fleet.append(spec)
        for i in range(32):
            rate, scenario = ((10.0, "highway_overpass"), (8.0, "night_watch"))[i % 2]
            fleet.append(camera(f"spr{i:03d}", large, rate, 3.0, scenario, i))
        return fleet

    @pytest.fixture(scope="class")
    def run(self, models, fleet):
        config = ShardingConfig(
            num_nodes=4,
            placement="load_aware",
            total_uplink_bps=400_000.0,
            uplink_sharing="work_conserving",
            node_config=FleetConfig(
                num_workers=2,
                queue_capacity=4,
                service_time_scale=40.0,
                resolution_scaled_service=True,
                accuracy_task=models.config.task,
            ),
        )

        def run(*controllers):
            return ShardedFleetRuntime(
                fleet,
                config=config,
                pipeline_factory=models.pipeline_factory(),
                control_loop=ControlLoop(list(controllers), interval_seconds=0.25),
            ).run()

        return run

    def shedding(self, signal="truth_density"):
        return AdaptiveSheddingController(
            SheddingConfig(value_signal=signal, **self.WATERMARKS)
        )

    @pytest.fixture(scope="class")
    def value(self, run):
        return run(self.shedding())

    def test_truth_density_beats_the_match_density_proxy(self, run, value):
        proxy = run(self.shedding("match_density"))
        assert proxy.accuracy.num_cameras == 64
        assert proxy.shedding_interventions > 0 and value.shedding_interventions > 0
        assert proxy.drop_rate > 0.05
        assert value.frames_generated == proxy.frames_generated
        # Macro-F1 0.6951 against 0.6703, at 10.97 % shed against 11.04 %:
        # the truth run must not buy its F1 with more shedding.
        assert value.accuracy.macro_f1 > proxy.accuracy.macro_f1
        assert value.drop_rate <= proxy.drop_rate

    def test_threshold_drift_composes_without_costing_macro_f1(self, run, value, models, fleet):
        drift = ThresholdDriftController(
            ThresholdDriftConfig(tolerance=0.5, min_scored=12, cooldown_ticks=2)
        )
        drifted = run(self.shedding(), drift)
        lines = [line for line in drifted.control_log if "set_camera_threshold" in line]
        assert len(lines) == drifted.threshold_drifts > 0
        # Over-firing cameras drift up from their calibrated threshold,
        # under-firing ones down: "... set_camera_threshold node1/spr011 -> 0.4500".
        calibrated = {spec.camera_id: models.trained(spec).config.threshold for spec in fleet}
        raised = 0
        for line in lines:
            target, threshold = line.rsplit(" -> ", 1)
            raised += float(threshold) > calibrated[target.rsplit("/", 1)[1]]
        assert 0 < raised < len(lines)
        # 0.6951 with drift and without.
        assert drifted.accuracy.macro_f1 >= 0.95 * value.accuracy.macro_f1

    def test_a_value_controlled_run_repeats_bit_for_bit(self, run, value):
        again = run(self.shedding())
        assert again.control_log == value.control_log
        assert again.telemetry == value.telemetry
        assert again.accuracy.macro_f1 == value.accuracy.macro_f1
