"""Shedding: compute and uplink overload detectors, value-per-cost ranking, hysteresis."""

from dataclasses import replace

import pytest

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    SetCameraQuota,
    SetDropPolicy,
    SheddingConfig,
)
from repro.fleet import CameraSpec, FleetConfig, ShardedFleetRuntime, ShardingConfig
from repro.fleet.queues import DropPolicy

from control_helpers import FakeRuntime, actions_of, make_stats, make_view

CONFIG = SheddingConfig(
    high_watermark_seconds=0.2,
    low_watermark_seconds=0.05,
    cameras_per_step=2,
    quota_ladder=(2, 1),
)
TRUTH = replace(CONFIG, value_signal="truth_density")


def overload(runtime: FakeRuntime, wait: float = 0.5, count: int = 10) -> None:
    for _ in range(count):
        runtime.telemetry.histogram("latency.queue_wait_seconds").observe(wait)


def overloaded_runtime() -> FakeRuntime:
    runtime = FakeRuntime(
        {
            # cam_rich matches often; cam_mid sometimes; cam_poor never.
            "cam_rich": make_stats("cam_rich", generated=10, scored=10, matched=8),
            "cam_mid": make_stats("cam_mid", generated=10, scored=10, matched=3),
            "cam_poor": make_stats("cam_poor", generated=10, scored=10, matched=0),
        }
    )
    overload(runtime)
    return runtime


def per_service_second_runtime() -> FakeRuntime:
    # cam_cheap and cam_dear have equal truth density, but cam_dear's
    # frames cost 4x the service time — it buys less accuracy per
    # worker-second and sheds first.  cam_rich is densest and safe.
    runtime = FakeRuntime(
        {
            "cam_rich": make_stats(
                "cam_rich", generated=20, scored=10,
                truth_known=True, truth_positive_generated=16,
            ),
            "cam_cheap": make_stats(
                "cam_cheap", generated=20, scored=10, service_seconds=0.01,
                truth_known=True, truth_positive_generated=4,
            ),
            "cam_dear": make_stats(
                "cam_dear", generated=20, scored=10, service_seconds=0.04,
                truth_known=True, truth_positive_generated=4,
            ),
        }
    )
    overload(runtime)
    return runtime


def quotas(actions) -> list[tuple[str, int | None]]:
    return [(a.camera_id, a.quota) for a in actions if isinstance(a, SetCameraQuota)]


class TestSheddingConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(high_watermark_seconds=0.1, low_watermark_seconds=0.1), "hysteresis"),
            (dict(low_watermark_seconds=0.3), "hysteresis"),
            (dict(cameras_per_step=0), "cameras_per_step"),
            (dict(quota_ladder=()), "rung"),
            (dict(quota_ladder=(2, 0)), "rungs"),
            (dict(value_signal="vibes"), "value_signal"),
        ],
    )
    def test_invalid_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SheddingConfig(**kwargs)


class TestTighten:
    @pytest.mark.parametrize(
        "config, make_runtime, shed",
        [
            pytest.param(CONFIG, overloaded_runtime, ["cam_poor", "cam_mid"], id="match_density"),
            pytest.param(
                TRUTH, per_service_second_runtime, ["cam_dear", "cam_cheap"],
                id="truth_density_per_service_second",
            ),
        ],
    )
    def test_caps_lowest_value_per_service_second_first(self, config, make_runtime, shed):
        controller = AdaptiveSheddingController(config)
        (record,) = controller.decide(make_view({"node0": make_runtime()}))
        actions = record.actions
        assert quotas(actions) == [(camera_id, 2) for camera_id in shed]
        policies = [a for a in actions if isinstance(a, SetDropPolicy)]
        assert all(a.policy is DropPolicy.DROP_NEWEST for a in policies)
        assert [a.camera_id for a in policies] == shed
        assert record.kind == "tighten"
        assert [c.candidate_id for c in record.candidates if c.chosen] == shed

    @pytest.mark.parametrize("config", [CONFIG, TRUTH], ids=["match_density", "truth_density"])
    def test_a_camera_that_generated_nothing_is_never_capped(self, config):
        # A feed that has not started offers no load: capping it frees
        # nothing and would pre-judge a possibly-dense future burst at 0.0.
        # Its zero value and its higher frame rate would otherwise rank it
        # first.
        runtime = FakeRuntime(
            {
                "cam_future": make_stats(
                    "cam_future", frame_rate=24.0, generated=0, scored=0,
                    truth_known=True,
                ),
                "cam_live": make_stats(
                    "cam_live", generated=10, scored=10,
                    truth_known=True, truth_positive_generated=5,
                ),
            }
        )
        overload(runtime)
        controller = AdaptiveSheddingController(config)
        (record,) = controller.decide(make_view({"node0": runtime}))
        assert quotas(record.actions) == [("cam_live", 2)]
        assert [c.candidate_id for c in record.candidates] == ["cam_live"]

    def test_truth_density_falls_back_to_match_density(self):
        # No accuracy plane: the oracle signal degrades to the proxy.
        runtime = FakeRuntime(
            {
                "cam_matchy": make_stats("cam_matchy", generated=10, scored=10, matched=8),
                "cam_quiet": make_stats("cam_quiet", generated=10, scored=10, matched=0),
            }
        )
        overload(runtime)
        controller = AdaptiveSheddingController(replace(TRUTH, cameras_per_step=1))
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert quotas(actions) == [("cam_quiet", 2)]

    @pytest.mark.parametrize(
        "cameras_per_step, stepped",
        [(2, [("cam_poor", 1), ("cam_mid", 1)]), (1, [("cam_poor", 1)])],
    )
    def test_second_overloaded_tick_steps_down_the_ladder(self, cameras_per_step, stepped):
        controller = AdaptiveSheddingController(
            replace(CONFIG, cameras_per_step=cameras_per_step)
        )
        runtime = overloaded_runtime()
        controller.decide(make_view({"node0": runtime}))
        # Fresh overload observations in the new window.
        overload(runtime, wait=0.6, count=5)
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        # Already-capped cameras step 2 -> 1; no new DROP_NEWEST flips.
        assert quotas(actions) == stepped
        assert not [a for a in actions if isinstance(a, SetDropPolicy)]

    @pytest.mark.parametrize(
        "cameras_per_step, capped", [(2, [("cam_rich", 2)]), (1, [("cam_mid", 2)])]
    )
    def test_bottom_of_ladder_holds(self, cameras_per_step, capped):
        controller = AdaptiveSheddingController(
            replace(CONFIG, cameras_per_step=cameras_per_step)
        )
        runtime = overloaded_runtime()
        for tick in range(3):
            overload(runtime, wait=0.6, count=5)
            actions = actions_of(controller.decide(make_view({"node0": runtime})))
        # Third overloaded tick: the cameras capped so far sit at rung 1
        # already; the next candidate in rank order gets capped instead.
        assert quotas(actions) == capped


class TestWindowing:
    def test_old_observations_do_not_retrigger(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = overloaded_runtime()
        controller.decide(make_view({"node0": runtime}))
        # No new waits at all: the window is empty, p99 == 0 < low watermark,
        # so the controller relaxes instead of tightening again.
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert actions
        assert all(
            isinstance(a, (SetCameraQuota, SetDropPolicy)) for a in actions
        )
        quota = next(a for a in actions if isinstance(a, SetCameraQuota))
        assert quota.quota is None


class TestUplinkBoundShedding:
    def make_upload_node(self) -> FakeRuntime:
        return FakeRuntime(
            {
                # cam_hog uploads a lot for little truth; cam_rich uploads a
                # lot but is event-dense; cam_silent uploads nothing.
                "cam_hog": make_stats(
                    "cam_hog", generated=20, scored=10, estimated_upload_bits=5_000.0,
                    truth_known=True, truth_positive_generated=2,
                ),
                "cam_rich": make_stats(
                    "cam_rich", generated=20, scored=10, estimated_upload_bits=5_000.0,
                    truth_known=True, truth_positive_generated=16,
                ),
                "cam_silent": make_stats(
                    "cam_silent", generated=20, scored=10, estimated_upload_bits=0.0,
                    truth_known=True, truth_positive_generated=1,
                ),
            }
        )

    def test_uplink_backlog_sheds_upload_heavy_low_value_first(self):
        runtime = self.make_upload_node()
        # CPU calm, link drowning: 50 kbit estimated against a 10 kbps
        # guarantee at t=1 -> ~4s of estimated backlog.
        runtime.telemetry.counter("uplink.estimated_bits").inc(50_000.0)
        controller = AdaptiveSheddingController(TRUTH)
        (record,) = controller.decide(
            make_view({"node0": runtime}, uplink_guarantees={"node0": 10_000.0})
        )
        # cam_hog first (most upload per unit of value); cam_silent cannot
        # relieve the link and is never the uplink-mode victim.
        assert [camera_id for camera_id, _ in quotas(record.actions)] == ["cam_hog", "cam_rich"]
        assert record.kind == "tighten_uplink"
        assert dict(record.gates)["uplink_high_watermark_seconds"] == 1.5

    def test_exhausted_ladder_never_spills_onto_zero_upload_cameras(self):
        # Once every uploading camera sits at the bottom of the ladder,
        # persistent link backlog must NOT start capping cameras that
        # upload nothing — capping them cannot relieve the link.
        runtime = self.make_upload_node()
        runtime.telemetry.counter("uplink.estimated_bits").inc(50_000.0)
        controller = AdaptiveSheddingController(TRUTH)
        guarantees = {"node0": 10_000.0}
        first = actions_of(controller.decide(
            make_view({"node0": runtime}, uplink_guarantees=guarantees)
        ))
        second = actions_of(controller.decide(
            make_view({"node0": runtime}, uplink_guarantees=guarantees)
        ))
        # Ladder (2, 1): both uploaders stepped to the bottom rung.
        assert quotas(second) == [("cam_hog", 1), ("cam_rich", 1)]
        third = actions_of(controller.decide(
            make_view({"node0": runtime}, uplink_guarantees=guarantees)
        ))
        assert third == []
        touched = {camera_id for camera_id, _ in quotas(first + second)}
        assert "cam_silent" not in touched

    def test_no_guarantees_means_no_uplink_detection(self):
        runtime = self.make_upload_node()
        runtime.telemetry.counter("uplink.estimated_bits").inc(50_000.0)
        controller = AdaptiveSheddingController(TRUTH)
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []
        assert (
            actions_of(controller.decide(
                make_view({"node0": runtime}, uplink_guarantees={"other_node": 1.0})
            ))
            == []
        )

    def test_backlog_below_watermark_is_quiet(self):
        runtime = self.make_upload_node()
        runtime.telemetry.counter("uplink.estimated_bits").inc(11_000.0)
        controller = AdaptiveSheddingController(TRUTH)
        # ~0.1s estimated backlog at t=1: under the high watermark.
        assert (
            actions_of(controller.decide(
                make_view({"node0": runtime}, uplink_guarantees={"node0": 10_000.0})
            ))
            == []
        )

    def test_late_run_saturation_is_not_masked_by_an_idle_prefix(self):
        # A long idle prefix must not bank transmission credit: the backlog
        # model is windowed per tick, so uploads arriving at 2x the
        # guarantee late in the run still trip the detector.
        runtime = self.make_upload_node()
        controller = AdaptiveSheddingController(TRUTH)
        guarantees = {"node0": 10_000.0}
        # 60 idle seconds: nothing estimated, nothing detected.
        assert (
            actions_of(controller.decide(
                make_view({"node0": runtime}, now=60.0, uplink_guarantees=guarantees)
            ))
            == []
        )
        # One second later, 30 kbit arrived (3x guarantee for that window,
        # ~2s of queued work net of drain): a run-average
        # (bits/guarantee - now ~= -58s) would stay blind.
        runtime.telemetry.counter("uplink.estimated_bits").inc(30_000.0)
        overloaded = actions_of(controller.decide(
            make_view({"node0": runtime}, now=61.0, uplink_guarantees=guarantees)
        ))
        assert [camera_id for camera_id, _ in quotas(overloaded)] == ["cam_hog", "cam_rich"]
        # The queued work drains at one second per second once arrivals stop.
        calm = actions_of(controller.decide(
            make_view({"node0": runtime}, now=64.0, uplink_guarantees=guarantees)
        ))
        restored = quotas(calm)
        assert restored and restored[0][1] is None


def relax_runtime() -> FakeRuntime:
    # cam_good is less event-dense than cam_dear but costs a quarter of the
    # service time, so it buys more accuracy per worker-second.
    runtime = FakeRuntime(
        {
            "cam_good": make_stats(
                "cam_good", generated=20, scored=10, service_seconds=0.01,
                truth_known=True, truth_positive_generated=8,
                drop_policy=DropPolicy.DROP_NEWEST,
            ),
            "cam_dear": make_stats(
                "cam_dear", generated=20, scored=10, service_seconds=0.04,
                truth_known=True, truth_positive_generated=12,
            ),
        }
    )
    overload(runtime)
    return runtime


class TestRelax:
    @pytest.mark.parametrize(
        "config, make_runtime, order, first_policy",
        [
            pytest.param(
                CONFIG, overloaded_runtime, ["cam_mid", "cam_poor"], DropPolicy.DROP_OLDEST,
                id="match_density",
            ),
            pytest.param(
                TRUTH, relax_runtime, ["cam_good", "cam_dear"], DropPolicy.DROP_NEWEST,
                id="truth_density_per_service_second",
            ),
        ],
    )
    def test_restores_most_valuable_first_one_per_tick(
        self, config, make_runtime, order, first_policy
    ):
        controller = AdaptiveSheddingController(config)
        runtime = make_runtime()
        controller.decide(make_view({"node0": runtime}))  # caps two cameras
        first = actions_of(controller.decide(make_view({"node0": runtime})))
        policy = next(a for a in first if isinstance(a, SetDropPolicy))
        assert quotas(first) == [(order[0], None)]
        assert policy.policy is first_policy  # the pre-tighten policy
        second = actions_of(controller.decide(make_view({"node0": runtime})))
        assert quotas(second) == [(order[1], None)]
        # Everything restored: nothing left to do.
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_relax_restores_the_pre_tighten_policy(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = FakeRuntime(
            {
                "cam_newest": make_stats(
                    "cam_newest", generated=10, scored=10, matched=0,
                    drop_policy=DropPolicy.DROP_NEWEST,
                ),
                "cam_rich": make_stats("cam_rich", generated=10, scored=10, matched=9),
            }
        )
        overload(runtime)
        controller.decide(make_view({"node0": runtime}))  # tightens both cameras
        controller.decide(make_view({"node0": runtime}))  # restores cam_rich
        restored = actions_of(controller.decide(make_view({"node0": runtime})))
        policy = next(a for a in restored if isinstance(a, SetDropPolicy))
        assert policy.camera_id == "cam_newest"
        assert policy.policy is DropPolicy.DROP_NEWEST

    def test_uplink_backlog_blocks_relaxation(self):
        runtime = FakeRuntime(
            {
                "cam_a": make_stats("cam_a", generated=10, scored=10, matched=0),
                "cam_b": make_stats("cam_b", generated=10, scored=10, matched=9),
            }
        )
        overload(runtime)
        controller = AdaptiveSheddingController(CONFIG)
        guarantees = {"node0": 10_000.0}
        controller.decide(make_view({"node0": runtime}, uplink_guarantees=guarantees))
        # CPU calm now, but the estimated link backlog sits between the
        # uplink watermarks (10 kbit arriving within one tick on a 10 kbps
        # guarantee = 1s of queued work): hold.
        runtime.telemetry.counter("uplink.estimated_bits").inc(10_000.0)
        (record,) = controller.decide(make_view({"node0": runtime}, uplink_guarantees=guarantees))
        assert record.actions == ()
        assert record.kind == "idle"

    def test_capped_camera_that_migrated_away_is_forgotten(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = overloaded_runtime()
        controller.decide(make_view({"node0": runtime}))
        runtime.cameras.pop("cam_poor")
        runtime.cameras.pop("cam_mid")
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert actions == []
        # Internal cap bookkeeping was cleared, so calm ticks stay silent.
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []


class TestQuietNode:
    def test_no_actions_between_watermarks(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = overloaded_runtime()
        controller.decide(make_view({"node0": runtime}))  # tighten once
        # Window p99 lands between the watermarks: hold, neither tighten nor relax.
        overload(runtime, wait=0.1, count=5)
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []

    def test_returning_camera_can_be_capped_again(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = overloaded_runtime()
        controller.decide(make_view({"node0": runtime}))  # caps poor + mid
        # cam_poor migrates away...
        poor = runtime.cameras.pop("cam_poor")
        overload(runtime, wait=0.6, count=5)
        controller.decide(make_view({"node0": runtime}))
        # ...and comes back: its old rung was forgotten, so it is cappable
        # from the top of the ladder again.
        runtime.cameras["cam_poor"] = poor
        overload(runtime, wait=0.6, count=5)
        actions = actions_of(controller.decide(make_view({"node0": runtime})))
        assert ("cam_poor", 2) in quotas(actions)

    def test_never_capped_quiet_node_stays_silent(self):
        controller = AdaptiveSheddingController(CONFIG)
        runtime = FakeRuntime({"cam000": make_stats("cam000")})
        runtime.telemetry.histogram("latency.queue_wait_seconds").observe(0.01)
        assert actions_of(controller.decide(make_view({"node0": runtime}))) == []


class TestComposedWithMigration:
    """Audit regression: shedding must survive a *capped* camera migrating.

    Real runtimes, shedding + migration composed in one ControlLoop, tuned
    so the shedding controller caps cam000 to the bottom ladder rung on
    node0 *before* the migration controller hands it to node1.  A stale cap
    would make a later relax (or tighten) emit ``SetCameraQuota`` /
    ``SetDropPolicy`` for a camera no longer attached — which the actuator
    rejects with ``ValueError``, so the run completing at all is half the
    assertion; the other half is that every post-migration shedding action
    targets the camera on its *new* node, starting from the top of the
    ladder.
    """

    def run_scenario(self):
        cameras = [
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=48,
                height=32,
                frame_rate=24.0 if i % 2 == 0 else 2.0,
                num_frames=int((24.0 if i % 2 == 0 else 2.0) * 2.0),
                scenario="urban_day",
                seed=i,
            )
            for i in range(6)
        ]
        loop = ControlLoop(
            [
                AdaptiveSheddingController(
                    SheddingConfig(
                        high_watermark_seconds=0.1,
                        low_watermark_seconds=0.03,
                        cameras_per_step=2,
                        quota_ladder=(2, 1),
                    )
                ),
                MigrationController(
                    MigrationConfig(
                        imbalance_threshold=1.1,
                        sustain_ticks=3,
                        cooldown_ticks=2,
                        cost_model=MigrationCostModel(
                            blackout_seconds=0.2, cold_start_seconds=0.2
                        ),
                    )
                ),
            ],
            interval_seconds=0.25,
        )
        config = ShardingConfig(
            num_nodes=2,
            placement="round_robin",
            total_uplink_bps=100_000.0,
            node_config=FleetConfig(
                num_workers=1, queue_capacity=4, service_time_scale=0.12
            ),
        )
        return ShardedFleetRuntime(cameras, config=config, control_loop=loop).run()

    def test_capped_camera_migration_does_not_strand_shedding_state(self):
        report = self.run_scenario()
        log = report.control_log
        migrate_at = next(i for i, line in enumerate(log) if "migrate cam000" in line)
        # The scenario is only a regression test if cam000 was capped (and
        # still capped — no restore) on node0 when it migrated.
        before = [line for line in log[:migrate_at] if "node0/cam000" in line]
        assert any("set_camera_quota node0/cam000 -> 1" in line for line in before)
        assert not any("-> default" in line for line in before)
        # After the handoff, node0's controller state forgot the camera:
        # no shedding action ever targets it on node0 again...
        assert not any("node0/cam000" in line for line in log[migrate_at:])
        # ...and on node1 it is cappable from the *top* of the ladder.
        node1_quotas = [
            line for line in log[migrate_at:] if "set_camera_quota node1/cam000" in line
        ]
        assert node1_quotas and node1_quotas[0].endswith("-> 2")
        # The whole run actuated cleanly and accounts for every frame.
        assert report.migrations_performed == 1
        assert report.shedding_interventions > 0
        assert (
            report.frames_scored + report.frames_dropped + report.frames_rejected
            == report.frames_generated
        )
