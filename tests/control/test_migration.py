"""Migration policy: sustained imbalance, cost gating, and hysteresis."""

import pytest

from repro.control import (
    MigrateCamera,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
)

from control_helpers import FakeRuntime, actions_of, make_stats, make_view

CONFIG = MigrationConfig(
    imbalance_threshold=1.2,
    sustain_ticks=2,
    cooldown_ticks=2,
    camera_cooldown_ticks=4,
    payback_factor=1.5,
    cost_model=MigrationCostModel(blackout_seconds=0.1, cold_start_seconds=0.1),
)

INTERVAL = 0.25


def hot_cold_cluster(tick: int) -> dict[str, FakeRuntime]:
    """node0 heavily oversubscribed, node1 nearly idle.

    Cumulative `generated` counters grow with the tick so the controller's
    windowed deltas stay constant.
    """
    arrivals_hot = 12 * (tick + 1)  # 48 fps offered per camera window
    arrivals_cold = 1 * (tick + 1)
    node0 = FakeRuntime(
        {
            "cam_a": make_stats("cam_a", frame_rate=48.0, generated=arrivals_hot,
                                service_seconds=0.03),
            "cam_b": make_stats("cam_b", frame_rate=48.0, generated=arrivals_hot,
                                service_seconds=0.03),
        },
        num_workers=2,
        horizon=10.0,
    )
    node1 = FakeRuntime(
        {
            "cam_c": make_stats("cam_c", frame_rate=2.0, generated=arrivals_cold,
                                service_seconds=0.03),
        },
        num_workers=2,
        horizon=10.0,
    )
    return {"node0": node0, "node1": node1}


def tick_view(controller_tick: int, **kwargs):
    return make_view(
        hot_cold_cluster(controller_tick),
        now=(controller_tick + 1) * INTERVAL,
        interval=INTERVAL,
        **kwargs,
    )


class TestTrigger:
    def test_requires_sustained_imbalance(self):
        controller = MigrationController(CONFIG)
        assert actions_of(controller.decide(tick_view(0))) == []  # sustained 1 < 2
        actions = actions_of(controller.decide(tick_view(1)))
        assert len(actions) == 1
        action = actions[0]
        assert isinstance(action, MigrateCamera)
        assert action.source == "node0"
        assert action.destination == "node1"
        assert action.camera_id in ("cam_a", "cam_b")

    def test_balanced_cluster_resets_sustain(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        balanced = {
            "node0": FakeRuntime({"cam_a": make_stats("cam_a", generated=2)}),
            "node1": FakeRuntime({"cam_c": make_stats("cam_c", generated=2)}),
        }
        assert actions_of(controller.decide(make_view(balanced))) == []
        # Imbalance must sustain again from scratch.
        assert actions_of(controller.decide(tick_view(2))) == []

    def test_no_migration_without_destination_headroom(self):
        controller = MigrationController(CONFIG)
        cluster = hot_cold_cluster(0)
        # Make the cold node hot too: no headroom anywhere.
        cluster["node1"].cameras["cam_c"] = make_stats(
            "cam_c", frame_rate=48.0, generated=16, service_seconds=0.03
        )
        view = make_view(cluster, interval=INTERVAL)
        assert actions_of(controller.decide(view)) == []
        assert actions_of(controller.decide(make_view(cluster, interval=INTERVAL))) == []


class TestCostGating:
    def test_short_remaining_horizon_blocks_move(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        # Horizon nearly over: blackout loss cannot pay back.
        view = make_view(
            hot_cold_cluster(1),
            now=2 * INTERVAL,
            interval=INTERVAL,
            horizon=2 * INTERVAL + 0.01,
        )
        assert actions_of(controller.decide(view)) == []

    def test_cold_start_added_when_destination_lacks_resolution(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        cluster = hot_cold_cluster(1)
        cluster["node1"].cameras["cam_c"] = make_stats(
            "cam_c", frame_rate=2.0, generated=2, resolution=(80, 48), service_seconds=0.03
        )
        view = make_view(cluster, now=2 * INTERVAL, interval=INTERVAL)
        [action] = actions_of(controller.decide(view))
        assert action.blackout_seconds == pytest.approx(0.2)  # blackout + cold start

    def test_warm_destination_pays_no_cold_start(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        [action] = actions_of(controller.decide(tick_view(1)))
        assert action.blackout_seconds == pytest.approx(0.1)


class TestHysteresis:
    def test_cooldown_blocks_back_to_back_moves(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        assert len(actions_of(controller.decide(tick_view(1)))) == 1
        # cooldown_ticks=2 quiet ticks, then sustain must rebuild.
        assert actions_of(controller.decide(tick_view(2))) == []
        assert actions_of(controller.decide(tick_view(3))) == []
        assert actions_of(controller.decide(tick_view(4))) == []  # sustain 1
        assert len(actions_of(controller.decide(tick_view(5)))) == 1

    def test_recently_moved_camera_is_not_picked_again(self):
        from dataclasses import replace

        controller = MigrationController(replace(CONFIG, camera_cooldown_ticks=10))
        controller.decide(tick_view(0))
        [first] = actions_of(controller.decide(tick_view(1)))
        # Skip past the global cooldown, rebuild sustain.
        controller.decide(tick_view(2))
        controller.decide(tick_view(3))
        controller.decide(tick_view(4))
        [second] = actions_of(controller.decide(tick_view(5)))
        assert second.camera_id != first.camera_id

    def test_migration_history_is_recorded(self):
        controller = MigrationController(CONFIG)
        controller.decide(tick_view(0))
        controller.decide(tick_view(1))
        assert len(controller.migrations) == 1
        now, camera_id, source, destination = controller.migrations[0]
        assert source == "node0" and destination == "node1"
