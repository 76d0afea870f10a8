"""Control actions, views, and config validation."""

import pytest

from repro.control import (
    MigrateCamera,
    MigrationConfig,
    MigrationCostModel,
    SetCameraQuota,
    SetCameraThreshold,
    SetDropPolicy,
    SetUplinkWeights,
)
from repro.fleet.queues import DropPolicy

from control_helpers import FakeRuntime, make_stats, make_view


class TestActions:
    def test_actions_are_hashable_and_comparable(self):
        a = SetCameraQuota(node_id="node0", camera_id="cam000", quota=2)
        b = SetCameraQuota(node_id="node0", camera_id="cam000", quota=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_describe_lines(self):
        assert "cam000" in SetCameraQuota("node0", "cam000", 1).describe()
        assert "default" in SetCameraQuota("node0", "cam000", None).describe()
        assert "drop_newest" in SetDropPolicy(
            "node0", "cam000", DropPolicy.DROP_NEWEST
        ).describe()
        migrate = MigrateCamera("cam000", "node0", "node1", 0.25)
        assert "node0 -> node1" in migrate.describe()
        weights = SetUplinkWeights(weights=(("node0", 0.75), ("node1", 0.25)))
        assert "node0=0.750" in weights.describe()
        assert weights.as_mapping() == {"node0": 0.75, "node1": 0.25}
        threshold = SetCameraThreshold("node0", "cam000", 0.55)
        assert "node0/cam000 -> 0.5500" in threshold.describe()

    def test_threshold_action_validates_range(self):
        with pytest.raises(ValueError, match="threshold"):
            SetCameraThreshold("node0", "cam000", 0.0)
        with pytest.raises(ValueError, match="threshold"):
            SetCameraThreshold("node0", "cam000", 1.0)


class TestClusterView:
    def test_node_lookup_and_remaining(self):
        view = make_view({"node0": FakeRuntime(), "node1": FakeRuntime()}, now=2.0, horizon=5.0)
        assert view.node("node1").node_id == "node1"
        with pytest.raises(KeyError):
            view.node("node9")
        assert view.remaining_seconds == pytest.approx(3.0)

    def test_node_view_surfaces(self):
        runtime = FakeRuntime({"cam000": make_stats("cam000", matched=3, scored=6)})
        runtime.telemetry.counter("frames.matched").inc(3)
        runtime.telemetry.histogram("latency.queue_wait_seconds").observe(0.5)
        view = make_view({"node0": runtime})
        node = view.node("node0")
        assert node.live_stats()["cam000"].match_density == pytest.approx(0.5)
        assert node.num_workers == 2
        assert node.wait_histogram().count == 1
        assert node.counter_value("frames.matched") == 3.0
        assert node.counter_value("no.such.counter") == 0.0


class TestConfigValidation:
    def test_migration_config(self):
        with pytest.raises(ValueError, match="imbalance_threshold"):
            MigrationConfig(imbalance_threshold=1.0)
        with pytest.raises(ValueError, match="sustain"):
            MigrationConfig(sustain_ticks=0)
        with pytest.raises(ValueError, match="payback"):
            MigrationConfig(payback_factor=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            MigrationCostModel(blackout_seconds=-0.1)

    def test_cost_model_cold_start(self):
        model = MigrationCostModel(blackout_seconds=0.2, cold_start_seconds=0.3)
        assert model.blackout_for((64, 48), {(64, 48)}) == pytest.approx(0.2)
        assert model.blackout_for((64, 48), {(80, 48)}) == pytest.approx(0.5)
        assert model.frames_lost(10.0, 0.5) == pytest.approx(5.0)
