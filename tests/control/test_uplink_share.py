"""Uplink re-weighting: demand tracking, floors, drift thresholds."""

import pytest

from repro.control import SetUplinkWeights, UplinkShareController

from control_helpers import FakeRuntime, actions_of, make_stats, make_view

EQUAL = {"node0": 0.5, "node1": 0.5}


def cluster(matched0: float, matched1: float) -> dict[str, FakeRuntime]:
    node0 = FakeRuntime({"cam_a": make_stats("cam_a")})
    node0.telemetry.counter("frames.matched").inc(matched0)
    node1 = FakeRuntime({"cam_b": make_stats("cam_b")})
    node1.telemetry.counter("frames.matched").inc(matched1)
    return {"node0": node0, "node1": node1}


class TestRebalance:
    def test_static_link_never_actuated(self):
        controller = UplinkShareController()
        view = make_view(cluster(10, 0), uplink_weights=None)
        assert actions_of(controller.decide(view)) == []

    def test_skewed_demand_reweights_toward_the_uploader(self):
        controller = UplinkShareController()
        view = make_view(cluster(30, 10), uplink_weights=EQUAL)
        [action] = actions_of(controller.decide(view))
        assert isinstance(action, SetUplinkWeights)
        weights = action.as_mapping()
        # floor 0.1 each, remaining 0.8 split 3:1 by demand.
        assert weights["node0"] == pytest.approx(0.7, abs=1e-3)
        assert weights["node1"] == pytest.approx(0.3, abs=1e-3)

    def test_min_share_floor_protects_quiet_nodes(self):
        controller = UplinkShareController()
        [action] = actions_of(controller.decide(make_view(cluster(100, 0), uplink_weights=EQUAL)))
        weights = action.as_mapping()
        assert weights["node1"] == pytest.approx(0.1)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_small_drift_is_held(self):
        controller = UplinkShareController()
        # Targets 0.519 / 0.481: inside the 0.10 rebalance threshold.
        view = make_view(cluster(11, 10), uplink_weights=EQUAL)
        assert actions_of(controller.decide(view)) == []

    def test_no_demand_no_action(self):
        controller = UplinkShareController()
        assert actions_of(controller.decide(make_view(cluster(0, 0), uplink_weights=EQUAL))) == []

    def test_demand_is_windowed_not_cumulative(self):
        controller = UplinkShareController()
        nodes = cluster(30, 10)
        controller.decide(make_view(nodes, uplink_weights=EQUAL))
        # Next window: node1 does all the uploading.
        nodes["node1"].telemetry.counter("frames.matched").inc(40)
        [action] = actions_of(controller.decide(
            make_view(nodes, uplink_weights={"node0": 0.75, "node1": 0.25})
        ))
        weights = action.as_mapping()
        assert weights["node1"] > weights["node0"]
