"""Placement policies: partition validity, balance invariants, determinism."""

import pytest

from repro.fleet import placement
from repro.fleet.camera import CameraSpec, generate_fleet
from repro.fleet.placement import (
    PLACEMENT_POLICIES,
    LoadAwarePlacement,
    ResolutionAwarePlacement,
    RoundRobinPlacement,
    estimate_camera_cost,
    make_placement_policy,
)


def skewed_fleet(num_cameras=16, seed=3):
    return generate_fleet(
        num_cameras,
        seed=seed,
        duration_seconds=2.0,
        resolutions=((64, 48), (80, 48), (96, 64)),
        frame_rates=(2.0, 4.0, 24.0),
    )


def node_loads(shards):
    """Estimated aggregate load of each shard under the default cost model."""
    return [sum(estimate_camera_cost(spec) for spec in shard) for shard in shards]


def camera_ids(shards):
    return sorted(spec.camera_id for shard in shards for spec in shard)


class TestEstimateCameraCost:
    def test_monotonic_in_frame_rate(self):
        slow = CameraSpec("a", 64, 48, frame_rate=5.0, num_frames=10)
        fast = CameraSpec("b", 64, 48, frame_rate=15.0, num_frames=10)
        assert estimate_camera_cost(fast) > estimate_camera_cost(slow)

    def test_monotonic_in_resolution(self):
        small = CameraSpec("a", 64, 48, frame_rate=5.0, num_frames=10)
        large = CameraSpec("b", 128, 96, frame_rate=5.0, num_frames=10)
        assert estimate_camera_cost(large) > estimate_camera_cost(small)

    def test_event_dense_scenario_costs_more(self):
        quiet = CameraSpec("a", 64, 48, 5.0, 10, scenario="quiet_residential")
        busy = CameraSpec("b", 64, 48, 5.0, 10, scenario="busy_intersection")
        assert estimate_camera_cost(busy) > estimate_camera_cost(quiet)


class TestPolicyContracts:
    @pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
    def test_partition_is_exact(self, name):
        fleet = skewed_fleet(13)
        shards = make_placement_policy(name).place(fleet, 4)
        assert len(shards) == 4
        assert all(shard for shard in shards)  # no empty node
        assert camera_ids(shards) == sorted(s.camera_id for s in fleet)

    @pytest.mark.parametrize("name", sorted(PLACEMENT_POLICIES))
    def test_deterministic(self, name):
        first = make_placement_policy(name).place(skewed_fleet(12), 3)
        second = make_placement_policy(name).place(skewed_fleet(12), 3)
        assert [[s.camera_id for s in shard] for shard in first] == [
            [s.camera_id for s in shard] for shard in second
        ]

    def test_more_nodes_than_cameras_rejected(self):
        with pytest.raises(ValueError, match="at least one camera"):
            RoundRobinPlacement().place(skewed_fleet(2), 3)

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            RoundRobinPlacement().place(skewed_fleet(2), 0)

    def test_unknown_policy_name(self):
        with pytest.raises(ValueError, match="Unknown placement policy"):
            make_placement_policy("best_effort")


class TestRoundRobin:
    def test_deals_in_index_order(self):
        fleet = skewed_fleet(7)
        shards = RoundRobinPlacement().place(fleet, 3)
        for node, shard in enumerate(shards):
            for position, spec in enumerate(shard):
                assert spec.camera_id == fleet[node + 3 * position].camera_id


class TestLoadAware:
    def test_balance_invariant(self):
        """LPT guarantee: load spread never exceeds one camera's cost."""
        fleet = skewed_fleet(24)
        policy = LoadAwarePlacement()
        shards = policy.place(fleet, 4)
        loads = node_loads(shards)
        max_item = max(estimate_camera_cost(spec) for spec in fleet)
        assert max(loads) - min(loads) <= max_item + 1e-6

    def test_beats_round_robin_on_skew(self):
        fleet = skewed_fleet(32)
        policy = LoadAwarePlacement()
        balanced = node_loads(policy.place(fleet, 4))
        naive = node_loads(RoundRobinPlacement().place(fleet, 4))
        assert max(balanced) <= max(naive)

    def test_equal_costs_split_evenly(self, monkeypatch):
        monkeypatch.setattr(placement, "estimate_camera_cost", lambda spec: 1.0)
        shards = LoadAwarePlacement().place(skewed_fleet(8), 4)
        assert sorted(len(shard) for shard in shards) == [2, 2, 2, 2]

    def test_degenerate_cost_fn_rejected(self, monkeypatch):
        """An all-zero cost estimate would pile every camera on node 0."""
        monkeypatch.setattr(placement, "estimate_camera_cost", lambda spec: 0.0)
        with pytest.raises(RuntimeError, match="without cameras"):
            LoadAwarePlacement().place(skewed_fleet(4), 3)


class TestResolutionAware:
    def test_minimizes_resident_base_dnns(self):
        """At most num_nodes + num_resolutions - 1 (node, resolution) pairs."""
        fleet = skewed_fleet(20)
        num_nodes = 4
        shards = ResolutionAwarePlacement().place(fleet, num_nodes)
        pairs = sum(len({spec.resolution for spec in shard}) for shard in shards)
        num_resolutions = len({spec.resolution for spec in fleet})
        assert pairs <= num_nodes + num_resolutions - 1

    def test_single_resolution_spreads_over_all_nodes(self):
        fleet = generate_fleet(9, seed=0, duration_seconds=1.0, resolutions=((64, 48),))
        shards = ResolutionAwarePlacement().place(fleet, 3)
        assert all(shard for shard in shards)
        assert sum(len(shard) for shard in shards) == 9

    def test_fewer_groups_than_nodes_still_fills_every_node(self):
        fleet = generate_fleet(
            12, seed=1, duration_seconds=1.0, resolutions=((64, 48), (80, 48))
        )
        shards = ResolutionAwarePlacement().place(fleet, 5)
        assert all(shard for shard in shards)


class TestDistrictAware:
    def test_keeps_districts_whole_when_they_fit(self):
        from repro.fleet.camera import district_of
        from repro.fleet.placement import DistrictAwarePlacement

        fleet = generate_fleet(24, seed=2, duration_seconds=1.0, districts=6)
        shards = DistrictAwarePlacement().place(fleet, 3)
        hosting: dict[str, set[int]] = {}
        for n, shard in enumerate(shards):
            for spec in shard:
                hosting.setdefault(district_of(spec.camera_id), set()).add(n)
        assert all(len(nodes) == 1 for nodes in hosting.values())

    def test_starved_node_fed_by_splitting_a_district(self):
        from repro.fleet.placement import DistrictAwarePlacement

        fleet = generate_fleet(8, seed=0, duration_seconds=1.0, districts=1)
        shards = DistrictAwarePlacement().place(fleet, 3)
        assert all(shard for shard in shards)
        assert sum(len(shard) for shard in shards) == 8

    def test_undistricted_fleet_still_balances(self):
        from repro.fleet.placement import DistrictAwarePlacement

        fleet = generate_fleet(12, seed=3, duration_seconds=1.0)
        shards = DistrictAwarePlacement().place(fleet, 3)
        assert all(shard for shard in shards)
        assert camera_ids(shards) == sorted(s.camera_id for s in fleet)

    def test_registered_in_policy_table(self):
        assert "district_aware" in PLACEMENT_POLICIES
        policy = make_placement_policy("district_aware")
        assert policy.name == "district_aware"
