"""Camera-to-node placement policies for multi-node fleet sharding.

When a camera fleet outgrows one edge node, the cluster must decide which
cameras each node hosts.  That decision drives three resources at once:

* **compute** — a node's worker pool saturates at an aggregate frame rate;
  hosting too many high-rate cameras means queueing and shed load;
* **memory** — nodes share one base DNN per distinct camera resolution (the
  FilterForward computation-sharing premise), so co-locating same-resolution
  cameras minimizes resident models;
* **uplink** — event-dense scenarios upload more bits against the node's
  share of the datacenter link.

A :class:`PlacementPolicy` maps a camera list onto ``num_nodes`` shards.
Four concrete policies ship here:

* :class:`RoundRobinPlacement` — cameras are dealt to nodes in arrival
  order, the baseline a naive deployment uses;
* :class:`LoadAwarePlacement` — greedy longest-processing-time bin-packing
  on :func:`estimate_camera_cost` (an analytic ops/s estimate from
  :class:`~repro.perf.cost_model.CostModel` scaled by frame rate and
  scenario event density);
* :class:`ResolutionAwarePlacement` — keeps each resolution's cameras on as
  few nodes as possible (fewest resident base DNNs), balancing estimated
  load across nodes only at the granularity of resolution groups;
* :class:`DistrictAwarePlacement` — keeps each district's cameras (the
  ``d<district>-`` prefix :func:`~repro.fleet.camera.generate_fleet` assigns)
  on as few nodes as possible, the locality grouping a kilocamera citywide
  deployment wants: one district's correlated load surges stay on its nodes
  and district-scope queries touch few shards.

All policies are deterministic: the same camera list always produces the
same shards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Sequence

from repro.fleet.camera import SCENARIOS, CameraSpec, district_of
from repro.perf.cost_model import CostModel

__all__ = [
    "estimate_camera_cost",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LoadAwarePlacement",
    "ResolutionAwarePlacement",
    "DistrictAwarePlacement",
    "PLACEMENT_POLICIES",
    "make_placement_policy",
]

# Weight of scenario event density in the cost estimate: matched frames are
# re-encoded and uploaded, so event-heavy feeds cost more than their frame
# rate alone suggests.
_EVENT_DENSITY_WEIGHT = 0.5


@lru_cache(maxsize=4096)
def estimate_camera_cost(spec: CameraSpec, alpha: float = 0.125) -> float:
    """Analytic per-camera load estimate in multiply-adds per second.

    One frame costs a base-DNN pass plus one localized microclassifier at the
    camera's resolution (from :class:`~repro.perf.cost_model.CostModel`);
    multiplying by the frame rate gives ops/s.  The scenario's object spawn
    rates (scaled by the camera's ``event_rate_scale``) add a surcharge for
    event-driven work — smoothing, re-encoding, and upload — so a retail
    entrance at 15 fps outranks a quiet street at the same rate.
    """
    model = CostModel(resolution=spec.resolution, alpha=alpha)
    per_frame_ops = model.base_dnn_cost() + model.mc_cost("localized")
    preset = SCENARIOS[spec.scenario]
    event_density = spec.event_rate_scale * sum(
        float(preset[k])
        for k in ("pedestrian_rate", "red_pedestrian_rate", "car_rate", "cyclist_rate")
    )
    return spec.frame_rate * per_frame_ops * (1.0 + _EVENT_DENSITY_WEIGHT * event_density)


class PlacementPolicy(ABC):
    """Deterministic assignment of cameras to edge nodes."""

    name: str = "abstract"

    def place(self, cameras: Sequence[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        """Partition ``cameras`` into ``num_nodes`` non-empty shards."""
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if len(cameras) < num_nodes:
            raise ValueError(
                f"Cannot place {len(cameras)} cameras on {num_nodes} nodes: "
                "every node needs at least one camera"
            )
        shards = self._place(list(cameras), num_nodes)
        if len(shards) != num_nodes:
            raise RuntimeError(
                f"{type(self).__name__} returned {len(shards)} shards for {num_nodes} nodes"
            )
        empty = [n for n, shard in enumerate(shards) if not shard]
        if empty:
            raise RuntimeError(
                f"{type(self).__name__} left nodes {empty} without cameras "
                "(degenerate cost function?)"
            )
        placed = [spec.camera_id for shard in shards for spec in shard]
        if sorted(placed) != sorted(spec.camera_id for spec in cameras):
            raise RuntimeError(f"{type(self).__name__} lost or duplicated cameras")
        return shards

    @abstractmethod
    def _place(self, cameras: list[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        """Policy-specific partitioning (inputs already validated)."""


class RoundRobinPlacement(PlacementPolicy):
    """Deal cameras to nodes cyclically in list order (the naive baseline)."""

    name = "round_robin"

    def _place(self, cameras: list[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        return [cameras[n::num_nodes] for n in range(num_nodes)]


class _GroupedPlacement(PlacementPolicy):
    """LPT on whole groups of cameras: locality first, then load.

    Groups are placed whole onto the least-loaded node, largest estimated
    load first (ties broken by the group's first camera id, so equal-cost
    fleets still place deterministically); a group is split only when a node
    would otherwise sit empty.
    """

    def _groups(self, cameras: Sequence[CameraSpec]) -> list[list[CameraSpec]]:
        groups: dict[object, list[CameraSpec]] = {}
        for spec in cameras:
            groups.setdefault(self._group_key(spec), []).append(spec)
        return list(groups.values())

    def _lpt(self, cameras: list[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        costs = {spec.camera_id: estimate_camera_cost(spec) for spec in cameras}
        ranked = sorted(
            self._groups(cameras),
            key=lambda g: (-sum(costs[s.camera_id] for s in g), g[0].camera_id),
        )
        shards: list[list[CameraSpec]] = [[] for _ in range(num_nodes)]
        loads = [0.0] * num_nodes
        for group in ranked:
            target = min(range(num_nodes), key=lambda n: (loads[n], n))
            shards[target].extend(group)
            loads[target] += sum(costs[s.camera_id] for s in group)
        return shards

    def _place(self, cameras: list[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        shards = self._lpt(cameras, num_nodes)
        # Feed starved nodes from the camera-richest shard; the donated
        # cameras share one key, so each split fragments exactly one group.
        for target in range(num_nodes):
            while not shards[target]:
                donor = max(range(num_nodes), key=lambda n: (len(shards[n]), -n))
                split = max(self._groups(shards[donor]), key=self._split_rank)
                movable = sorted(split, key=lambda s: s.camera_id)
                moved = movable[len(movable) // 2 :]
                shards[donor] = [s for s in shards[donor] if s not in moved]
                shards[target].extend(moved)
        return shards


class LoadAwarePlacement(_GroupedPlacement):
    """Greedy LPT bin-packing on the analytic per-camera cost estimate.

    Cameras are sorted by :func:`estimate_camera_cost` descending and each is
    assigned to the currently least-loaded node: the grouped LPT pass with
    one camera per group.  The classic LPT guarantee applies: the spread
    between the heaviest and lightest node never exceeds one camera's cost.
    No starved node is fed, so a degenerate cost function that piles every
    camera onto one node is refused.
    """

    name = "load_aware"

    def _group_key(self, spec: CameraSpec) -> str:
        return spec.camera_id

    def _place(self, cameras: list[CameraSpec], num_nodes: int) -> list[list[CameraSpec]]:
        return self._lpt(cameras, num_nodes)


class ResolutionAwarePlacement(_GroupedPlacement):
    """Co-locate same-resolution cameras to minimize resident base DNNs.

    Each split adds exactly one ``(node, resolution)`` pair, so the result
    hosts at most ``num_nodes + num_resolutions - 1`` of them — i.e. nearly
    every node runs a single shared base DNN.
    """

    name = "resolution_aware"

    def _group_key(self, spec: CameraSpec) -> tuple[int, int]:
        return spec.resolution

    def _split_rank(self, group: list[CameraSpec]) -> str:
        """A donor splits the resolution of its last camera by id."""
        return max(s.camera_id for s in group)


class DistrictAwarePlacement(_GroupedPlacement):
    """Co-locate each district's cameras (locality-first LPT on districts).

    Groups are districts (the camera id's ``d<district>-`` prefix; cameras
    without one each form their own group).  Whole districts mean a
    district's spatially correlated load surge lands on — and is shed or
    migrated from — a small fixed set of nodes, and the hierarchy's
    per-node aggregates stay meaningful per-district summaries.
    """

    name = "district_aware"

    def _group_key(self, spec: CameraSpec) -> str:
        return district_of(spec.camera_id) or spec.camera_id

    def _split_rank(self, group: list[CameraSpec]) -> tuple[int, str]:
        """A donor splits its largest district."""
        return len(group), group[0].camera_id


PLACEMENT_POLICIES: dict[str, type[PlacementPolicy]] = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    LoadAwarePlacement.name: LoadAwarePlacement,
    ResolutionAwarePlacement.name: ResolutionAwarePlacement,
    DistrictAwarePlacement.name: DistrictAwarePlacement,
}


def make_placement_policy(policy: str) -> PlacementPolicy:
    """Resolve a policy name to a policy object."""
    try:
        return PLACEMENT_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"Unknown placement policy {policy!r}; expected one of {sorted(PLACEMENT_POLICIES)}"
        ) from None
