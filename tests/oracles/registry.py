"""The registry: one ``(name, reference, variant)`` entry per fleet-level equivalence.

An entry names two runners of :mod:`oracles.records`, the scenarios it holds
on (the one strategy's dimensions, narrowed), the tolerances it declares
with their reasons (none: bit-identical), pinned examples, and one planted
:class:`Mutation` its comparator must catch.  docs/ARCHITECTURE.md says how
to add one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping

import numpy as np
import pytest
from parity import Tolerance, not_compared

from repro.control.hierarchy import HierarchicalControlPlane
from repro.control.loop import ClusterActuator
from repro.control.policies import MigrateCamera
from repro.core.batched import BatchedScorer
from repro.edge.uplink import WorkConservingUplink
from repro.fleet import runtime
from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import FleetConfig, FleetRuntime
from repro.obs import Tracer

from oracles.records import run_bare, run_by_hand, run_cluster, run_stepped
from oracles.scenarios import Scenario, fleet


@dataclass(frozen=True)
class Mutation:
    """A planted bug the entry must catch on ``scenario``, at a path matching ``path``."""

    description: str
    plant: Callable[[pytest.MonkeyPatch], None]
    scenario: Scenario
    path: str


@dataclass(frozen=True)
class Entry:
    name: str
    reference: Callable
    variant: Callable
    dimensions: Mapping[str, tuple]  # narrows oracles.scenarios.DIMENSIONS
    mutation: Mutation
    tolerances: Mapping[str, Tolerance] = field(default_factory=dict)
    examples: tuple = ()  # pytest.param(scenario, id=...)


FOUR_SCENES = ("urban_day", "busy_intersection", "quiet_residential", "night_watch")
# Two workers share one resolution, so frames in service batch; at a low
# threshold every camera matches, closes events and uploads.
SMALL = Scenario(
    cameras=fleet(4, scenarios=FOUR_SCENES),
    node=FleetConfig(num_workers=2, queue_capacity=3, service_time_scale=0.5),
    uplink_bps=40_000.0,
    threshold=0.05,
)
# Round-robin deals every 24 fps camera to node0: shedding, uplink
# re-weighting and migration all act.
IMBALANCED = Scenario(
    cameras=tuple(
        CameraSpec(f"cam{i:03d}", 48, 32, frame_rate=rate, num_frames=int(rate * 2.5), seed=i)
        for i, rate in enumerate([24.0, 2.0] * 4)
    ),
    node=FleetConfig(num_workers=1, queue_capacity=4, service_time_scale=0.12),
    num_nodes=2,
    uplink_bps=100_000.0,
    uplink_sharing="work_conserving",
    control="flat",
)
# 64 cameras on one resident base DNN: every dispatch window batches whole.
SIXTY_FOUR = Scenario(
    cameras=fleet(64, frame_rate=10.0, num_frames=6, scenarios=FOUR_SCENES),
    node=FleetConfig(num_workers=8, queue_capacity=8, service_time_scale=0.02),
)


def handoffs(*moves):
    """Two single-worker nodes and two cameras; ``(tick, blackout)`` moves of cam000."""
    return Scenario(
        cameras=fleet(2),
        node=FleetConfig(num_workers=1, queue_capacity=2, service_time_scale=0.25),
        num_nodes=2,
        control="moves",
        interval=0.125,
        moves=tuple((tick, "cam000", blackout) for tick, blackout in moves),
    )


# -- planted mutations ---------------------------------------------------------
def neighbour_activations(monkeypatch):
    def prime(self, session, frame):
        own = self._ready.pop((id(session.extractor), frame.index), None)
        if own is None:
            return False
        shapes = [a.shape for a in own.values()]
        neighbours = (a for a in self._ready.values() if [b.shape for b in a.values()] == shapes)
        session.extractor.prime(frame.index, next(neighbours, own))
        return True

    monkeypatch.setattr(BatchedScorer, "prime", prime)


def shared_generator(monkeypatch):
    shared, build = np.random.default_rng(0), runtime.build_mobilenet_like
    monkeypatch.setattr(
        runtime, "build_mobilenet_like", lambda shape, alpha, rng: build(shape, alpha, rng=shared)
    )


def skipped_boundary(monkeypatch):
    advance = FleetRuntime.advance_until

    def skipping(self, until):
        advance(self, math.nextafter(until, -math.inf))
        if self._heap and self._heap[0][0] == until:
            heapq.heappop(self._heap)
        advance(self, until)

    monkeypatch.setattr(FleetRuntime, "advance_until", skipping)


def shaved_guarantee(monkeypatch):
    init = WorkConservingUplink.__init__

    def shaved(self, capacity_bps, *args, **kwargs):
        init(self, 0.99 * capacity_bps, *args, **kwargs)

    monkeypatch.setattr(WorkConservingUplink, "__init__", shaved)


def resume_past_cursor(monkeypatch):
    apply = ClusterActuator.apply

    def off_by_one(self, action, now):
        if not isinstance(action, MigrateCamera):
            return apply(self, action, now)
        nodes = self.cluster.nodes
        handoff = nodes[action.source].detach_camera(action.camera_id, now)
        skipped = replace(handoff, next_frame=handoff.next_frame + 1)
        nodes[action.destination].attach_camera(skipped, now, now + action.blackout_seconds)
        self.cluster.record_migration(action.camera_id, action.source, action.destination)

    monkeypatch.setattr(ClusterActuator, "apply", off_by_one)


def traced_ticket_keeps_its_slot(monkeypatch):
    release = FleetRuntime._release_admission

    def untraced_only(self, ticket):
        if ticket.trace is None:
            release(self, ticket)

    monkeypatch.setattr(FleetRuntime, "_release_admission", untraced_only)


def rollup_one_node_short(monkeypatch):
    update = HierarchicalControlPlane._update_rollup

    def short(self, now, aggregates, payload):
        update(self, now, aggregates, payload)
        kept = list(aggregates.values())[:-1]
        self.telemetry.gauge("cluster.frames.scored").set(sum(a.frames_scored for a in kept))

    monkeypatch.setattr(HierarchicalControlPlane, "_update_rollup", short)


# -- the entries ---------------------------------------------------------------
def per_camera(scenario):
    return run_cluster(replace(scenario, node=replace(scenario.node, batched_scoring=False)))


def untraced(scenario):
    return run_cluster(scenario, tracer_for=lambda scenario: None)


def fully_traced(scenario):
    return run_cluster(scenario, tracer_for=lambda scenario: Tracer(sample_every=1))


# Bare nodes host the fleet in its own order.  Any placement but round-robin
# lists a node's cameras in cost order, and dispatch round-robins in hosting
# order, so a one-node cluster only equals a bare node under round-robin.
BARE = dict(
    num_nodes=(1,), control=("none",), placement=("round_robin",), event_plane=(False,),
    observe=(False,),
)
NO_CLUSTER = not_compared("bare nodes have no cluster report; hosting and moves compare per node")
# A two-node static link drains as fluid, a bare node's link serially.
STATIC_PORT = Tolerance("a static port and a serial link agree to 1e-9 s (TestLinkPorts)", abs=1e-9)

ENTRIES = {
    entry.name: entry
    for entry in (
        Entry(
            "batched", per_camera, run_cluster, {},
            Mutation("BatchedScorer.prime hands a frame its batch neighbour's activations",
                     neighbour_activations, SMALL, "nodes.node0.stints.*.probabilities*"),
            examples=(
                pytest.param(IMBALANCED, id="migrating"),
                pytest.param(SIXTY_FOUR, id="64_cameras", marks=pytest.mark.slow),
            ),
        ),
        Entry(
            "rerun", run_cluster, run_cluster, {},
            Mutation("every base DNN draws its weights from one generator that outlives the run",
                     shared_generator, IMBALANCED, "nodes.node0.report.cameras.*"),
            examples=(pytest.param(IMBALANCED, id="whole_control_plane"),),
        ),
        Entry(
            "stepped", run_bare, run_stepped, BARE,
            Mutation("advance_until drops an event due exactly at its bound",
                     skipped_boundary, SMALL, "nodes.node0.report.cameras.*.frames_generated"),
        ),
        Entry(
            "one_node_cluster", run_bare, run_cluster, BARE,
            Mutation("a cluster link slices its guarantees off 99 % of its capacity",
                     shaved_guarantee, SMALL, "nodes.node0.report.uplink_*"),
            tolerances={"cluster": NO_CLUSTER},
        ),
        Entry(
            "handoff", run_by_hand, run_cluster,
            BARE | dict(num_nodes=(2,), control=("moves",), uplink_sharing=("static",)),
            Mutation("the control slot resumes a moved camera one frame past its handoff cursor",
                     resume_past_cursor, handoffs((1, 0.1)), "nodes.node1.report.cameras.*"),
            tolerances={
                "cluster": NO_CLUSTER,
                "nodes.*.report.uplink_backlog_seconds": STATIC_PORT,
                "nodes.*.report.telemetry.uplink.backlog_seconds.*": STATIC_PORT,
            },
            examples=(
                # cam000 leaves node0 and comes back twice: three stints there, two on node1.
                pytest.param(handoffs((1, 0.1), (2, 0.0), (4, 0.0), (4, 0.25)), id="three_stints"),
                # Moved into a two-tick blackout, and back within the tick that began the next.
                pytest.param(handoffs((1, 0.25), (2, 0.25), (2, 0.1)), id="re_move_in_blackout"),
            ),
        ),
        Entry(
            "hierarchy_rollup", partial(run_cluster, flat_rollup=True), run_cluster,
            dict(control=("hierarchy",)),
            Mutation("the scored-frames rollup gauge leaves the last node out",
                     rollup_one_node_short, replace(SMALL, num_nodes=2, control="hierarchy"),
                     "rollup.cluster.frames.scored"),
            tolerances={
                "rollup.cluster.queue_wait.window_p99": Tolerance(
                    "the merged wait sketch tracks the exact p99 to a tenth of the window's spread",
                    abs=1e-9, rel=0.1, scale=lambda record: record.rollup["window_spread"],
                ),
            },
        ),
        Entry(
            "traced", untraced, fully_traced, {},
            Mutation("a traced frame never gives its admission slot back",
                     traced_ticket_keeps_its_slot,
                     replace(SMALL, node=replace(SMALL.node, per_camera_quota=1)),
                     "nodes.node0.report.cameras.*.frames_admitted"),
            tolerances={"trace": not_compared("only the variant records frame lifecycles")},
            # Shedding flips cameras to DROP_NEWEST, and cameras migrate.
            examples=(pytest.param(IMBALANCED, id="shedding_migrating"),),
        ),
    )
}
