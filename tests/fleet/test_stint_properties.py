"""Conservation across hosting stints, over drawn fleets and drawn handoffs.

The first property of the ROADMAP's invariant audit: whatever schedule of
``detach_camera`` / ``attach_camera`` moves cameras between two nodes —
there and back included — every frame is accounted for exactly once, a
node's counters are the sums of its camera reports, a camera's report is
the sum of its stints, and the cluster's bookkeeping agrees with the nodes'.
Simulated clock only.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control.loop import ControlLoop
from repro.control.policies import Controller, MigrateCamera
from repro.fleet.camera import CameraSpec
from repro.fleet.queues import DropPolicy
from repro.fleet.runtime import FleetConfig, FleetRuntime, default_pipeline_factory
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig

INTERVAL = 0.125
NODE_IDS = ("node0", "node1")
# One factory for every example: the base DNN is frozen and shared, each
# install still builds its own session.
FACTORY = default_pipeline_factory()

# (tick index, camera index, blackout seconds): at that tick the camera moves
# from whichever node hosts it to the other one.
moves_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 3), st.sampled_from([0.0, 0.1, 0.25])),
    max_size=6,
)
configs = st.builds(
    FleetConfig,
    num_workers=st.integers(1, 2),
    queue_capacity=st.integers(1, 3),
    drop_policy=st.sampled_from(list(DropPolicy)),
    max_in_flight=st.none() | st.integers(1, 6),
    service_time_scale=st.sampled_from([0.1, 0.5]),
)


def named(moves, num_cameras):
    """Each move's camera by name, in tick order.

    Nothing is filtered out: a camera may be moved again before its blackout
    has run out (even within the tick that began it) — the handoff's cursor is
    already past the frames that blackout charged.
    """
    return [
        (tick, f"cam{index % num_cameras:03d}", blackout)
        for tick, index, blackout in sorted(moves, key=lambda move: move[0])
    ]


def fleet(num_cameras):
    return [
        CameraSpec(f"cam{i:03d}", 32, 32, frame_rate=8.0, num_frames=8, seed=i)
        for i in range(num_cameras)
    ]


def resolve(moves, tick, host):
    """The ``(camera, source, destination, blackout)`` moves of one tick, in order.

    ``host`` says which node holds each camera as the tick begins.
    """
    host = dict(host)
    resolved = []
    for at, camera_id, blackout in moves:
        if at == tick:
            source = host[camera_id]
            destination = NODE_IDS[1 - NODE_IDS.index(source)]
            resolved.append((camera_id, source, destination, blackout))
            host[camera_id] = destination
    return resolved


def hosted_by(nodes):
    return {cid: node_id for node_id, rt in nodes.items() for cid in rt.hosted_cameras()}


def run_by_hand(specs, config, moves):
    """Two bare runtimes in lockstep, handing cameras over directly.

    Returns the runtimes, their reports and the ``(source, destination)`` of
    every move that came due before the run ended.
    """
    nodes = {
        node_id: FleetRuntime(specs[i::2], pipeline_factory=FACTORY, config=config)
        for i, node_id in enumerate(NODE_IDS)
    }
    for runtime in nodes.values():
        runtime.start()
    applied = []
    tick, now = 0, INTERVAL
    while any(runtime.has_pending_events for runtime in nodes.values()):
        for runtime in nodes.values():
            runtime.advance_until(now)
        for camera_id, source, destination, blackout in resolve(moves, tick, hosted_by(nodes)):
            handoff = nodes[source].detach_camera(camera_id, now)
            nodes[destination].attach_camera(handoff, now, resume_time=now + blackout)
            applied.append((source, destination))
        tick, now = tick + 1, now + INTERVAL
    return nodes, {node_id: runtime.finalize() for node_id, runtime in nodes.items()}, applied


class ScheduledMoves(Controller):
    """The same moves, as control actions for a cluster's control slot."""

    name = "scheduled_moves"

    def __init__(self, moves):
        self.moves = moves

    def decide(self, view):
        nodes = {node.node_id: node.runtime for node in view.nodes}
        return [
            MigrateCamera(*move)
            for move in resolve(self.moves, view.tick_index, hosted_by(nodes))
        ]


def run_as_cluster(specs, config, moves):
    return ShardedFleetRuntime(
        specs,
        config=ShardingConfig(num_nodes=2, placement="round_robin", node_config=config),
        pipeline_factory=FACTORY,
        control_loop=ControlLoop([ScheduledMoves(moves)], interval_seconds=INTERVAL),
    ).run()


SUMMED = {
    "frames_generated": lambda s: s.generated,
    "frames_admitted": lambda s: s.queue.stats.admitted,
    "frames_dropped_oldest": lambda s: s.queue.stats.dropped_oldest,
    "frames_dropped_newest": lambda s: s.queue.stats.dropped_newest,
    "frames_rejected": lambda s: s.rejected,
    "frames_blocked": lambda s: s.blocked,
    "frames_scored": lambda s: s.scored,
    "matched_frames": lambda s: s.matched,
    "events": lambda s: s.events,
    "uploaded_bits": lambda s: s.uploaded_bits,
}
COUNTED = (
    "generated", "admitted", "dropped_oldest", "dropped_newest", "rejected", "blocked", "scored",
)


@given(num_cameras=st.integers(2, 4), config=configs, moves=moves_strategy)
# cam000 leaves node0 and comes back twice: three stints there, two on node1.
@example(
    num_cameras=2,
    config=FleetConfig(num_workers=1, queue_capacity=2, service_time_scale=0.25),
    moves=[(1, 0, 0.1), (2, 0, 0.0), (4, 0, 0.0), (4, 0, 0.25)],
)
# cam000 is moved on one tick into a two-tick blackout, and back within the
# tick that began the next one.
@example(
    num_cameras=2,
    config=FleetConfig(num_workers=1, queue_capacity=2, service_time_scale=0.25),
    moves=[(1, 0, 0.25), (2, 0, 0.25), (2, 0, 0.1)],
)
@settings(deadline=None)
def test_frames_are_conserved_across_hosting_stints(num_cameras, config, moves):
    specs = fleet(num_cameras)
    moves = named(moves, num_cameras)
    nodes, reports, applied = run_by_hand(specs, config, moves)

    for node_id, report in reports.items():
        cameras = report.cameras.values()
        for camera in cameras:
            assert camera.frames_generated == (
                camera.frames_scored + camera.frames_dropped + camera.frames_rejected
            ), (node_id, camera)
        # The node's counters are the sums over its camera reports.
        counters = nodes[node_id].telemetry.counters()
        for name in COUNTED:
            assert counters.get(f"frames.{name}", 0) == sum(
                getattr(camera, f"frames_{name}") for camera in cameras
            ), (node_id, name)
        assert report.frames_generated == sum(c.frames_generated for c in cameras)
        assert report.frames_scored == sum(c.frames_scored for c in cameras)
        assert report.frames_dropped == sum(c.frames_dropped for c in cameras)
        assert report.frames_rejected == sum(c.frames_rejected for c in cameras)

        # A camera's report is the field-wise sum of its stints on the node.
        stints: dict[str, list] = {}
        for stint in nodes[node_id]._states.values():
            stints.setdefault(stint.spec.camera_id, []).append(stint)
        assert list(stints) == list(report.cameras)
        for camera_id, hosted in stints.items():
            camera = report.cameras[camera_id]
            for field, tally in SUMMED.items():
                assert getattr(camera, field) == sum(tally(s) for s in hosted), (camera_id, field)
            assert camera.queue_high_water == max(s.queue.stats.high_water for s in hosted)
            waits = sum(s.wait_count for s in hosted)
            assert camera.mean_queue_wait_seconds == (
                sum(s.wait_total for s in hosted) / waits if waits else 0.0
            )
            assert waits == camera.frames_scored

    # Across the handoffs no frame is offered twice and none goes missing.
    for spec in specs:
        assert spec.num_frames == sum(
            report.cameras[spec.camera_id].frames_generated
            for report in reports.values()
            if spec.camera_id in report.cameras
        )

    # The cluster's bookkeeping of the same moves agrees with the nodes.
    cluster = run_as_cluster(specs, config, moves)
    for node in cluster.nodes:
        assert node.camera_ids == nodes[node.node_id].hosted_cameras()
        assert node.report.cameras == reports[node.node_id].cameras
        assert node.cameras_migrated_in == sum(dst == node.node_id for _, dst in applied)
        assert node.cameras_migrated_out == sum(src == node.node_id for src, _ in applied)
    assert cluster.migrations_performed == len(applied)
