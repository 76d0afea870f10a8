"""The one strategy: fleets, node configs, control slots and schedules.

A :class:`Scenario` is plain data.  The runners of :mod:`oracles.records`
build every live object from it, so a reference and its variant start from
the same inputs and share no state.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.fleet.camera import SCENARIOS, CameraSpec
from repro.fleet.queues import DropPolicy
from repro.fleet.runtime import FleetConfig
from repro.obs.slo import SLOConfig

# The values each listed dimension of a scenario may take; an entry narrows
# some.  Control "moves": only the scenario's schedule acts; "flat":
# shedding, uplink re-weighting and migration act too, in one ControlLoop.
DIMENSIONS = dict(
    num_nodes=(1, 2), control=("none", "moves", "flat", "hierarchy"),
    placement=("round_robin", "load_aware", "resolution_aware"),
    uplink_sharing=("static", "work_conserving"), drop_policy=tuple(DropPolicy),
    event_plane=(False, True), observe=(False, True),
)
OBSERVED_SLO = SLOConfig(objective=0.9)


@dataclass(frozen=True)
class Scenario:
    """One run's inputs.

    ``moves`` are ``(tick, camera_id, blackout_seconds)``: at that control
    tick the camera moves from whichever node hosts it to the next one.
    ``drifts`` are ``(tick, camera_id, threshold)``: the camera's live
    threshold, set on its host.  ``observe`` attaches a tracer, a timeline,
    alert rules and SLO accounting.
    """

    cameras: tuple[CameraSpec, ...]
    node: FleetConfig
    num_nodes: int = 1
    placement: str = "round_robin"
    uplink_sharing: str = "static"
    uplink_bps: float = 2_000_000.0
    control: str = "none"
    interval: float = 0.25
    moves: tuple[tuple[int, str, float], ...] = ()
    drifts: tuple[tuple[int, str, float], ...] = ()
    threshold: float = 0.6
    event_plane: bool = False
    observe: bool = False

    @property
    def node_ids(self) -> list[str]:
        return [f"node{i}" for i in range(self.num_nodes)]


@st.composite
def scenarios(draw, **narrowed) -> Scenario:
    """Scenarios whose dimensions take their ``narrowed``, else :data:`DIMENSIONS`, values."""
    dimensions = DIMENSIONS | narrowed

    def pick(values):
        return draw(st.sampled_from(values))

    nodes, control, observe = (pick(dimensions[d]) for d in ("num_nodes", "control", "observe"))
    count = draw(st.integers(nodes, 4))
    cameras = tuple(
        CameraSpec(
            f"cam{i:03d}",
            *pick([(32, 32), (48, 32)]),
            frame_rate=pick([4.0, 8.0]),
            num_frames=draw(st.integers(4, 10)),
            scenario=pick(sorted(SCENARIOS)),
            seed=draw(st.integers(0, 99)),
            start_time=pick([0.0, 0.1, 0.25]),
        )
        for i in range(count)
    )

    def schedule(values, max_size):
        items = st.tuples(st.integers(0, 9), st.integers(0, count - 1), st.sampled_from(values))
        # Nothing is filtered out: a camera may move again before its blackout
        # ran out, even within the tick that began it.
        drawn = draw(st.lists(items, max_size=max_size))
        return tuple(sorted(((t, cameras[i].camera_id, v) for t, i, v in drawn), key=lambda m: m[0]))

    scheduled = control in ("moves", "flat")
    return Scenario(
        cameras=cameras,
        node=FleetConfig(
            num_workers=draw(st.integers(1, 2)),
            queue_capacity=draw(st.integers(1, 3)),
            drop_policy=pick(dimensions["drop_policy"]),
            max_in_flight=draw(st.none() | st.integers(1, 6)),
            per_camera_quota=draw(st.none() | st.integers(1, 3)),
            service_time_scale=pick([0.1, 0.5, 1.0]),
            slo=OBSERVED_SLO if observe else None,
        ),
        num_nodes=nodes,
        placement=pick(dimensions["placement"]),
        uplink_sharing=pick(dimensions["uplink_sharing"]),
        uplink_bps=pick([40_000.0, 2_000_000.0]),
        control=control,
        interval=pick([0.125, 0.25]),
        moves=schedule([0.0, 0.1, 0.25], 6 if scheduled and nodes > 1 else 0),
        drifts=schedule([0.35, 0.8], 2 if scheduled else 0),
        threshold=pick([0.05, 0.6]),
        event_plane=pick(dimensions["event_plane"]),
        observe=observe,
    )


def fleet(count, frame_rate=8.0, num_frames=8, scenarios=("urban_day",)):
    """``count`` 32x32 cameras ``cam000``... cycling ``scenarios``, camera *i* seeded *i*."""
    return tuple(
        CameraSpec(
            f"cam{i:03d}", 32, 32, frame_rate=frame_rate, num_frames=num_frames,
            scenario=scenarios[i % len(scenarios)], seed=i,
        )
        for i in range(count)
    )
