"""Controller interface, cluster observations, and typed control actions.

The control plane is a classic observe-decide-actuate loop over the fleet
telemetry: every control interval each :class:`Controller` receives a
:class:`ClusterView` (a read-only window onto every node's runtime and
telemetry) and returns its decisions, each carrying the
:class:`ControlAction`\\ s it produced.  Actions are plain frozen
dataclasses, so control decisions are *data*: they can be logged, counted,
compared across runs (the determinism contract), and applied by whichever
actuator owns the runtime.

Concrete policies live next door: :mod:`repro.control.shedding`,
:mod:`repro.control.uplink`, and :mod:`repro.control.migration`.  Policies
compose — a :class:`~repro.control.loop.ControlLoop` runs any number of
controllers in order, each seeing the same tick's view.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.control.provenance import DecisionRecord
from repro.fleet.queues import DropPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.fleet.runtime import CameraLiveStats, FleetRuntime

__all__ = [
    "ControlAction",
    "SetDropPolicy",
    "SetCameraQuota",
    "SetCameraThreshold",
    "MigrateCamera",
    "SetUplinkWeights",
    "NodeView",
    "ClusterView",
    "Controller",
]


@dataclass(frozen=True)
class ControlAction:
    """Base class of every control-plane decision."""

    def describe(self) -> str:
        """One-line human/log form of the action."""
        return repr(self)


@dataclass(frozen=True)
class SetDropPolicy(ControlAction):
    """Switch one camera's queue overload policy."""

    node_id: str
    camera_id: str
    policy: DropPolicy

    def describe(self) -> str:
        return f"set_drop_policy {self.node_id}/{self.camera_id} -> {self.policy.value}"


@dataclass(frozen=True)
class SetCameraQuota(ControlAction):
    """Override (or with ``None`` restore) one camera's admission quota."""

    node_id: str
    camera_id: str
    quota: int | None

    def describe(self) -> str:
        quota = "default" if self.quota is None else str(self.quota)
        return f"set_camera_quota {self.node_id}/{self.camera_id} -> {quota}"


@dataclass(frozen=True)
class SetCameraThreshold(ControlAction):
    """Set one camera's live microclassifier decision threshold.

    The actuation point of runtime threshold drift: thresholds are calibrated
    once at training time, but a camera whose live match density runs away
    from its expected truth density gets its *session* threshold nudged —
    the shared trained model is never mutated.
    """

    node_id: str
    camera_id: str
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")

    def describe(self) -> str:
        return (
            f"set_camera_threshold {self.node_id}/{self.camera_id} -> {self.threshold:.4f}"
        )


@dataclass(frozen=True)
class MigrateCamera(ControlAction):
    """Move one camera from ``source`` to ``destination`` mid-run."""

    camera_id: str
    source: str
    destination: str
    blackout_seconds: float

    def describe(self) -> str:
        return (
            f"migrate {self.camera_id} {self.source} -> {self.destination} "
            f"(blackout {self.blackout_seconds:.3f}s)"
        )


@dataclass(frozen=True)
class SetUplinkWeights(ControlAction):
    """Re-weight the work-conserving shared uplink from this tick onward."""

    weights: tuple[tuple[str, float], ...]

    def describe(self) -> str:
        parts = ", ".join(f"{node}={weight:.3f}" for node, weight in self.weights)
        return f"set_uplink_weights {parts}"

    def as_mapping(self) -> dict[str, float]:
        """The weights as a plain dict (what the uplink actuator wants)."""
        return dict(self.weights)


@dataclass(frozen=True)
class NodeView:
    """Read-only window onto one node for control policies."""

    node_id: str
    runtime: "FleetRuntime"

    def live_stats(self) -> dict[str, "CameraLiveStats"]:
        """Per-camera point-in-time stats (id order)."""
        return self.runtime.camera_live_stats()

    @property
    def num_workers(self) -> int:
        """Worker slots on this node."""
        return self.runtime.workers.num_workers

    def wait_histogram(self):
        """The node's queue-wait histogram (for windowed quantiles)."""
        return self.runtime.telemetry.histogram("latency.queue_wait_seconds")

    def counter_value(self, name: str) -> float:
        """Current value of one node counter (0.0 when absent)."""
        return self.runtime.telemetry.counters().get(name, 0.0)


@dataclass(frozen=True)
class ClusterView:
    """Everything a controller may observe at one control tick."""

    now: float
    interval: float
    nodes: tuple[NodeView, ...]
    horizon: float
    uplink_weights: Mapping[str, float] | None = None
    # Per-node guaranteed uplink rate in bps (static slice, or the GPS
    # guarantee under work conservation); None when the actuator has no
    # shared link to describe.  Uplink-aware policies divide a node's
    # estimated upload bits by its guarantee to see backlog building.
    uplink_guarantees: Mapping[str, float] | None = None

    @property
    def remaining_seconds(self) -> float:
        """Simulated time left until the last camera feed ends."""
        return max(0.0, self.horizon - self.now)

    def node(self, node_id: str) -> NodeView:
        """Look up one node's view by id."""
        for view in self.nodes:
            if view.node_id == node_id:
                return view
        raise KeyError(f"No node {node_id!r} in this cluster view")


class Controller(ABC):
    """One closed-loop policy: observe a tick's view, return its decisions.

    Controllers may keep internal state across ticks (windowed counters,
    hysteresis timers); that state must be derived only from the views they
    were shown, so that identical runs produce identical decisions.

    A decision is one value: :meth:`decide` returns one
    :class:`~repro.control.provenance.DecisionRecord` per decision context
    (including explicit no-ops with a reason), each carrying the typed
    actions it produced.  The loop applies those actions in record order and
    the journal threads the records — stamped with tick index, time, and
    action sequence links — into the control trace.
    """

    name: str = "controller"

    @abstractmethod
    def decide(self, view: ClusterView) -> list[DecisionRecord]:
        """Return this tick's decisions; their actions are applied in order."""
