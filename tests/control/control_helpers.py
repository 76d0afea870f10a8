"""Shared helpers for control-plane tests.

Controller unit tests do not need a real fleet: the observation surface a
controller touches (``camera_live_stats``, ``workers.num_workers``, the
telemetry registry) is small enough to fake, which keeps policy tests fast
and lets them construct exact overload/imbalance pictures.  Loop and
integration tests use real runtimes instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.policies import ClusterView, NodeView
from repro.control.provenance import DecisionRecord
from repro.fleet.queues import DropPolicy
from repro.fleet.runtime import CameraLiveStats
from repro.fleet.telemetry import TelemetryRegistry


@dataclass
class FakeWorkers:
    num_workers: int = 2


class FakeRuntime:
    """Duck-typed stand-in for FleetRuntime on the controller's read path."""

    def __init__(
        self,
        cameras: dict[str, CameraLiveStats] | None = None,
        num_workers: int = 2,
        horizon: float = 10.0,
    ) -> None:
        self.cameras = dict(cameras or {})
        self.workers = FakeWorkers(num_workers)
        self.telemetry = TelemetryRegistry()
        self.horizon = horizon

    def camera_live_stats(self) -> dict[str, CameraLiveStats]:
        return dict(self.cameras)


def make_stats(
    camera_id: str,
    frame_rate: float = 10.0,
    generated: int = 0,
    scored: int = 0,
    matched: int = 0,
    service_seconds: float = 0.01,
    resolution: tuple[int, int] = (64, 48),
    drop_policy: DropPolicy = DropPolicy.DROP_OLDEST,
    truth_known: bool = False,
    truth_positive_generated: int = 0,
    truth_positive_scored: int = 0,
    estimated_upload_bits: float = 0.0,
    threshold: float = 0.0,
    attached_at: float = 0.0,
) -> CameraLiveStats:
    """A CameraLiveStats with only the interesting fields spelled out."""
    return CameraLiveStats(
        camera_id=camera_id,
        resolution=resolution,
        frame_rate=frame_rate,
        generated=generated,
        scored=scored,
        matched=matched,
        service_seconds=service_seconds,
        drop_policy=drop_policy,
        truth_known=truth_known,
        truth_positive_generated=truth_positive_generated,
        truth_positive_scored=truth_positive_scored,
        estimated_upload_bits=estimated_upload_bits,
        threshold=threshold,
        attached_at=attached_at,
    )


def make_view(
    nodes: dict[str, FakeRuntime],
    now: float = 1.0,
    interval: float = 0.25,
    horizon: float | None = None,
    uplink_weights: dict[str, float] | None = None,
    uplink_guarantees: dict[str, float] | None = None,
) -> ClusterView:
    """Assemble a ClusterView over fake runtimes."""
    return ClusterView(
        now=now,
        interval=interval,
        nodes=tuple(NodeView(node_id, runtime) for node_id, runtime in nodes.items()),
        horizon=horizon if horizon is not None else max(r.horizon for r in nodes.values()),
        uplink_weights=uplink_weights,
        uplink_guarantees=uplink_guarantees,
    )


def actions_of(records: list[DecisionRecord]) -> list:
    """The actions a controller's decisions carry, in the order they apply."""
    return [action for record in records for action in record.actions]


def action_records(controller: str, actions) -> list[DecisionRecord]:
    """A scripted controller's decisions: one ``kind="action"`` record per action."""
    return [DecisionRecord(controller=controller, kind="action", actions=(a,)) for a in actions]
