"""Dynamic uplink sharing: steer guaranteed shares toward observed demand.

A :class:`~repro.edge.uplink.WorkConservingUplink` already lets idle
capacity flow to backlogged nodes instant-by-instant; what it cannot do by
itself is change each node's *guaranteed* share when demand shifts for good
(a migrated-in camera, a scene that heats up).  This controller tracks each
node's upload demand — matched frames per interval, the quantity that turns
into event bits — as an exponential moving average and re-weights the link
toward the demand distribution whenever it drifts far enough from the
current weights.

Weight updates are :class:`~repro.control.policies.SetUplinkWeights`
actions; the sharded runtime schedules them into the uplink's replay at the
tick's simulated time, so the GPS drain honours them in order.  A
``min_share`` floor keeps any node from being starved of guaranteed
capacity no matter how quiet it looks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    SetUplinkWeights,
)
from repro.control.provenance import CandidateScore, DecisionRecord

__all__ = ["UplinkShareConfig", "UplinkShareController"]


@dataclass(frozen=True)
class UplinkShareConfig:
    """Tuning knobs of the uplink re-weighting policy."""

    smoothing: float = 0.5  # EMA weight of the newest interval's demand
    min_share: float = 0.10  # floor on any node's fraction of total weight
    rebalance_threshold: float = 0.10  # max per-node drift before re-weighting

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 <= self.min_share < 1.0:
            raise ValueError("min_share must be in [0, 1)")
        if not self.rebalance_threshold > 0:  # written so that a NaN fails it
            raise ValueError("rebalance_threshold must be positive")


class UplinkShareController(Controller):
    """Re-weights the work-conserving uplink toward observed upload demand."""

    name = "uplink_share"

    def __init__(self, config: UplinkShareConfig | None = None) -> None:
        self.config = config or UplinkShareConfig()
        self._last_matched: dict[str, float] = {}
        self._demand_ema: dict[str, float] = {}

    def _gates(self) -> dict:
        return {
            "smoothing": self.config.smoothing,
            "min_share": self.config.min_share,
            "rebalance_threshold": self.config.rebalance_threshold,
        }

    def decide(self, view: ClusterView) -> list[ControlAction]:
        """Emit one weight update when demand drifts past the threshold."""
        if view.uplink_weights is None:
            # Statically sliced link; nothing to actuate — and nothing to
            # observe either, so skip the EMA update entirely.
            self.record_decision(
                DecisionRecord(
                    controller=self.name,
                    kind="idle",
                    gates=self._gates(),
                    reason="statically sliced uplink, nothing to actuate",
                )
            )
            return []
        node_ids = sorted(view.uplink_weights)
        for node in view.nodes:
            matched = node.counter_value("frames.matched")
            delta = max(0.0, matched - self._last_matched.get(node.node_id, 0.0))
            self._last_matched[node.node_id] = matched
            previous = self._demand_ema.get(node.node_id, 0.0)
            alpha = self.config.smoothing
            self._demand_ema[node.node_id] = (1 - alpha) * previous + alpha * delta
        total_demand = sum(self._demand_ema.get(n, 0.0) for n in node_ids)
        if total_demand <= 0:
            self.record_decision(
                DecisionRecord(
                    controller=self.name,
                    kind="hold",
                    inputs={"total_demand_ema": total_demand},
                    gates=self._gates(),
                    reason="no upload demand observed yet",
                )
            )
            return []
        # Hand every node its floor first, then split only the remaining
        # mass by demand — flooring-then-renormalizing would push quiet
        # nodes back below the floor.
        floor = min(self.config.min_share, 1.0 / len(node_ids))
        spare = 1.0 - floor * len(node_ids)
        target = {
            n: floor + spare * self._demand_ema.get(n, 0.0) / total_demand
            for n in node_ids
        }
        current_total = sum(view.uplink_weights[n] for n in node_ids)
        current = {n: view.uplink_weights[n] / current_total for n in node_ids}
        drift = max(abs(target[n] - current[n]) for n in node_ids)
        rebalance = drift > self.config.rebalance_threshold
        candidates = tuple(
            CandidateScore(
                candidate_id=n,
                score=target[n] - current[n],
                chosen=rebalance,
                detail=(
                    ("target_share", target[n]),
                    ("current_share", current[n]),
                    ("demand_ema", self._demand_ema.get(n, 0.0)),
                ),
            )
            for n in node_ids
        )
        if not rebalance:
            self.record_decision(
                DecisionRecord(
                    controller=self.name,
                    kind="hold",
                    inputs={"total_demand_ema": total_demand, "max_drift": drift},
                    gates=self._gates(),
                    candidates=candidates,
                    reason="demand drift inside the rebalance threshold",
                )
            )
            return []
        # The uplink rejects non-positive weights; with min_share=0 a
        # zero-demand node's target must still stay epsilon-positive.
        actions: list[ControlAction] = [
            SetUplinkWeights(
                weights=tuple((n, max(round(target[n], 6), 1e-6)) for n in node_ids)
            )
        ]
        self.record_decision(
            DecisionRecord(
                controller=self.name,
                kind="rebalance",
                inputs={"total_demand_ema": total_demand, "max_drift": drift},
                gates=self._gates(),
                candidates=candidates,
                actions=tuple(a.describe() for a in actions),
            )
        )
        return actions
