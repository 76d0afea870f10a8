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
tick's simulated time, so the GPS drain honours them in order.  A 10 %
floor on every node's share keeps any node from being starved of
guaranteed capacity no matter how quiet it looks.
"""

from __future__ import annotations

from repro.control.policies import ClusterView, Controller, SetUplinkWeights
from repro.control.provenance import CandidateScore, DecisionRecord

__all__ = ["UplinkShareController"]

_SMOOTHING = 0.5  # EMA weight of the newest interval's demand
_MIN_SHARE = 0.10  # floor on any node's fraction of total weight
_REBALANCE_THRESHOLD = 0.10  # max per-node drift before re-weighting
_GATES = {
    "smoothing": _SMOOTHING,
    "min_share": _MIN_SHARE,
    "rebalance_threshold": _REBALANCE_THRESHOLD,
}


class UplinkShareController(Controller):
    """Re-weights the work-conserving uplink toward observed upload demand."""

    name = "uplink_share"

    def __init__(self) -> None:
        self._last_matched: dict[str, float] = {}
        self._demand_ema: dict[str, float] = {}

    def decide(self, view: ClusterView) -> list[DecisionRecord]:
        """Emit one weight update when demand drifts past the threshold."""
        if view.uplink_weights is None:
            # Statically sliced link; nothing to actuate — and nothing to
            # observe either, so skip the EMA update entirely.
            return [
                DecisionRecord(
                    controller=self.name,
                    kind="idle",
                    gates=_GATES,
                    reason="statically sliced uplink, nothing to actuate",
                )
            ]
        node_ids = sorted(view.uplink_weights)
        for node in view.nodes:
            matched = node.counter_value("frames.matched")
            delta = max(0.0, matched - self._last_matched.get(node.node_id, 0.0))
            self._last_matched[node.node_id] = matched
            previous = self._demand_ema.get(node.node_id, 0.0)
            self._demand_ema[node.node_id] = (1 - _SMOOTHING) * previous + _SMOOTHING * delta
        total_demand = sum(self._demand_ema.get(n, 0.0) for n in node_ids)
        if total_demand <= 0:
            return [
                DecisionRecord(
                    controller=self.name,
                    kind="hold",
                    inputs={"total_demand_ema": total_demand},
                    gates=_GATES,
                    reason="no upload demand observed yet",
                )
            ]
        # Hand every node its floor first, then split only the remaining
        # mass by demand — flooring-then-renormalizing would push quiet
        # nodes back below the floor.
        floor = min(_MIN_SHARE, 1.0 / len(node_ids))
        spare = 1.0 - floor * len(node_ids)
        target = {
            n: floor + spare * self._demand_ema.get(n, 0.0) / total_demand
            for n in node_ids
        }
        current_total = sum(view.uplink_weights[n] for n in node_ids)
        current = {n: view.uplink_weights[n] / current_total for n in node_ids}
        drift = max(abs(target[n] - current[n]) for n in node_ids)
        rebalance = drift > _REBALANCE_THRESHOLD
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
        inputs = {"total_demand_ema": total_demand, "max_drift": drift}
        if not rebalance:
            return [
                DecisionRecord(
                    controller=self.name,
                    kind="hold",
                    inputs=inputs,
                    gates=_GATES,
                    candidates=candidates,
                    reason="demand drift inside the rebalance threshold",
                )
            ]
        # The floor keeps every target, and so every weight, positive.
        weights = SetUplinkWeights(weights=tuple((n, round(target[n], 6)) for n in node_ids))
        return [
            DecisionRecord(
                controller=self.name,
                kind="rebalance",
                inputs=inputs,
                gates=_GATES,
                candidates=candidates,
                actions=(weights,),
            )
        ]
