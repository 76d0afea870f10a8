"""The bandwidth-constrained uplink.

The paper's target deployments allocate "a few hundred kilobits per second,
or less" of uplink bandwidth per camera.  :class:`ConstrainedUplink` models
such a link: every upload is throttled to the link capacity, transfers are
serialized, and utilization over the stream duration is tracked so
experiments can check whether a filtering strategy stays within budget.

:class:`WorkConservingUplink` extends the model to a *cluster*: several
edge nodes share one datacenter link, each through its own port, and every
node holds a weight.  A node's static guarantee is
``capacity * weight / sum(all weights)``.  With ``reclaim=True`` the link is
weighted generalized processor sharing (GPS): every backlogged node drains
at ``capacity * weight / sum(weights of backlogged nodes)``, so capacity a
node is not using flows to the nodes that need it, and the bits a node
moves above its guarantee are tracked as
:attr:`~WorkConservingUplink.reclaimed_bits`.  With ``reclaim=False`` every
backlogged node drains at its guarantee whatever its neighbours do — static
slicing, where each port behaves as a :class:`ConstrainedUplink` at its
guarantee and nothing is reclaimed.  Either way the model is one
deterministic fluid simulation over a globally time-ordered list of
transfers from all nodes.

A node holds a *link port* (:class:`LinkPort`): a standalone
:class:`ConstrainedUplink`, or ``links[node]`` of a shared link.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Protocol, runtime_checkable

__all__ = [
    "UplinkTransfer",
    "LinkPort",
    "ConstrainedUplink",
    "SharedTransfer",
    "WorkConservingUplink",
]


def _utilization(bits: float, capacity_bps: float, duration: float) -> float:
    """Fraction of ``capacity_bps`` that ``bits`` consumed over ``duration`` seconds.

    An empty window (``duration <= 0`` — e.g. a zero-length run being
    finalized) used nothing of the link, so it reports 0.0 rather than
    raising and crashing report finalization.
    """
    if duration <= 0:
        return 0.0
    return bits / (capacity_bps * duration)


class UplinkTransfer(NamedTuple):
    """One completed upload through the constrained link."""

    description: str
    bits: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Transfer duration in seconds (throttled by the link capacity)."""
        return self.end_time - self.start_time


# Builds an UplinkTransfer from the tuple of its fields without the Python
# frame of the generated __new__: ConstrainedUplink.upload makes one per call.
_new_transfer = tuple.__new__


@runtime_checkable
class LinkPort(Protocol):
    """One node's end of a link: it submits uploads here and holds what ``upload`` returns.

    A standalone :class:`ConstrainedUplink` serves each upload as it is
    submitted and returns the finished :class:`UplinkTransfer`; a port of a
    :class:`WorkConservingUplink` returns a :class:`SharedTransfer` that the
    link's one drain completes.
    """

    capacity_bps: float  # the node's guarantee

    @property
    def total_bits(self) -> float: ...

    def upload(
        self, bits: float, available_at: float = 0.0, description: str = "upload"
    ) -> UplinkTransfer | SharedTransfer: ...

    def utilization(self, duration: float) -> float: ...

    def backlog_seconds(self, now: float) -> float: ...


@dataclass
class ConstrainedUplink:
    """A serial uplink with a fixed capacity in bits per second.

    It is the link of a standalone node (a
    :class:`~repro.fleet.runtime.FleetRuntime` built without a port, or an
    :class:`~repro.edge.node.EdgeNode`), and the reference a statically
    sliced port of :class:`WorkConservingUplink` is tested against.

    ``keep_transfers=False`` drops the per-transfer history while keeping
    every aggregate (total bits, busy-until, utilization, backlog) exact —
    for callers replaying millions of transfers (e.g. the event-delivery
    benchmark) where the history would dominate memory.
    """

    capacity_bps: float
    transfers: list[UplinkTransfer] = field(default_factory=list)
    keep_transfers: bool = True
    _busy_until: float = 0.0
    _total_bits: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.capacity_bps < math.inf:  # written so that a NaN fails it
            raise ValueError("capacity_bps must be positive and finite")

    def upload(self, bits: float, available_at: float = 0.0, description: str = "upload") -> UplinkTransfer:
        """Send ``bits`` as soon as the link is free at or after ``available_at``.

        Returns the completed transfer record; the link is then busy until
        the transfer's end time.
        """
        available_at, busy = float(available_at), self._busy_until
        # max(available_at, busy) exactly, without the call: a NaN available_at
        # stays NaN for the guard below, and a tie keeps available_at.
        start = busy if busy > available_at else available_at
        # Both guards are written so that a NaN fails them.
        if not 0 <= bits < math.inf:
            raise ValueError("bits must be finite and non-negative")
        if not start >= busy:
            raise ValueError("available_at must not be NaN")
        end = start + bits / self.capacity_bps
        bits = float(bits)
        transfer = _new_transfer(UplinkTransfer, (description, bits, start, end))
        if self.keep_transfers:
            self.transfers.append(transfer)
        self._busy_until = end
        self._total_bits += bits
        return transfer

    @property
    def total_bits(self) -> float:
        """Total bits sent over the link."""
        return self._total_bits

    @property
    def busy_until(self) -> float:
        """Time at which the link becomes idle."""
        return self._busy_until

    def utilization(self, duration: float) -> float:
        """Fraction of the link capacity consumed over ``duration`` seconds."""
        return _utilization(self.total_bits, self.capacity_bps, duration)

    def backlog_seconds(self, now: float) -> float:
        """How far behind real time the link currently is."""
        return max(0.0, self._busy_until - float(now))


@dataclass(eq=False)
class SharedTransfer:
    """One node's transfer through the shared link.

    A port's :meth:`~_NodePort.upload` returns it with no times; the link's
    one :meth:`~WorkConservingUplink.drain` fills in ``start_time`` and
    ``end_time`` in place, so whoever submitted it reads the result off it.
    """

    node_id: str
    bits: float
    available_at: float
    description: str = "upload"
    start_time: float | None = None
    end_time: float | None = None

    def __post_init__(self) -> None:
        # A NaN fails both: drain() cannot step past a NaN arrival or finish a NaN residual.
        if not 0 <= self.bits < math.inf:
            raise ValueError("bits must be finite and non-negative")
        if not 0 <= self.available_at < math.inf:
            raise ValueError("available_at must be finite and non-negative")

    @property
    def duration(self) -> float:
        """Wall time from first to last bit on the wire (once drained)."""
        return self.end_time - self.start_time


@dataclass
class _NodePort:
    """One node's end of a :class:`WorkConservingUplink`.

    :meth:`upload` queues the transfer for the link's one
    :meth:`~WorkConservingUplink.drain`, which fills in its times and the
    port's totals; ``capacity_bps`` is the node's guarantee.
    """

    node_id: str
    capacity_bps: float
    _link: WorkConservingUplink = field(repr=False)
    total_bits: float = 0.0
    busy_until: float = 0.0

    def upload(
        self, bits: float, available_at: float = 0.0, description: str = "upload"
    ) -> SharedTransfer:
        """Queue ``bits`` for the drain; the returned transfer has times once it has run."""
        if self._link._drained:
            raise RuntimeError("cannot upload after drain(): the link will not run again")
        transfer = SharedTransfer(self.node_id, bits, available_at, description)
        self._link._submitted.append(transfer)
        return transfer

    def utilization(self, duration: float) -> float:
        """Fraction of the node's guarantee consumed over ``duration`` seconds."""
        return _utilization(self.total_bits, self.capacity_bps, duration)

    def backlog_seconds(self, now: float) -> float:
        """How far the node's last bit lags ``now``."""
        return max(0.0, self.busy_until - float(now))


class WorkConservingUplink:
    """One datacenter link shared by several edge nodes, each through a port.

    Every node holds a *weight*; its static guarantee is
    ``capacity * weight / sum(all weights)``.  With ``reclaim`` on (the
    default) the backlogged nodes split the link capacity in proportion to
    their weights at any instant — weighted generalized processor sharing —
    so a node whose neighbours are idle drains at up to the full link rate,
    and every bit moved above its guarantee counts toward
    :attr:`reclaimed_bits`.  With ``reclaim`` off a backlogged node drains
    at its guarantee whether its neighbours are backlogged or not: static
    slicing, whose weights are fixed and whose :attr:`reclaimed_bits` stay 0.

    The simulation is *post-hoc*: nodes submit their transfers through their
    ports (:attr:`links`) or hand them to :meth:`drain`, the control plane's
    uplink actuator optionally schedules weight updates via
    :meth:`schedule_weights`, and the cluster calls :meth:`drain` once.  The
    fluid replay is exact and deterministic: sorted inputs, no randomness,
    no wall-clock reads.

    Both modes are this one class, named for its default, and it defines
    :meth:`drain` itself: the e2e benchmark's span table wraps
    ``WorkConservingUplink.drain`` by name.
    """

    _EPS_BITS = 1e-9

    def __init__(
        self, capacity_bps: float, weights: Mapping[str, float], reclaim: bool = True
    ) -> None:
        if not 0 < capacity_bps < math.inf:  # written so that a NaN fails it, as below
            raise ValueError("capacity_bps must be positive and finite")
        if not weights:
            raise ValueError("WorkConservingUplink needs at least one node weight")
        for node_id, weight in weights.items():
            if not 0 < weight < math.inf:
                raise ValueError(f"weight for node {node_id!r} must be positive and finite")
        self.capacity_bps = float(capacity_bps)
        self.reclaim = reclaim
        self._weights = {node_id: float(w) for node_id, w in weights.items()}
        self._weight_changes: list[tuple[float, int, dict[str, float]]] = []
        self._change_sequence = 0
        self.transfers: list[SharedTransfer] = []
        self.reclaimed_bits = 0.0
        self._drained = False
        self._submitted: list[SharedTransfer] = []
        total = sum(self._weights.values())
        self._ports = {
            node_id: _NodePort(node_id, self.capacity_bps * weight / total, self)
            for node_id, weight in self._weights.items()
        }

    # -- configuration -------------------------------------------------------
    @property
    def scheduled_weights(self) -> dict[str, float]:
        """The weights last handed to :meth:`schedule_weights` (the initial ones until then)."""
        return dict(self._weight_changes[-1][2] if self._weight_changes else self._weights)

    @property
    def links(self) -> dict[str, _NodePort]:
        """Per-node ports by name (insertion order preserved)."""
        return dict(self._ports)

    def schedule_weights(self, at_time: float, weights: Mapping[str, float]) -> None:
        """Install new GPS weights from ``at_time`` onward (applied in replay).

        The node set must not change; weights must be positive.  Multiple
        updates at the same instant apply in scheduling order (last wins).
        A statically sliced link (``reclaim=False``) refuses re-weighting.
        """
        if self._drained:
            raise RuntimeError("cannot schedule weights after drain()")
        if not self.reclaim:
            raise RuntimeError("a statically sliced link (reclaim=False) cannot be re-weighted")
        if not 0 <= at_time < math.inf:
            raise ValueError("at_time must be finite and non-negative")
        if set(weights) != set(self._weights):
            raise ValueError(
                f"weight update must cover exactly {sorted(self._weights)}, "
                f"got {sorted(weights)}"
            )
        for node_id, weight in weights.items():
            if not 0 < weight < math.inf:
                raise ValueError(f"weight for node {node_id!r} must be positive and finite")
        self._weight_changes.append(
            (float(at_time), self._change_sequence, {n: float(w) for n, w in weights.items()})
        )
        self._change_sequence += 1

    # -- the fluid replay ----------------------------------------------------
    def drain(self, requests: Iterable[SharedTransfer] = ()) -> list[SharedTransfer]:
        """Replay every transfer through the shared link, completing each in place.

        ``requests`` join whatever the ports submitted.  Transfers are served
        FIFO per node in ``(available_at, description, bits)`` order and
        shared across nodes by weight; each gets its ``start_time`` and
        ``end_time``, and the same objects come back in completion order.
        May only be called once, and a transfer for an unknown node is
        refused before the link counts as drained.
        """
        if self._drained:
            raise RuntimeError("drain() may only be called once")
        reqs = sorted(
            [*self._submitted, *requests],
            key=lambda r: (r.available_at, r.node_id, r.description, r.bits),
        )
        for req in reqs:
            if req.node_id not in self._weights:
                raise ValueError(f"Unknown node {req.node_id!r} in transfer request")
        self._drained = True
        changes = sorted(self._weight_changes, key=lambda c: (c[0], c[1]))
        queues: dict[str, deque[SharedTransfer]] = {
            node_id: deque() for node_id in self._weights
        }
        remaining: dict[str, float] = {}
        weights = dict(self._weights)
        all_weight = sum(weights.values())
        capacity = self.capacity_bps
        results: list[SharedTransfer] = []
        i = 0  # next request to enqueue
        ci = 0  # next weight change to apply
        t = 0.0
        while True:
            while i < len(reqs) and reqs[i].available_at <= t:
                queues[reqs[i].node_id].append(reqs[i])
                i += 1
            while ci < len(changes) and changes[ci][0] <= t:
                weights = dict(changes[ci][2])
                ci += 1
            for node_id in sorted(queues):
                if queues[node_id] and node_id not in remaining:
                    head = queues[node_id][0]
                    remaining[node_id] = head.bits
                    head.start_time = max(t, head.available_at)
            completed = False
            for node_id in sorted(remaining):
                if remaining[node_id] <= self._EPS_BITS:
                    head = queues[node_id].popleft()
                    head.end_time = t
                    results.append(head)
                    port = self._ports[node_id]
                    port.total_bits += head.bits
                    port.busy_until = t
                    del remaining[node_id]
                    completed = True
            if completed:
                continue  # promote the next heads at the same instant
            active = sorted(remaining)
            if not active:
                if i < len(reqs):
                    t = max(t, reqs[i].available_at)
                    continue
                break
            # Reclaim off: every node is charged the whole weight sum, idle
            # neighbours included, so it drains at exactly its guarantee.
            active_weight = sum(weights[n] for n in active) if self.reclaim else all_weight
            t_arrival = reqs[i].available_at if i < len(reqs) else math.inf
            t_change = changes[ci][0] if ci < len(changes) else math.inf
            t_complete = min(
                t + remaining[n] * active_weight / (capacity * weights[n]) for n in active
            )
            t_next = min(t_arrival, t_change, t_complete)
            if t_next <= t:
                # Floating-point liveness guard: the shortest residual
                # drains in less than one ulp of the clock (t + dt == t),
                # so time cannot advance.  Finish every residual whose
                # completion rounds to "now" and re-run the sweep.
                for n in active:
                    if t + remaining[n] * active_weight / (capacity * weights[n]) <= t:
                        remaining[n] = 0.0
                continue
            dt = t_next - t
            for n in active:
                rate = capacity * weights[n] / active_weight
                drained = min(remaining[n], rate * dt)
                remaining[n] -= drained
                # The reclaim baseline is what *static slicing under the
                # configured allocation* would have guaranteed — the initial
                # weights.  Scheduled re-weighting changes the GPS rates, not
                # the comparison point.
                guaranteed = self._ports[n].capacity_bps
                if rate > guaranteed and dt > 0:
                    self.reclaimed_bits += min(drained, (rate - guaranteed) * dt)
            t = t_next
        self.transfers = results
        return results

    # -- accounting ----------------------------------------------------------
    @property
    def total_bits(self) -> float:
        """Bits moved across all nodes."""
        return sum(port.total_bits for port in self._ports.values())
