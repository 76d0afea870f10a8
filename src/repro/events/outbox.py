"""The per-node outbox: bounded queue, retry schedule, exponential backoff.

Every edge node buffers the event records it publishes in an outbox.  The
outbox is *bounded*: a record offered while ``max_queue`` earlier records
are still occupying it is dropped on the floor (counted, surfaced in
telemetry — explicit backpressure, the same philosophy as the frame queues).

Retries are timeout-driven: attempt ``j`` is (re)sent at

    ``closed_at + sum(backoff(i) for i in range(j))``

where ``backoff(i) = min(base * 2**i, cap)`` — i.e. the sender waits one
backoff window for the ack of each attempt before retransmitting.  Send
times are therefore a pure function of the record's close time, independent
of when the shared uplink actually carries the bytes; combined with the
hash-seeded broker this keeps the whole delivery plan computable up front
and bit-identical across reruns.

Occupancy is modeled the same way: an admitted entry occupies a queue slot
from its close time until the ack of its final attempt would return (last
send time plus one more backoff window).  Offers must arrive in
non-decreasing ``closed_at`` order — the order the runtime closes events in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple

__all__ = ["OutboxConfig", "OutboxEntry", "NodeOutbox"]


@dataclass(frozen=True)
class OutboxConfig:
    """Sizing and retry policy of a node's outbox."""

    max_queue: int = 1024
    max_retries: int = 8
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        # Written so that a NaN fails each guard: min(x, nan) would drop the cap.
        if not self.backoff_base_seconds > 0:
            raise ValueError("backoff_base_seconds must be positive")
        if not self.backoff_cap_seconds >= self.backoff_base_seconds:
            raise ValueError("backoff_cap_seconds must be at least the base")

    @cached_property
    def max_attempts(self) -> int:
        """Total sends per record: the first try plus every retry."""
        return self.max_retries + 1

    def backoff(self, attempt: int) -> float:
        """Ack-wait window after attempt ``attempt`` (capped exponential)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        try:
            return min(self.backoff_base_seconds * 2**attempt, self.backoff_cap_seconds)
        except OverflowError:  # 2**attempt is past the float range: long since capped
            return self.backoff_cap_seconds

    def send_time(self, closed_at: float, attempt: int) -> float:
        """When attempt ``attempt`` of a record closed at ``closed_at`` is sent."""
        return closed_at + sum(self.backoff(i) for i in range(attempt))

    @cached_property
    def schedule(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """``(offsets, backoffs)`` per attempt, built once per config.

        ``offsets[a]`` is the sum :meth:`send_time` adds to the close time,
        ``backoffs[a]`` is ``backoff(a)``: the same floats, looked up.
        """
        backoffs = tuple(self.backoff(attempt) for attempt in range(self.max_attempts))
        # sum() per prefix, not a running total: only sum() is sure to round as
        # send_time's sum() does (Python 3.12 made it a compensated sum).
        return tuple(sum(backoffs[:attempt]) for attempt in range(len(backoffs))), backoffs


class OutboxEntry(NamedTuple):
    """One admitted record's publish plan: when each attempt goes out."""

    key: str
    closed_at: float
    bits: float
    send_times: tuple[float, ...]

    @property
    def attempts(self) -> int:
        """Sends this entry makes (1 = acked first try)."""
        return len(self.send_times)


# Builds an OutboxEntry from the tuple of its fields without the Python frame
# of the generated __new__: offer() makes one per admitted record.
_new_entry = tuple.__new__


class NodeOutbox:
    """Bounded, deterministic publish queue for one edge node."""

    def __init__(self, node_id: str, config: OutboxConfig | None = None) -> None:
        self.node_id = str(node_id)
        self._config = config = config or OutboxConfig()
        self.entries: list[OutboxEntry] = []
        self.dropped = 0
        self._last_offer_at = float("-inf")
        # Occupancy-end times of admitted entries still holding a slot; a
        # min-heap popped as offers advance the clock keeps admission O(log n).
        self._occupied: list[float] = []
        # What offer() reads of the config per record, bound once.
        self._offsets, self._backoffs = config.schedule
        self._max_queue = config.max_queue

    @property
    def config(self) -> OutboxConfig:
        """The sizing and retry policy, fixed at construction."""
        return self._config

    def offer(self, key: str, closed_at: float, bits: float, attempts: int) -> OutboxEntry | None:
        """Admit a record closing at ``closed_at`` that will make ``attempts`` sends.

        Returns the entry with its attempt send times, or ``None`` when the
        queue is full (an overflow drop).  ``attempts`` comes from the
        broker's plan for the record's key.
        """
        offsets, backoffs, occupied = self._offsets, self._backoffs, self._occupied
        # Each guard is written so that a NaN fails it.
        if not closed_at >= self._last_offer_at:
            raise ValueError("outbox offers must arrive in non-decreasing closed_at order")
        if not 1 <= attempts <= len(backoffs):
            raise ValueError(f"attempts must be in [1, {len(backoffs)}]")
        if not 0 <= bits < inf:
            raise ValueError("bits must be finite and non-negative")
        self._last_offer_at = closed_at
        while occupied and occupied[0] <= closed_at:
            heappop(occupied)
        if len(occupied) >= self._max_queue:
            self.dropped += 1
            return None
        if attempts == 1:  # most records: acked on the first try
            send_times = (closed_at + offsets[0],)
        else:
            send_times = tuple([closed_at + offset for offset in offsets[:attempts]])
        entry = _new_entry(OutboxEntry, (key, closed_at, bits, send_times))
        self.entries.append(entry)
        # The slot frees when the final attempt's ack window elapses.
        heappush(occupied, send_times[-1] + backoffs[attempts - 1])
        return entry

    @property
    def occupancy(self) -> int:
        """Slots held as of the last offer."""
        return len(self._occupied)
