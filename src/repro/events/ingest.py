"""Idempotent datacenter ingest with event-key dedupe and consumer lag.

The datacenter end of the delivery plane.  Payloads arrive (possibly more
than once — the broker can deliver a record whose ack was lost, making the
sender retransmit) and are consumed by a serial consumer with a fixed
service rate.  Two guarantees:

* **idempotence** — the first arrival of each event key is ingested; every
  later arrival of the same key is suppressed as a duplicate, so retries
  are safe end to end;
* **lag modeling** — the consumer processes one record per
  ``1 / consumer_rate_eps`` seconds; an arrival while the consumer is busy
  queues, and its completion lags its arrival.  Delivery latency is
  measured to ingest *completion*, so a slow consumer shows up in the p99.

Arrivals must be fed in non-decreasing arrival order (the plane sorts the
uplink's completed transfers before feeding them).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["IngestResult", "DatacenterIngest"]


class IngestResult(NamedTuple):
    """Outcome of one arrival at the datacenter."""

    key: str
    accepted: bool
    arrived_at: float
    completed_at: float

    @property
    def consumer_lag(self) -> float:
        """How long the arrival waited on (and in) the consumer."""
        return self.completed_at - self.arrived_at


# Builds an IngestResult from the tuple of its fields without the Python frame
# of the generated __new__: ingest() makes one per arrival.
_new_result = tuple.__new__


class DatacenterIngest:
    """Serial, deduplicating consumer of delivered event payloads."""

    def __init__(self, consumer_rate_eps: float = 0.0) -> None:
        """``consumer_rate_eps`` is events per second; 0 = infinitely fast."""
        if not consumer_rate_eps >= 0:  # written so that a NaN fails it
            raise ValueError("consumer_rate_eps must be non-negative")
        self._consumer_rate_eps = float(consumer_rate_eps)
        self.unique_ingests = 0
        self.duplicates = 0
        self.max_consumer_lag = 0.0
        self._seen: set[str] = set()
        self._busy_until = 0.0
        self._last_arrival = float("-inf")
        # The rate is fixed at construction: ingest() adds this, looked up.
        self._service_seconds = self.service_seconds

    @property
    def consumer_rate_eps(self) -> float:
        """Events per second the consumer serves (0 = infinitely fast); read-only."""
        return self._consumer_rate_eps

    @property
    def service_seconds(self) -> float:
        """Consumer time per ingested record."""
        return 1.0 / self.consumer_rate_eps if self.consumer_rate_eps > 0 else 0.0

    def ingest(self, key: str, arrived_at: float) -> IngestResult:
        """Apply one arrival; duplicates are suppressed without consumer cost."""
        if not arrived_at >= self._last_arrival:  # a NaN fails closed
            raise ValueError("ingest arrivals must be in non-decreasing time order")
        self._last_arrival = arrived_at
        seen = self._seen
        if key in seen:
            self.duplicates += 1
            return _new_result(IngestResult, (key, False, arrived_at, arrived_at))
        seen.add(key)
        self.unique_ingests += 1
        busy = self._busy_until
        # max(arrived_at, busy) exactly, without the call: ties keep arrived_at.
        completed = (busy if busy > arrived_at else arrived_at) + self._service_seconds
        self._busy_until = completed
        lag = completed - arrived_at
        if lag > self.max_consumer_lag:
            self.max_consumer_lag = lag
        return _new_result(IngestResult, (key, True, arrived_at, completed))

    def has_ingested(self, key: str) -> bool:
        """Whether ``key`` has been accepted (dedupe membership probe)."""
        return key in self._seen
