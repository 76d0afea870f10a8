"""The deterministic simulated event broker: a seeded QoS/loss model.

The broker models the lossy leg between an edge node's outbox and the
datacenter ingest.  Each publish *attempt* of an event record draws one of
three outcomes:

* ``LOST`` — the payload never arrives; the sender times out and retries;
* ``DELIVERED`` — the payload arrives and the ack returns; done;
* ``DELIVERED_ACK_LOST`` — the payload arrives but the ack is lost, so the
  sender retries a message the datacenter already has.  This is the outcome
  that exercises idempotent ingest: without event-key dedupe it produces a
  duplicate.

Outcomes are a pure function of ``(event key, attempt index, seed)`` — a
CRC32 hash mapped to a unit uniform — so a publish plan is computable
without any wall-clock or mutable RNG state, every rerun is bit-identical,
and an attempt's fate never depends on when the uplink got around to
carrying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from zlib import crc32

__all__ = ["AttemptOutcome", "BrokerConfig", "SimulatedBroker"]


class AttemptOutcome(Enum):
    """Fate of one publish attempt through the broker.

    Every member carries two flags, set once when the enum is created
    (callers read them per attempt):

    * ``reaches_datacenter`` — whether the payload arrives (regardless of
      the ack's fate);
    * ``acked`` — whether the sender receives the ack and stops retrying.
    """

    LOST = "lost"
    DELIVERED = "delivered"
    DELIVERED_ACK_LOST = "delivered_ack_lost"

    def __init__(self, value: str) -> None:
        self.reaches_datacenter = value != "lost"
        self.acked = value == "delivered"


# plan() appends one of these per attempt; module globals are its cheapest read.
_LOST = AttemptOutcome.LOST
_DELIVERED = AttemptOutcome.DELIVERED
_DELIVERED_ACK_LOST = AttemptOutcome.DELIVERED_ACK_LOST


@dataclass(frozen=True)
class BrokerConfig:
    """Loss model of the simulated broker."""

    loss_rate: float = 0.0
    ack_loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.ack_loss_rate < 1.0:
            raise ValueError("ack_loss_rate must be in [0, 1)")
        if self.loss_rate + self.ack_loss_rate >= 1.0:
            raise ValueError("loss_rate + ack_loss_rate must be below 1")


class SimulatedBroker:
    """Seeded per-attempt outcome oracle over the :class:`BrokerConfig`."""

    def __init__(self, config: BrokerConfig | None = None) -> None:
        self._config = config = config or BrokerConfig()
        # ``b"#{attempt}#{seed}"`` per attempt index, grown as plans ask for more.
        self._suffixes: list[bytes] = []
        # plan()'s two thresholds in the crc32 integer domain.  Exact:
        # ``crc / 2**32`` and ``rate * 2**32`` are power-of-two scalings of
        # doubles, so ``crc < rate * 2**32`` whenever ``crc / 2**32 < rate``.
        self._lost_below = config.loss_rate * 2**32
        self._acked_from = (config.loss_rate + config.ack_loss_rate) * 2**32

    @property
    def config(self) -> BrokerConfig:
        """The loss model, fixed at construction (plan() holds it pre-scaled)."""
        return self._config

    def outcome(self, key: str, attempt: int) -> AttemptOutcome:
        """The deterministic fate of attempt ``attempt`` for event ``key``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        draw = self._unit_uniform(key, attempt)
        if draw < self.config.loss_rate:
            return AttemptOutcome.LOST
        if draw < self.config.loss_rate + self.config.ack_loss_rate:
            return AttemptOutcome.DELIVERED_ACK_LOST
        return AttemptOutcome.DELIVERED

    def plan(self, key: str, max_attempts: int) -> list[AttemptOutcome]:
        """Outcomes of the attempts a retrying sender would actually make.

        The sender stops at the first acked attempt; the plan therefore has
        at most ``max_attempts`` entries and only its last one can be acked.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        suffixes = self._suffixes
        if len(suffixes) < max_attempts:
            for attempt in range(len(suffixes), max_attempts):
                suffixes.append(f"#{attempt}#{self._config.seed}".encode())
        lost, not_acked = self._lost_below, self._acked_from
        # crc32 is a running checksum: hash the key once, continue per attempt.
        head = crc32(key.encode())
        outcomes: list[AttemptOutcome] = []
        for attempt in range(max_attempts):
            draw = crc32(suffixes[attempt], head)
            if draw >= not_acked:
                outcomes.append(_DELIVERED)
                break
            outcomes.append(_LOST if draw < lost else _DELIVERED_ACK_LOST)
        return outcomes

    def _unit_uniform(self, key: str, attempt: int) -> float:
        token = f"{key}#{attempt}#{self.config.seed}".encode()
        return crc32(token) / 2**32
