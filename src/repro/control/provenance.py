"""Decision provenance: why every controller did (or did not) act.

The control plane's determinism contract pins *what* happened — every applied
action lands in the decision log and the JSONL trace — but a trace that only
says ``set_camera_quota node0/cam003 -> 2`` cannot answer the operational
question: which telemetry inputs did the controller read, which candidates
did it rank and with what scores, and which thresholds or hysteresis state
gated the choice?  This module adds that layer: a controller's ``decide``
returns one :class:`DecisionRecord` per decision context per tick — including
an *explicit no-op with a reason* — carrying the typed actions it decided on.
The loop applies exactly those actions, and the
:class:`~repro.control.loop.ControlJournal` logs them and stamps each record
(tick index, simulated time, and the global sequence numbers of its actions)
into the control trace.

A record is pure data and fully deterministic: inputs and gates are frozen
``(name, value)`` pairs, candidates carry the exact score the controller
ranked them by, and serialization (:meth:`DecisionRecord.to_dict`) is
canonical, so two same-seed runs produce byte-identical provenance and any
action in a golden trace can be replayed back to the inputs that caused it
(:func:`repro.control.trace.explain_action`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.control.policies import ControlAction

__all__ = ["CandidateScore", "DecisionRecord", "freeze_values"]


def freeze_values(values: Mapping[str, object] | Sequence[tuple[str, object]] | None):
    """Normalize a mapping (or pair sequence) into a sorted, hashable tuple.

    Sorting by name makes the frozen form independent of insertion order, so
    provenance serialization cannot drift when a controller reorders its
    bookkeeping code.
    """
    if values is None:
        return ()
    items = values.items() if isinstance(values, Mapping) else values
    return tuple(sorted((str(name), value) for name, value in items))


@dataclass(frozen=True)
class CandidateScore:
    """One ranked candidate (camera or node) inside a decision.

    ``score`` is the exact value the controller ordered candidates by;
    ``chosen`` marks the ones the decision actually acted on; ``detail``
    carries the per-candidate sub-signals behind the score (frame rate,
    upload bps, blackout cost, ...).
    """

    candidate_id: str
    score: float
    chosen: bool = False
    detail: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (sorted detail keys)."""
        return {
            "id": self.candidate_id,
            "score": self.score,
            "chosen": self.chosen,
            "detail": dict(freeze_values(self.detail)),
        }


@dataclass(frozen=True)
class DecisionRecord:
    """One controller's decision context at one tick: inputs, ranking, outcome.

    ``kind`` names the branch the controller took (``tighten``, ``relax``,
    ``rebalance``, ``migrate``, ``drift``, ``hold``, ``idle``...).
    ``actions`` holds the typed actions the decision produced, in the order
    the loop applies them; an empty ``actions`` tuple with a ``reason`` is an
    explicit no-op.  The journal stamps tick index, simulated time, and
    action sequence links when it commits the record — controllers only
    describe *their* side of the decision.
    """

    controller: str
    kind: str
    node_id: str | None = None
    inputs: tuple[tuple[str, float], ...] = ()
    gates: tuple[tuple[str, object], ...] = ()
    candidates: tuple[CandidateScore, ...] = ()
    actions: tuple["ControlAction", ...] = ()
    reason: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", freeze_values(self.inputs))
        object.__setattr__(self, "gates", freeze_values(self.gates))
        if not self.actions and self.reason is None:
            raise ValueError(
                f"{self.controller}/{self.kind}: a no-op decision must carry a reason"
            )

    @property
    def is_noop(self) -> bool:
        """Whether this decision produced no actions."""
        return not self.actions

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; keys are stable across runs."""
        return {
            "controller": self.controller,
            "kind": self.kind,
            "node": self.node_id,
            "inputs": dict(self.inputs),
            "gates": dict(self.gates),
            "candidates": [c.to_dict() for c in self.candidates],
            "actions": [action.describe() for action in self.actions],
            "reason": self.reason,
        }

