"""Replayable control traces: a stable JSONL schema for run-for-run diffs.

The control plane's determinism contract (same seed + config => identical
decisions) was only checkable *inside* one process, by running twice and
comparing in memory.  This module persists everything that contract covers
to disk in a stable, line-oriented schema, so separate processes — CI jobs,
golden-file regression tests, two builds of the repository — can diff runs:

* every applied control action with its actuation time (the
  ``control_log`` / :attr:`~repro.control.loop.ControlLoop.decision_log`
  entries, which embed ``t=<seconds>``),
* the final merged telemetry snapshot (every counter, gauge watermark, and
  histogram summary), and
* the run's headline frame/uplink/control accounting.

Schema (one JSON object per line):

1. a ``header`` record carrying the schema id and record counts;
2. one ``action`` record per applied control action, in applied order;
3. one ``decision`` record per controller decision context (v2) — the
   provenance layer: inputs read, candidates ranked with scores, gating
   thresholds, and the ``action_seqs`` linking it to the ``action``
   records it produced (an empty list is an explicit no-op with reason);
4. one ``telemetry`` record per metric, in sorted name order;
5. one ``summary`` record with the report's aggregate counters.

:func:`explain_action` walks a loaded trace from an action's sequence
number back to the decision record — inputs and candidate ranking — that
produced it.

Any nondeterminism — a different decision, a shifted actuation time, a
telemetry counter off by one — shows up as a difference on a specific line
and key: the repository's one comparator (``first_difference`` in
``tools/parity.py``) names it.  ``tests/control/test_golden_trace.py`` pins
one small scenario's trace as a golden file; mutating any policy constant
fails tier-1.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

__all__ = [
    "TRACE_SCHEMA",
    "control_trace_records",
    "trace_to_jsonl",
    "write_control_trace",
    "load_trace",
    "explain_action",
]

TRACE_SCHEMA = "repro.control.trace/v2"

# Aggregate report fields pinned into the summary record.  Plain counters
# and bit totals only: every value is either an int or a float that JSON
# round-trips exactly (shortest-repr), so golden diffs are bit-exact.
_SUMMARY_FIELDS = (
    "frames_generated",
    "frames_scored",
    "frames_dropped",
    "frames_rejected",
    "events_detected",
    "control_ticks",
    "migrations_performed",
    "shedding_interventions",
    "uplink_rebalances",
    "threshold_drifts",
    "total_uplink_bits",
    "reclaimed_uplink_bits",
)


def control_trace_records(report) -> list[dict]:
    """Flatten a controlled run's report into schema records.

    ``report`` is duck-typed: a
    :class:`~repro.fleet.sharding.ShardedFleetReport` (or anything exposing
    ``control_log``, ``decision_records``, ``telemetry``, and the summary
    counters above).
    Missing summary fields are recorded as ``None`` rather than omitted, so
    a field disappearing from the report also diffs.
    """
    actions = list(report.control_log)
    decisions = list(report.decision_records)
    telemetry = dict(report.telemetry)
    records: list[dict] = [
        {
            "type": "header",
            "schema": TRACE_SCHEMA,
            "actions": len(actions),
            "decisions": len(decisions),
            "telemetry": len(telemetry),
        }
    ]
    for seq, entry in enumerate(actions):
        records.append({"type": "action", "seq": seq, "entry": entry})
    for decision in decisions:
        records.append({"type": "decision", **decision})
    for name in sorted(telemetry):
        records.append({"type": "telemetry", "name": name, "value": telemetry[name]})
    summary = {"type": "summary"}
    for field in _SUMMARY_FIELDS:
        summary[field] = getattr(report, field, None)
    records.append(summary)
    return records


def trace_to_jsonl(records: Sequence[dict]) -> str:
    """Serialize trace records to canonical JSONL (sorted keys, ``\\n`` ends)."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def write_control_trace(path: str | Path, report) -> list[dict]:
    """Serialize ``report`` to ``path`` as JSONL; returns the records."""
    records = control_trace_records(report)
    Path(path).write_text(trace_to_jsonl(records), encoding="utf-8")
    return records


def load_trace(path: str | Path) -> list[dict]:
    """Load a JSONL trace written by :func:`write_control_trace`."""
    records = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:  # pragma: no cover - corrupt file
            raise ValueError(f"{path}:{lineno}: invalid trace line: {exc}") from exc
    if not records or records[0].get("type") != "header":
        raise ValueError(f"{path}: not a control trace (missing header record)")
    schema = records[0].get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"{path}: schema {schema!r} is not {TRACE_SCHEMA!r}")
    return records


def explain_action(records: Sequence[dict], action_seq: int) -> dict:
    """The decision record that produced action ``action_seq``.

    Walks a loaded trace (or fresh :func:`control_trace_records` output) to
    the ``decision`` record whose ``action_seqs`` contains the action's
    sequence number — the provenance side of the determinism contract: any
    line of the golden trace replays back to the inputs that caused it.
    Raises :class:`KeyError` when the action exists but no decision claims
    it, and :class:`IndexError` when the action itself is missing.
    """
    if not any(
        r.get("type") == "action" and r.get("seq") == action_seq for r in records
    ):
        raise IndexError(f"No action with seq={action_seq} in this trace")
    for record in records:
        if record.get("type") != "decision":
            continue
        if action_seq in record.get("action_seqs", []):
            return record
    raise KeyError(f"No decision record claims action seq={action_seq}")
