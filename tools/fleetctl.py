#!/usr/bin/env python3
"""fleetctl: inspect a fleet run from its exported artifacts.

Operates on the files a run (e.g. ``examples/incident_demo.py``) writes to
its output directory — no live runtime needed:

* ``control_trace.jsonl`` — the replayable control trace
  (``repro.control.trace``): header, actions, decision provenance records,
  telemetry, summary;
* ``alerts.jsonl``        — fire/resolve events (``AlertLog.write_jsonl``);
* ``timeline.jsonl``      — metric timeline samples
  (``MetricsTimeline.write_jsonl``);
* ``delivery_log.jsonl``  — one line per event record carried by the
  delivery plane (``EventDeliveryPlane.delivery_log_jsonl``).

Four subcommands::

    fleetctl.py summarize --dir out/   # run overview + incidents
    fleetctl.py alerts    --dir out/   # every fire/resolve transition
    fleetctl.py explain 7 --dir out/   # the decision record behind action 7
    fleetctl.py events    --dir out/   # event-delivery outcomes + latency

``explain`` is the provenance contract made interactive: any action in the
trace replays back to the inputs its controller read, the gates it applied,
and the candidate ranking it chose from.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.control.trace import explain_action, load_trace  # noqa: E402
from repro.fleet.telemetry import nearest_rank  # noqa: E402
from repro.obs.alerts import AlertEvent, AlertLog  # noqa: E402
from repro.obs.incident import incident_reports  # noqa: E402

TRACE_FILE = "control_trace.jsonl"
ALERTS_FILE = "alerts.jsonl"
TIMELINE_FILE = "timeline.jsonl"
DELIVERY_LOG_FILE = "delivery_log.jsonl"


def load_alert_log(path: Path) -> AlertLog:
    """Rebuild an :class:`AlertLog` from its JSONL export."""
    events = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        # AlertEvent.to_dict writes the fields under their own names, but ``time`` as "t".
        events.append(AlertEvent(time=entry.pop("t"), **entry))
    return AlertLog(events=tuple(events))


def _split_trace(records: list[dict]) -> tuple[list[str], list[dict], dict]:
    """``(control_log, decision_records, summary)`` from loaded trace records."""
    control_log = [r["entry"] for r in records if r.get("type") == "action"]
    decisions = [r for r in records if r.get("type") == "decision"]
    summary = next((r for r in records if r.get("type") == "summary"), {})
    return control_log, decisions, summary


def _timeline_span(path: Path) -> tuple[int, float | None]:
    """``(sample_count, last_time)`` of a timeline JSONL export."""
    count = 0
    last: float | None = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        count += 1
        last = json.loads(line).get("t", last)
    return count, last


def cmd_summarize(out_dir: Path, slack_seconds: float) -> int:
    trace_path = out_dir / TRACE_FILE
    if not trace_path.is_file():
        print(f"error: {trace_path} not found", file=sys.stderr)
        return 1
    records = load_trace(trace_path)
    header = records[0]
    control_log, decisions, summary = _split_trace(records)
    print(f"run artifacts in {out_dir}/ (schema {header.get('schema')})")
    print(
        f"  {header.get('actions', 0)} actions, "
        f"{header.get('decisions', 0)} decisions, "
        f"{header.get('telemetry', 0)} telemetry series"
    )
    for field in ("frames_generated", "frames_scored", "frames_dropped", "control_ticks"):
        if summary.get(field) is not None:
            print(f"  {field}: {summary[field]}")

    timeline_path = out_dir / TIMELINE_FILE
    horizon: float | None = None
    if timeline_path.is_file():
        count, horizon = _timeline_span(timeline_path)
        print(f"  timeline: {count} samples, horizon t={horizon:g}")

    alerts_path = out_dir / ALERTS_FILE
    if not alerts_path.is_file():
        print("  alerts: no alerts.jsonl exported")
        return 0
    log = load_alert_log(alerts_path)
    print(f"  {log.summary()}")
    reports = incident_reports(
        log,
        decision_records=decisions,
        control_log=control_log,
        horizon=horizon,
        slack_seconds=slack_seconds,
    )
    if not reports:
        print("  incidents: none")
        return 0
    print(f"  incidents: {len(reports)}")
    print()
    for report in reports:
        sys.stdout.write(report.to_markdown())
        print()
    return 0


def cmd_alerts(out_dir: Path) -> int:
    alerts_path = out_dir / ALERTS_FILE
    if not alerts_path.is_file():
        print(f"error: {alerts_path} not found", file=sys.stderr)
        return 1
    log = load_alert_log(alerts_path)
    print(log.summary())
    for event in log.events:
        print(
            f"  t={event.time:8.3f} {event.state:<8} {event.rule} "
            f"on {event.source} [{event.severity}] "
            f"value={event.value:.4g} threshold={event.threshold:g}"
        )
    return 0


def cmd_explain(out_dir: Path, action_seq: int) -> int:
    trace_path = out_dir / TRACE_FILE
    if not trace_path.is_file():
        print(f"error: {trace_path} not found", file=sys.stderr)
        return 1
    records = load_trace(trace_path)
    action = next(
        (r for r in records if r.get("type") == "action" and r.get("seq") == action_seq),
        None,
    )
    try:
        decision = explain_action(records, action_seq)
    except IndexError:
        total = sum(1 for r in records if r.get("type") == "action")
        print(
            f"error: no action with seq={action_seq} (trace has {total})",
            file=sys.stderr,
        )
        return 1
    except KeyError:
        print(f"action {action_seq}: {action['entry']}")
        print("no decision record claims this action (the trace lacks its decision line)")
        return 1
    print(f"action {action_seq}: {action['entry']}")
    where = decision.get("node") or "cluster"
    print(
        f"decided by {decision.get('controller')}/{decision.get('kind')} "
        f"on {where} at tick {decision.get('tick')} (t={decision.get('t'):g})"
    )
    inputs = decision.get("inputs") or {}
    if inputs:
        print("inputs:")
        for name, value in sorted(inputs.items()):
            print(f"  {name} = {value:g}")
    gates = decision.get("gates") or {}
    if gates:
        print("gates:")
        for name, value in sorted(gates.items()):
            print(f"  {name} = {value}")
    candidates = decision.get("candidates") or []
    if candidates:
        print("candidates (ranked, * = chosen):")
        for candidate in candidates:
            mark = "*" if candidate.get("chosen") else " "
            detail = candidate.get("detail") or {}
            extra = (
                " (" + ", ".join(f"{k}={v:.4g}" for k, v in sorted(detail.items())) + ")"
                if detail
                else ""
            )
            print(f" {mark} {candidate.get('id')}: score={candidate.get('score'):.6g}{extra}")
    siblings = [s for s in decision.get("action_seqs", []) if s != action_seq]
    if siblings:
        print(f"sibling actions from the same decision: {siblings}")
    if decision.get("reason"):
        print(f"reason: {decision['reason']}")
    return 0


def cmd_events(out_dir: Path, worst: int) -> int:
    log_path = out_dir / DELIVERY_LOG_FILE
    if not log_path.is_file():
        print(f"error: {log_path} not found", file=sys.stderr)
        return 1
    entries = [
        json.loads(line)
        for line in log_path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not entries:
        print(f"error: {log_path} is empty", file=sys.stderr)
        return 1

    by_state: dict[str, int] = {}
    for entry in entries:
        by_state[entry["state"]] = by_state.get(entry["state"], 0) + 1
    retries = sum(max(0, entry["attempts"] - 1) for entry in entries)
    duped = sum(entry["dup_suppressed"] for entry in entries)
    latencies = sorted(
        entry["latency"] for entry in entries if entry["delivered_at"] is not None
    )

    states = ", ".join(f"{state}={count}" for state, count in sorted(by_state.items()))
    print(f"{len(entries)} event records: {states}")
    print(f"retries {retries} | duplicate deliveries suppressed {duped}")
    if latencies:
        p50 = nearest_rank(latencies, 0.50)
        p95 = nearest_rank(latencies, 0.95)
        p99 = nearest_rank(latencies, 0.99)
        print(
            f"delivery latency over {len(latencies)} delivered: "
            f"p50 {p50 * 1e3:.1f} ms | p95 {p95 * 1e3:.1f} ms | p99 {p99 * 1e3:.1f} ms"
        )
    else:
        print("no record was delivered")

    # Worst cameras: rank by slowest delivery, with undelivered records
    # (dead letters, overflow drops) sorting above any finite latency.
    per_camera: dict[str, dict] = {}
    for entry in entries:
        stats = per_camera.setdefault(
            entry["camera"],
            {"records": 0, "retries": 0, "undelivered": 0, "worst": 0.0},
        )
        stats["records"] += 1
        stats["retries"] += max(0, entry["attempts"] - 1)
        if entry["delivered_at"] is None:
            stats["undelivered"] += 1
        else:
            stats["worst"] = max(stats["worst"], entry["latency"])
    ranked = sorted(
        per_camera.items(),
        key=lambda item: (-item[1]["undelivered"], -item[1]["worst"], item[0]),
    )
    print(f"worst cameras (top {min(worst, len(ranked))} of {len(ranked)}):")
    for camera, stats in ranked[:worst]:
        print(
            f"  {camera}: {stats['records']} records, "
            f"{stats['retries']} retries, {stats['undelivered']} undelivered, "
            f"worst latency {stats['worst'] * 1e3:.1f} ms"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fleetctl", description="Inspect a fleet run's exported artifacts."
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path("."),
        help="directory holding control_trace.jsonl / alerts.jsonl / timeline.jsonl",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize", help="run overview + incident reports")
    p_sum.add_argument(
        "--slack-seconds",
        type=float,
        default=0.5,
        help="widen incident windows when joining decisions/actions (default 0.5)",
    )
    sub.add_parser("alerts", help="list every fire/resolve alert transition")
    p_explain = sub.add_parser(
        "explain", help="show the decision record behind one action"
    )
    p_explain.add_argument("action_seq", type=int, help="action sequence number")
    p_events = sub.add_parser(
        "events", help="summarize an exported event-delivery log"
    )
    p_events.add_argument(
        "--worst",
        type=int,
        default=5,
        help="how many worst-delivery cameras to list (default 5)",
    )
    args = parser.parse_args(argv)
    if args.command == "summarize":
        return cmd_summarize(args.dir, args.slack_seconds)
    if args.command == "alerts":
        return cmd_alerts(args.dir)
    if args.command == "events":
        return cmd_events(args.dir, args.worst)
    return cmd_explain(args.dir, args.action_seq)


if __name__ == "__main__":
    raise SystemExit(main())
