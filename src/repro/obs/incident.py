"""Incident correlation: alerts joined with the decisions behind them.

An alert says a symptom crossed a line; a decision record says what the
control plane saw and did.  This module joins the two: overlapping
:class:`~repro.obs.alerts.AlertInterval`\\ s group into :class:`Incident`\\ s
(:func:`group_incidents`), and :func:`correlate_incident` pulls everything
that happened inside an incident's window — decision provenance records,
applied control-log actions, and sampled frame traces — into one
:class:`IncidentReport` with deterministic markdown and JSON renderings:
"uplink burn-rate fired on node1 → adaptive_shedding ranked cam017, cam031 →
migration held for cooldown", straight from one run's artifacts.

Everything here is duck-typed over plain data — decision records are the
JSON-ready dicts :class:`~repro.control.loop.ControlLoop` emits, control-log
entries are the ``t=<seconds> <controller>: <action>`` strings, and frame
traces only need ``arrival``/``end`` — so the module (and the
``tools/fleetctl.py`` CLI built on it) works identically on live reports
and on artifacts re-loaded from disk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.obs.alerts import AlertInterval, AlertLog

__all__ = [
    "Incident",
    "IncidentReport",
    "group_incidents",
    "correlate_incident",
    "incident_reports",
]

_SEVERITY_ORDER = {"info": 0, "warn": 1, "page": 2}
_ACTION_TIME = re.compile(r"^t=([0-9.]+)\s")


@dataclass(frozen=True)
class Incident:
    """One group of time-overlapping alert intervals."""

    incident_id: str
    alerts: tuple[AlertInterval, ...]
    start: float
    end: float | None  # None = at least one alert never resolved

    @property
    def severity(self) -> str:
        """The worst severity among the grouped alerts."""
        return max(
            (a.severity for a in self.alerts),
            key=lambda s: _SEVERITY_ORDER.get(s, -1),
            default="info",
        )

    @property
    def sources(self) -> list[str]:
        """Distinct alerting sources, sorted."""
        return sorted({a.source for a in self.alerts})

    def window(self, horizon: float | None = None) -> tuple[float, float]:
        """The incident's closed time window; open ends clamp to ``horizon``."""
        end = self.end
        if end is None:
            end = horizon if horizon is not None else float("inf")
        return (self.start, end)


def group_incidents(alerts: AlertLog | Sequence[AlertInterval]) -> list[Incident]:
    """Merge time-overlapping alert intervals into incidents.

    Intervals are unioned transitively: A overlapping B and B overlapping C
    puts all three in one incident even if A and C never overlap.  Incident
    ids are ``INC-001``... in start order, so two identical runs name their
    incidents identically.
    """
    intervals = alerts.intervals() if isinstance(alerts, AlertLog) else list(alerts)
    intervals = sorted(intervals, key=lambda i: (i.start, i.rule, i.source))
    groups: list[list[AlertInterval]] = []
    for interval in intervals:
        if groups and any(interval.overlaps(member) for member in groups[-1]):
            groups[-1].append(interval)
        else:
            groups.append([interval])
    incidents: list[Incident] = []
    for index, group in enumerate(groups, 1):
        ends = [member.end for member in group]
        incidents.append(
            Incident(
                incident_id=f"INC-{index:03d}",
                alerts=tuple(group),
                start=min(member.start for member in group),
                end=None if any(end is None for end in ends) else max(ends),
            )
        )
    return incidents


@dataclass(frozen=True)
class IncidentReport:
    """One incident joined with everything the run did inside its window."""

    incident: Incident
    decisions: tuple[dict, ...] = ()
    actions: tuple[str, ...] = ()
    traces: tuple[object, ...] = ()

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (frame traces reduce to counts)."""
        end = self.incident.end
        return {
            "id": self.incident.incident_id,
            "severity": self.incident.severity,
            "start": self.incident.start,
            "end": end,
            "sources": self.incident.sources,
            "alerts": [
                {
                    "rule": a.rule,
                    "source": a.source,
                    "severity": a.severity,
                    "start": a.start,
                    "end": a.end,
                }
                for a in self.incident.alerts
            ],
            "decisions": [dict(d) for d in self.decisions],
            "actions": list(self.actions),
            "sampled_frames": len(self.traces),
        }

    def to_markdown(self) -> str:
        """A deterministic human-readable incident writeup."""
        incident = self.incident
        end = "unresolved" if incident.end is None else f"t={incident.end:.3f}"
        lines = [
            f"## {incident.incident_id} [{incident.severity}] "
            f"t={incident.start:.3f} .. {end}",
            "",
            "### Alerts",
        ]
        for alert in incident.alerts:
            until = "unresolved" if alert.end is None else f"{alert.end:.3f}"
            lines.append(
                f"- `{alert.rule}` on `{alert.source}` [{alert.severity}] "
                f"fired t={alert.start:.3f}, resolved {until}"
            )
        lines.append("")
        lines.append("### Control decisions in window")
        if not self.decisions:
            lines.append("- none recorded")
        for decision in self.decisions:
            where = decision.get("node") or "cluster"
            head = (
                f"- t={decision.get('t', 0.0):.3f} `{decision.get('controller')}`/"
                f"{decision.get('kind')} on `{where}`"
            )
            acts = decision.get("actions") or []
            if acts:
                head += ": " + "; ".join(acts)
            elif decision.get("reason"):
                head += f" — {decision['reason']}"
            lines.append(head)
            candidates = decision.get("candidates") or []
            if candidates:
                ranked = ", ".join(
                    f"{c.get('id')}={c.get('score'):.4g}"
                    + ("*" if c.get("chosen") else "")
                    for c in candidates[:6]
                )
                more = f" (+{len(candidates) - 6} more)" if len(candidates) > 6 else ""
                lines.append(f"  - candidates: {ranked}{more} (* = chosen)")
            inputs = decision.get("inputs") or {}
            if inputs:
                lines.append(
                    "  - inputs: "
                    + ", ".join(f"{k}={v:.4g}" for k, v in sorted(inputs.items()))
                )
        lines.append("")
        lines.append("### Applied actions in window")
        if not self.actions:
            lines.append("- none")
        for action in self.actions:
            lines.append(f"- {action}")
        if self.traces:
            lines.append("")
            lines.append(f"### Sampled frames in window: {len(self.traces)}")
        return "\n".join(lines) + "\n"


def _action_time(entry: str) -> float | None:
    match = _ACTION_TIME.match(entry)
    return float(match.group(1)) if match else None


def correlate_incident(
    incident: Incident,
    decision_records: Sequence[dict] = (),
    control_log: Sequence[str] = (),
    frame_traces: Sequence[object] = (),
    horizon: float | None = None,
    slack_seconds: float = 0.0,
) -> IncidentReport:
    """Join one incident with the run data inside its (padded) window.

    ``slack_seconds`` widens the window on both sides — the decision that
    *caused* an alert often lands one control tick before the alert's first
    breached scrape.  Frame traces join on overlap: a frame whose
    ``arrival``..``end`` span touches the window counts.
    """
    start, end = incident.window(horizon)
    start -= slack_seconds
    end += slack_seconds
    decisions = tuple(
        record
        for record in decision_records
        if start <= record.get("t", 0.0) <= end
    )
    actions = tuple(
        entry
        for entry in control_log
        if (t := _action_time(entry)) is not None and start <= t <= end
    )
    traces = tuple(
        trace
        for trace in frame_traces
        if getattr(trace, "arrival", None) is not None
        and trace.arrival <= end
        and getattr(trace, "end", trace.arrival) >= start
    )
    return IncidentReport(
        incident=incident, decisions=decisions, actions=actions, traces=traces
    )


def incident_reports(
    alerts: AlertLog,
    decision_records: Sequence[dict] = (),
    control_log: Sequence[str] = (),
    frame_traces: Sequence[object] = (),
    horizon: float | None = None,
    slack_seconds: float = 0.0,
) -> list[IncidentReport]:
    """Group, correlate, and report every incident of one run."""
    return [
        correlate_incident(
            incident,
            decision_records=decision_records,
            control_log=control_log,
            frame_traces=frame_traces,
            horizon=horizon,
            slack_seconds=slack_seconds,
        )
        for incident in group_incidents(alerts)
    ]
