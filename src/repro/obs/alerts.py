"""Declarative alerting over metric timelines: threshold, duration, burn rate.

The :class:`~repro.obs.timeline.MetricsTimeline` gives every run a time
axis; this module adds the operator's layer on top — *rules* evaluated at
each scrape (control-interval boundaries), producing deterministic
fire/resolve :class:`AlertEvent`\\ s.  Two rule families ship:

* :class:`AlertRule` — compare one flattened timeline metric against a
  threshold, either its raw value (``mode="value"``) or its per-second
  rate of change between consecutive scrapes (``mode="rate"`` — what a
  monotonic counter such as ``uplink.estimated_bits`` needs to both fire
  and resolve);
* :class:`BurnRateRule` — the SRE error-budget view derived from
  :class:`~repro.obs.slo.SLOConfig`: windowed SLO violations over windowed
  frames, divided by the allowed violation fraction ``1 - objective``.
  :func:`slo_burn_rule` builds one straight from a config, at the burn-rate
  multiple that flags a camera burning.

Rules carry *for-duration* hysteresis (``for_seconds``): the condition must
hold continuously that long before the alert fires, so a metric flapping
around the threshold between scrapes never pages.  Evaluation
(:func:`evaluate_alerts`) is a pure function of the timeline — same samples,
same rules, byte-identical :meth:`AlertLog.to_jsonl` — and the resulting
:class:`AlertLog` is surfaced on :class:`~repro.fleet.runtime.FleetReport`
and :class:`~repro.fleet.sharding.ShardedFleetReport`, and consumed by
:mod:`repro.obs.incident` for incident grouping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.obs.slo import _BURN_ALERT, DeliverySLOConfig, SLOConfig
from repro.obs.timeline import MetricsTimeline, TimelineSample

__all__ = [
    "ALERT_SEVERITIES",
    "AlertRule",
    "BurnRateRule",
    "slo_burn_rule",
    "delivery_burn_rule",
    "AlertEvent",
    "AlertInterval",
    "AlertLog",
    "evaluate_alerts",
]

ALERT_SEVERITIES = ("info", "warn", "page")
_OPS = ("gt", "ge", "lt", "le")
_MODES = ("value", "rate")


def _check_common(name: str, severity: str, for_seconds: float) -> None:
    if not name:
        raise ValueError("rule name must be non-empty")
    if severity not in ALERT_SEVERITIES:
        raise ValueError(
            f"Unknown severity {severity!r}; expected one of {ALERT_SEVERITIES}"
        )
    if not for_seconds >= 0:  # written so that a NaN fails it
        raise ValueError("for_seconds must be non-negative")


@dataclass(frozen=True)
class AlertRule:
    """One threshold rule over a flattened timeline metric.

    ``mode="value"`` compares the metric's sampled value; ``mode="rate"``
    compares its per-second delta between this scrape and the source's
    previous one (the first scrape of a source has no rate and is skipped,
    and a counter restart — negative delta, e.g. after a migration's
    detach/attach — is clamped to zero rate rather than reported negative).
    Empty ``sources`` means the rule watches every scraped source.
    """

    name: str
    metric: str
    threshold: float
    op: str = "gt"
    for_seconds: float = 0.0
    severity: str = "warn"
    mode: str = "value"
    sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_common(self.name, self.severity, self.for_seconds)
        if math.isnan(self.threshold):
            raise ValueError("threshold must be a number, not NaN")
        if self.op not in _OPS:
            raise ValueError(f"Unknown op {self.op!r}; expected one of {_OPS}")
        if self.mode not in _MODES:
            raise ValueError(f"Unknown mode {self.mode!r}; expected one of {_MODES}")

    def evaluate(
        self, history: Sequence[TimelineSample], sample: TimelineSample
    ) -> float | None:
        """The value this rule judges at ``sample`` (None = no data yet)."""
        if self.metric not in sample.values:
            return None
        if self.mode == "value":
            return sample.values[self.metric]
        for previous in reversed(history):
            if self.metric in previous.values:
                dt = sample.time - previous.time
                if dt <= 0:
                    return None
                delta = sample.values[self.metric] - previous.values[self.metric]
                # Rate rules watch monotonic counters; a negative delta means
                # the counter restarted (camera detach/attach during a
                # migration re-creates per-camera series from zero).  Clamp
                # the restart sample to zero rate instead of reporting a
                # large negative rate that spuriously resolves (op=gt) or
                # fires (op=lt) the alert.
                return max(0.0, delta) / dt
        return None

    def breached(self, value: float) -> bool:
        """Whether ``value`` violates the threshold."""
        if self.op == "gt":
            return value > self.threshold
        if self.op == "ge":
            return value >= self.threshold
        if self.op == "lt":
            return value < self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class BurnRateRule:
    """Error-budget burn rate over a sliding simulated-time window.

    Burn is the windowed violation fraction over the allowed fraction:
    ``(Δviolations / Δframes) / (1 - objective)`` where the deltas span
    ``window_seconds`` of timeline history (counters before the run start
    are zero).  A window with no new frames burns nothing — a camera with
    zero budget consumed never fires.  Burn > ``threshold`` breaches; 1.0
    spends the budget exactly at the sustainable rate.
    """

    name: str
    objective: float
    threshold: float
    window_seconds: float
    violations_metric: str = "slo.freshness_violations"
    frames_metric: str = "frames.generated"
    for_seconds: float = 0.0
    severity: str = "page"
    sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_common(self.name, self.severity, self.for_seconds)
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        # Written so that a NaN fails each guard.
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not self.window_seconds > 0:
            raise ValueError("window_seconds must be positive")

    def evaluate(
        self, history: Sequence[TimelineSample], sample: TimelineSample
    ) -> float | None:
        """The burn rate at ``sample`` (None before the metrics exist)."""
        if self.frames_metric not in sample.values:
            return None
        base_frames = 0.0
        base_violations = 0.0
        cutoff = sample.time - self.window_seconds
        for previous in reversed(history):
            if previous.time >= cutoff:
                continue
            base_frames = previous.values.get(self.frames_metric, 0.0)
            base_violations = previous.values.get(self.violations_metric, 0.0)
            break
        frames = sample.values[self.frames_metric] - base_frames
        if frames <= 0:
            return 0.0
        violations = sample.values.get(self.violations_metric, 0.0) - base_violations
        return (violations / frames) / (1.0 - self.objective)

    def breached(self, value: float) -> bool:
        """Whether the burn rate exceeds the allowed multiple."""
        return value > self.threshold


def slo_burn_rule(
    config: SLOConfig,
    window_seconds: float = 2.0,
    name: str = "slo_freshness_burn",
    for_seconds: float = 0.0,
    severity: str = "page",
    sources: Sequence[str] = (),
) -> BurnRateRule:
    """A freshness burn-rate rule derived from one SLO config.

    Inherits the config's ``objective`` and pages at the burn-rate multiple
    that flags a camera burning, so the timeline-side alert agrees with the
    runtime's per-camera :attr:`~repro.obs.slo.CameraSLOStatus.burning` flag
    about what "too fast" means.
    """
    return BurnRateRule(
        name=name,
        objective=config.objective,
        threshold=_BURN_ALERT,
        window_seconds=window_seconds,
        for_seconds=for_seconds,
        severity=severity,
        sources=tuple(sources),
    )


def delivery_burn_rule(
    config: DeliverySLOConfig,
    window_seconds: float = 2.0,
    name: str = "events_ack_latency_burn",
    for_seconds: float = 0.0,
    severity: str = "page",
    sources: Sequence[str] = (),
) -> BurnRateRule:
    """An ack-latency burn-rate rule for the event delivery plane.

    Burns when published event records miss the delivery SLO
    (``events.ack_violations`` — delivered too late, or never) faster than
    twice ``(1 - objective)`` of the publish rate
    (``events.published``) allows.  Pair with an
    :class:`~repro.events.plane.EventDeliveryPlane` configured with the
    same :class:`~repro.obs.slo.DeliverySLOConfig` so the counters exist.
    """
    return BurnRateRule(
        name=name,
        objective=config.objective,
        threshold=_BURN_ALERT,
        window_seconds=window_seconds,
        for_seconds=for_seconds,
        severity=severity,
        sources=tuple(sources),
        violations_metric="events.ack_violations",
        frames_metric="events.published",
    )


@dataclass(frozen=True)
class AlertEvent:
    """One state transition of one rule on one source."""

    time: float
    rule: str
    source: str
    state: str  # "firing" | "resolved"
    severity: str
    value: float
    threshold: float

    def to_dict(self) -> dict:
        """Canonical JSON-ready form."""
        return {
            "t": self.time,
            "rule": self.rule,
            "source": self.source,
            "state": self.state,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class AlertInterval:
    """One contiguous firing stretch of one rule on one source."""

    rule: str
    source: str
    severity: str
    start: float
    end: float | None  # None = still firing at end of run

    @property
    def resolved(self) -> bool:
        """Whether the alert resolved before the run ended."""
        return self.end is not None

    def overlaps(self, other: "AlertInterval") -> bool:
        """Whether two intervals share any instant (open-ended = forever)."""
        self_end = float("inf") if self.end is None else self.end
        other_end = float("inf") if other.end is None else other.end
        return self.start <= other_end and other.start <= self_end


@dataclass(frozen=True)
class AlertLog:
    """Every alert transition of one run, in deterministic order."""

    events: tuple[AlertEvent, ...] = ()

    def __len__(self) -> int:
        return len(self.events)

    @property
    def fired(self) -> int:
        """Count of firing transitions."""
        return sum(1 for e in self.events if e.state == "firing")

    @property
    def active(self) -> list[tuple[str, str]]:
        """``(rule, source)`` pairs still firing after the last event."""
        state: dict[tuple[str, str], bool] = {}
        for event in self.events:
            state[(event.rule, event.source)] = event.state == "firing"
        return sorted(key for key, firing in state.items() if firing)

    def intervals(self) -> list[AlertInterval]:
        """Pair firing/resolved events into intervals (start order)."""
        open_events: dict[tuple[str, str], AlertEvent] = {}
        intervals: list[AlertInterval] = []
        for event in self.events:
            key = (event.rule, event.source)
            if event.state == "firing":
                open_events[key] = event
            elif key in open_events:
                fired = open_events.pop(key)
                intervals.append(
                    AlertInterval(
                        rule=fired.rule,
                        source=fired.source,
                        severity=fired.severity,
                        start=fired.time,
                        end=event.time,
                    )
                )
        for fired in open_events.values():
            intervals.append(
                AlertInterval(
                    rule=fired.rule,
                    source=fired.source,
                    severity=fired.severity,
                    start=fired.time,
                    end=None,
                )
            )
        return sorted(intervals, key=lambda i: (i.start, i.rule, i.source))

    def summary(self) -> str:
        """A one-line human-readable alert standing."""
        if not self.events:
            return "alerts: none fired"
        return (
            f"alerts: {self.fired} fired, "
            f"{self.fired - len(self.active)} resolved, "
            f"{len(self.active)} still firing"
        )

    # -- exporters -------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per event, sorted keys — byte-stable across runs."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for event in self.events
        )

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the JSONL dump to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path


def evaluate_alerts(timeline: MetricsTimeline, rules: Sequence) -> AlertLog:
    """Run every rule over the timeline and return the transition log.

    A pure function of the samples: per ``(rule, source)`` the rule's value
    is judged at each of the source's scrapes in time order; a breach must
    hold continuously for the rule's ``for_seconds`` before the alert fires,
    and the first non-breach sample after a fire resolves it.  Samples where
    the rule has no data (metric absent, no previous scrape for a rate)
    leave both the pending timer and the firing state untouched.  Events are
    globally ordered by ``(time, rule, source, state)``.
    """
    by_source: dict[str, list[TimelineSample]] = {}
    for sample in timeline.samples:
        by_source.setdefault(sample.source, []).append(sample)
    events: list[AlertEvent] = []
    for rule in rules:
        sources = list(rule.sources) if rule.sources else sorted(by_source)
        for source in sources:
            history: list[TimelineSample] = []
            pending_since: float | None = None
            firing = False
            for sample in by_source.get(source, []):
                value = rule.evaluate(history, sample)
                history.append(sample)
                if value is None:
                    continue
                if rule.breached(value):
                    if firing:
                        continue
                    if pending_since is None:
                        pending_since = sample.time
                    if sample.time - pending_since >= rule.for_seconds:
                        firing = True
                        events.append(
                            AlertEvent(
                                time=sample.time,
                                rule=rule.name,
                                source=source,
                                state="firing",
                                severity=rule.severity,
                                value=value,
                                threshold=rule.threshold,
                            )
                        )
                else:
                    pending_since = None
                    if firing:
                        firing = False
                        events.append(
                            AlertEvent(
                                time=sample.time,
                                rule=rule.name,
                                source=source,
                                state="resolved",
                                severity=rule.severity,
                                value=value,
                                threshold=rule.threshold,
                            )
                        )
    events.sort(key=lambda e: (e.time, e.rule, e.source, e.state))
    return AlertLog(events=tuple(events))
