"""Fleet observability plane: tracing, time series, SLOs, and profiling.

Six deterministic modules over the fleet runtime (everything runs on the
simulated clock, so same-seed runs produce bit-identical output):

* :mod:`repro.obs.trace` — frame-lifecycle tracing: a :class:`Tracer`
  samples 1-in-N frames deterministically and records each one's
  ingest→queue→service→upload span tree, exportable as Chrome trace-event
  JSON (Perfetto-loadable);
* :mod:`repro.obs.timeline` — a :class:`MetricsTimeline` scrapes each
  node's :class:`~repro.fleet.telemetry.TelemetryRegistry` at
  control-interval boundaries into labeled series, with Prometheus
  text-exposition and JSONL exporters;
* :mod:`repro.obs.slo` — per-camera frame-freshness and end-to-end latency
  SLOs with error-budget accounting and burn-rate flags, reported once per
  run in the fleet reports;
* :mod:`repro.obs.profile` — per-camera, per-stage service-second
  attribution aggregated from spans into a flamegraph-style table;
* :mod:`repro.obs.alerts` — declarative alert rules (threshold +
  for-duration + severity, value or rate mode, plus SLO burn-rate rules
  derived from :class:`SLOConfig` error budgets) evaluated over timeline
  samples into deterministic fire/resolve events with byte-stable JSONL;
* :mod:`repro.obs.incident` — groups overlapping alerts into incidents and
  joins them with decision provenance records, applied control actions,
  and sampled frame traces into markdown/JSON incident reports.
"""

from repro.obs.alerts import (
    ALERT_SEVERITIES,
    AlertEvent,
    AlertInterval,
    AlertLog,
    AlertRule,
    BurnRateRule,
    delivery_burn_rule,
    evaluate_alerts,
    slo_burn_rule,
)
from repro.obs.incident import (
    Incident,
    IncidentReport,
    correlate_incident,
    group_incidents,
    incident_reports,
)
from repro.obs.profile import FleetProfile, ProfileRow, profile_from_tracer
from repro.obs.slo import CameraSLOStatus, DeliverySLOConfig, SLOConfig, SLOReport, SLOTracker
from repro.obs.timeline import MetricsTimeline, TimelineSample
from repro.obs.trace import FrameTrace, NodeTracer, Span, Tracer

__all__ = [
    "ALERT_SEVERITIES",
    "AlertEvent",
    "AlertInterval",
    "AlertLog",
    "AlertRule",
    "BurnRateRule",
    "CameraSLOStatus",
    "FleetProfile",
    "DeliverySLOConfig",
    "FrameTrace",
    "Incident",
    "IncidentReport",
    "MetricsTimeline",
    "NodeTracer",
    "ProfileRow",
    "SLOConfig",
    "SLOReport",
    "SLOTracker",
    "Span",
    "TimelineSample",
    "Tracer",
    "correlate_incident",
    "delivery_burn_rule",
    "evaluate_alerts",
    "group_incidents",
    "incident_reports",
    "profile_from_tracer",
    "slo_burn_rule",
]
