#!/usr/bin/env python3
"""Incident demo: an alert fires, and the run explains itself.

A 2-node cluster hosts a temporal hotspot: high-rate ``busy_intersection``
cameras (dense events, heavy uploads) concentrated among steady fill
cameras.  The hotspot pushes queue waits over the shedding watermark and
drives the shared uplink hard, so in the same control windows:

* an :class:`~repro.obs.AlertRule` in rate mode fires on the monotonic
  ``uplink.estimated_bits`` counter of the hot node, and
* the shedding controller tightens per-camera quotas, recording a
  :class:`~repro.control.DecisionRecord` — inputs read, candidates ranked,
  watermark gates — for every tighten/tighten_uplink/relax/idle decision.

After the run the demo groups the fired alerts into incidents
(``repro.obs.incident``), joins them with the decision provenance records
and applied actions in the same window, prints the incident report, and
replays one capped camera's action back to the exact decision record that
produced it (the same walk ``tools/fleetctl.py explain`` does).

Everything is simulated-clock deterministic: two runs write bit-identical
``control_trace.jsonl``, ``alerts.jsonl``, ``timeline.jsonl``,
``incidents.json``, and ``incidents.md`` (the ``incident_demo`` entry of
``tools/parity.py`` compares them byte for byte).

Run:  python examples/incident_demo.py
Environment overrides (``tools/parity.py``'s ``incident_demo`` entry sets small ones):
    INCIDENT_DEMO_HOT       hot half-duty cameras   (default 8)
    INCIDENT_DEMO_FILL      steady fill cameras     (default 12)
    INCIDENT_DEMO_DURATION  seconds per camera      (default 3.0)
    INCIDENT_DEMO_OUT       output directory        (default ./incident_out)
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    SheddingConfig,
    control_trace_records,
    explain_action,
    trace_to_jsonl,
)
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    ShardedFleetRuntime,
    ShardingConfig,
)
from repro.obs import AlertRule, MetricsTimeline, incident_reports

NUM_HOT = int(os.environ.get("INCIDENT_DEMO_HOT", "8"))
NUM_FILL = int(os.environ.get("INCIDENT_DEMO_FILL", "12"))
DURATION_SECONDS = float(os.environ.get("INCIDENT_DEMO_DURATION", "3.0"))
OUT_DIR = Path(os.environ.get("INCIDENT_DEMO_OUT", "incident_out"))
NUM_NODES = 2
TOTAL_UPLINK_BPS = 400_000.0
UPLINK_ALERT_BPS = 10_000.0  # per-node upload demand worth paging about

NODE_CONFIG = FleetConfig(
    num_workers=2,
    queue_capacity=4,
    drop_policy=DropPolicy.DROP_OLDEST,
    service_time_scale=2.0,
)


def make_fleet() -> list[CameraSpec]:
    """Dense-event hot cameras plus steady fill — an upload hotspot."""
    half = DURATION_SECONDS / 2.0
    cameras: list[CameraSpec] = []
    for i in range(NUM_HOT):
        late = i % 2 == 1
        cameras.append(
            CameraSpec(
                camera_id=f"hot{i:02d}",
                width=64,
                height=48,
                frame_rate=24.0,
                num_frames=max(1, int(24.0 * half)),
                scenario="busy_intersection",
                seed=100 + i,
                start_time=half if late else 0.0,
            )
        )
    scenarios = ("quiet_residential", "urban_day", "retail_entrance", "night_watch")
    for i in range(NUM_FILL):
        rate = 4.0 if i % 2 == 0 else 2.0
        cameras.append(
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=80,
                height=48,
                frame_rate=rate,
                num_frames=max(1, int(rate * DURATION_SECONDS)),
                scenario=scenarios[i % 4],
                seed=i,
            )
        )
    return cameras


def main() -> None:
    fleet = make_fleet()
    timeline = MetricsTimeline()
    loop = ControlLoop(
        [
            AdaptiveSheddingController(
                SheddingConfig(
                    high_watermark_seconds=0.2,
                    low_watermark_seconds=0.05,
                    cameras_per_step=1,
                    quota_ladder=(2, 1),
                )
            )
        ],
        interval_seconds=0.25,
    )
    uplink_rule = AlertRule(
        name="uplink_demand",
        metric="uplink.estimated_bits",
        threshold=UPLINK_ALERT_BPS,
        mode="rate",  # per-second delta of the monotonic counter
        severity="page",
    )
    runtime = ShardedFleetRuntime(
        fleet,
        config=ShardingConfig(
            num_nodes=NUM_NODES,
            placement="load_aware",
            total_uplink_bps=TOTAL_UPLINK_BPS,
            uplink_allocation="equal",
            node_config=NODE_CONFIG,
        ),
        control_loop=loop,
        timeline=timeline,
        alert_rules=[uplink_rule],
    )
    print(
        f"incident demo: {len(fleet)} cameras on {NUM_NODES} nodes, "
        f"uplink rate alert at {UPLINK_ALERT_BPS / 1e3:g} kbit/s per node"
    )
    report = runtime.run()
    print()
    print(report.summary())

    horizon = timeline.samples[-1].time if len(timeline) else None
    reports = incident_reports(
        report.alerts,
        decision_records=report.decision_records,
        control_log=report.control_log,
        horizon=horizon,
        slack_seconds=2 * loop.interval_seconds,
    )
    print(f"\n{len(report.alerts)} alert transitions -> {len(reports)} incident(s)\n")
    markdown = "".join(r.to_markdown() + "\n" for r in reports)
    sys.stdout.write(markdown)

    # The acceptance check: some incident must tie the fired uplink alert to
    # a shedding decision that actually acted (capped a camera) in-window.
    trace = control_trace_records(report)
    explained = None
    for incident_report in reports:
        if not any(a.rule == uplink_rule.name for a in incident_report.incident.alerts):
            continue
        acting = [
            d for d in incident_report.decisions
            if d.get("actions") and d.get("candidates")
        ]
        # Prefer a tighten (a camera being capped, for compute or for the
        # uplink) over a relax in the window.
        for decision in acting:
            if decision.get("kind", "").startswith("tighten"):
                explained = decision
                break
        if explained is None and acting:
            explained = acting[0]
        if explained:
            break
    if explained is None:
        sys.exit(
            "incident demo failed: no incident correlates the uplink alert "
            "with an acting shedding decision"
        )

    seq = explained["action_seqs"][0]
    provenance = explain_action(trace, seq)
    print(f"replaying action {seq} back through the trace:")
    print(f"  entry:  {report.control_log[seq]}")
    print(
        f"  decided by {provenance['controller']}/{provenance['kind']} on "
        f"{provenance['node']} at t={provenance['t']:g}"
    )
    print(
        "  inputs: "
        + ", ".join(f"{k}={v:.4g}" for k, v in sorted(provenance["inputs"].items()))
    )
    ranked = ", ".join(
        f"{c['id']}={c['score']:.4g}" + ("*" if c["chosen"] else "")
        for c in provenance["candidates"][:6]
    )
    print(f"  candidates: {ranked} (* = chosen)")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "control_trace.jsonl").write_text(trace_to_jsonl(trace), encoding="utf-8")
    report.alerts.write_jsonl(OUT_DIR / "alerts.jsonl")
    timeline.write_jsonl(OUT_DIR / "timeline.jsonl")
    (OUT_DIR / "incidents.json").write_text(
        json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (OUT_DIR / "incidents.md").write_text(markdown, encoding="utf-8")
    print(
        f"\nwrote control_trace.jsonl, alerts.jsonl, timeline.jsonl, "
        f"incidents.json, incidents.md to {OUT_DIR}/ "
        f"(inspect with: python tools/fleetctl.py --dir {OUT_DIR} summarize)"
    )


if __name__ == "__main__":
    main()
