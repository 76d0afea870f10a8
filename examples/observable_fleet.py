#!/usr/bin/env python3
"""Observable fleet: tracing, metric timelines, and SLOs on a hotspot run.

The adaptive example (``adaptive_fleet.py``) shows the control plane acting;
this one shows how you *see* what any fleet run did, using the observability
plane (``repro.obs``) end to end on a 2-node cluster with a temporal hotspot:

* a :class:`~repro.obs.Tracer` samples frame lifecycles (1-in-N, keyed
  deterministically on camera id + frame index) into span trees —
  ingest -> queue -> per-phase service -> upload — exported as Chrome
  trace-event JSON you can drop into Perfetto or ``chrome://tracing``;
* a :class:`~repro.obs.MetricsTimeline` scrapes every node's telemetry
  registry at each control tick, exported as Prometheus text exposition
  and JSONL;
* per-camera freshness/latency SLOs (:class:`~repro.obs.SLOConfig`) with
  error budgets and burn-rate flags, merged cluster-wide into the report;
* a flamegraph-style service-time profile attributing each camera's
  service seconds to pipeline phases.

Everything is simulated-clock deterministic: rerunning writes bit-identical
trace and timeline files.

Run:  python examples/observable_fleet.py
Writes ``trace.json``, ``metrics.prom``, and ``metrics.jsonl`` to the
output directory.

Environment overrides (``tools/parity.py``'s ``observable_fleet`` entry sets small ones):
    OBSERVABLE_FLEET_HOT       hot half-duty cameras   (default 8)
    OBSERVABLE_FLEET_FILL      steady fill cameras     (default 16)
    OBSERVABLE_FLEET_DURATION  seconds per camera      (default 3.0)
    OBSERVABLE_FLEET_OUT       output directory        (default ./obs_out)
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.control import AdaptiveSheddingController, ControlLoop, SheddingConfig
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    ShardedFleetRuntime,
    ShardingConfig,
)
from repro.obs import MetricsTimeline, SLOConfig, Tracer, profile_from_tracer

NUM_HOT = int(os.environ.get("OBSERVABLE_FLEET_HOT", "8"))
NUM_FILL = int(os.environ.get("OBSERVABLE_FLEET_FILL", "16"))
DURATION_SECONDS = float(os.environ.get("OBSERVABLE_FLEET_DURATION", "3.0"))
OUT_DIR = Path(os.environ.get("OBSERVABLE_FLEET_OUT", "obs_out"))
NUM_NODES = 2
TOTAL_UPLINK_BPS = 400_000.0
SAMPLE_EVERY = 8

NODE_CONFIG = FleetConfig(
    num_workers=2,
    queue_capacity=4,
    drop_policy=DropPolicy.DROP_OLDEST,
    service_time_scale=10.0,
    slo=SLOConfig(
        freshness_target_seconds=0.5,
        latency_target_seconds=0.25,
        objective=0.9,
    ),
)


def make_fleet() -> list[CameraSpec]:
    """Hot half-duty cameras plus steady fill — a moving load hotspot."""
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
    tracer = Tracer(sample_every=SAMPLE_EVERY)
    timeline = MetricsTimeline()
    loop = ControlLoop(
        [
            AdaptiveSheddingController(
                SheddingConfig(
                    high_watermark_seconds=0.6,
                    low_watermark_seconds=0.2,
                    cameras_per_step=1,
                    quota_ladder=(2,),
                )
            )
        ],
        interval_seconds=0.25,
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
        tracer=tracer,
        timeline=timeline,
    )
    print(
        f"observable fleet: {len(fleet)} cameras on {NUM_NODES} nodes, "
        f"1-in-{SAMPLE_EVERY} frame tracing, scraping every "
        f"{loop.interval_seconds:g}s"
    )
    report = runtime.run()
    print()
    print(report.summary())

    traces = tracer.frame_traces()
    print(
        f"\ntraced {len(traces)} frame lifecycles across "
        f"{len(tracer.node_ids)} nodes"
    )
    worst = max(traces, key=lambda t: t.end_to_end_seconds, default=None)
    if worst is not None:
        print(
            f"slowest sampled frame: {worst.camera_id}/frame{worst.frame_index} "
            f"took {worst.end_to_end_seconds * 1e3:.0f} ms ingest->done"
        )

    print("\nper-camera SLO status (worst burn first):")
    for camera in sorted(
        report.slo.cameras, key=lambda c: -c.burn_rate
    )[:5]:
        flag = "BURNING" if camera.burning else "ok"
        print(
            f"  {camera.camera_id:<8} fresh {camera.fresh_fraction:6.1%} | "
            f"budget {camera.error_budget_remaining:+7.1%} | "
            f"burn {camera.burn_rate:5.2f}x [{flag}]"
        )

    profile = profile_from_tracer(tracer)
    print("\nservice-second profile (sampled frames):")
    print(profile.format_table())

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(OUT_DIR / "trace.json")
    timeline.write_prometheus(OUT_DIR / "metrics.prom")
    timeline.write_jsonl(OUT_DIR / "metrics.jsonl")
    print(
        f"\nwrote {OUT_DIR / 'trace.json'} (load in Perfetto), "
        f"{OUT_DIR / 'metrics.prom'}, {OUT_DIR / 'metrics.jsonl'} "
        f"({len(timeline)} samples from {', '.join(timeline.sources)})"
    )


if __name__ == "__main__":
    main()
