#!/usr/bin/env python3
"""Fleet simulation: 32 cameras, one constrained edge node.

The paper's premise is many cameras per edge node; this example runs a
32-camera synthetic fleet — six content scenarios, mixed resolutions and
frame rates — through the streaming fleet runtime in four regimes:

1. **overloaded, drop-oldest** — paper-calibrated service times; the node
   cannot keep up, bounded queues shed stale frames, and telemetry shows
   where the load went;
2. **overloaded + admission control** — a node-wide in-flight budget
   rejects excess frames at the door instead of queueing them to die;
3. **overloaded + per-camera quota** — the same budget with a per-camera
   cap, so no single camera can monopolize it and starve its neighbours
   (watch the fairness line and the ``fairness.starved_cameras`` gauge);
4. **provisioned** — a faster node scores every frame; drop rate is zero
   and the uplink becomes the binding constraint.

Every frame that is scored really runs the NumPy FilterForward pipeline —
only the clock is simulated — so matches, events, and uploaded bits are
true pipeline outputs.

Run:  python examples/fleet_simulation.py
Environment overrides (``tools/parity.py``'s ``fleet_simulation`` entry sets small ones):
    FLEET_SIM_CAMERAS   number of cameras  (default 32)
    FLEET_SIM_DURATION  seconds per camera (default 4.0)
"""

from __future__ import annotations

import os
from collections import Counter

from repro.fleet import DropPolicy, FleetConfig, FleetRuntime, generate_fleet

NUM_CAMERAS = int(os.environ.get("FLEET_SIM_CAMERAS", "32"))
DURATION_SECONDS = float(os.environ.get("FLEET_SIM_DURATION", "4.0"))


def describe_fleet(fleet) -> None:
    scenarios = Counter(spec.scenario for spec in fleet)
    resolutions = Counter(f"{w}x{h}" for (w, h) in (spec.resolution for spec in fleet))
    rates = Counter(f"{spec.frame_rate:g}fps" for spec in fleet)
    print(f"fleet of {len(fleet)} cameras over {DURATION_SECONDS:.0f}s")
    print(f"  scenarios:   {dict(sorted(scenarios.items()))}")
    print(f"  resolutions: {dict(sorted(resolutions.items()))}")
    print(f"  frame rates: {dict(sorted(rates.items()))}")


def run_regime(title: str, fleet, config: FleetConfig) -> None:
    print(f"\n--- {title} ---")
    report = FleetRuntime(fleet, config=config).run()
    print(report.summary())
    waits = report.telemetry.get("latency.queue_wait_seconds")
    if isinstance(waits, dict) and waits["count"]:
        print(
            f"queue wait: mean {waits['mean'] * 1e3:.0f} ms, "
            f"p99 {waits['p99'] * 1e3:.0f} ms over {waits['count']:g} dispatches"
        )
    busiest = max(report.cameras.values(), key=lambda c: c.frames_generated)
    quietest = min(report.cameras.values(), key=lambda c: c.frames_generated)
    for label, cam in (("busiest", busiest), ("quietest", quietest)):
        print(
            f"{label}: {cam.camera_id} ({cam.scenario}, {cam.frame_rate:g}fps) "
            f"scored {cam.frames_scored}/{cam.frames_generated}, "
            f"dropped {cam.frames_dropped}, events {cam.events}"
        )


def main() -> None:
    fleet = generate_fleet(NUM_CAMERAS, seed=0, duration_seconds=DURATION_SECONDS)
    describe_fleet(fleet)

    run_regime(
        "1) overloaded node, drop-oldest queues (paper-calibrated service times)",
        fleet,
        FleetConfig(
            num_workers=4,
            queue_capacity=8,
            drop_policy=DropPolicy.DROP_OLDEST,
            service_time_scale=1.0,
            uplink_capacity_bps=500_000.0,
        ),
    )

    run_regime(
        "2) overloaded node + admission control (max 16 frames in flight)",
        fleet,
        FleetConfig(
            num_workers=4,
            queue_capacity=8,
            drop_policy=DropPolicy.DROP_NEWEST,
            max_in_flight=16,
            service_time_scale=1.0,
            uplink_capacity_bps=500_000.0,
        ),
    )

    run_regime(
        "3) overloaded node + per-camera quota (1 in flight each): less starvation",
        fleet,
        FleetConfig(
            num_workers=4,
            queue_capacity=8,
            drop_policy=DropPolicy.DROP_NEWEST,
            max_in_flight=16,
            per_camera_quota=1,
            service_time_scale=1.0,
            uplink_capacity_bps=500_000.0,
        ),
    )

    run_regime(
        "4) provisioned node (100x faster): zero shedding, uplink-bound",
        fleet,
        FleetConfig(
            num_workers=4,
            queue_capacity=8,
            drop_policy=DropPolicy.DROP_OLDEST,
            service_time_scale=0.01,
            uplink_capacity_bps=500_000.0,
        ),
    )


if __name__ == "__main__":
    main()
