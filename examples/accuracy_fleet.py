#!/usr/bin/env python3
"""Accuracy fleet: trained per-camera microclassifiers under load shedding.

Every other fleet example reports *queue* metrics — drop rates, waits,
fairness.  This one reports what those drops actually cost: each camera
trains a real microclassifier on its own labelled synthetic clip (the
per-camera seed ladder of ``repro.fleet.accuracy``), the live run is scored
frame-for-frame against ground truth, and the paper's event F1 (Section
4.2) is printed per camera and for the whole fleet.

Three regimes on the same cameras and trained models:

1. **offline** — every frame scored, no fleet: the accuracy ceiling;
2. **provisioned** — a fleet with capacity to keep up (reproduces the
   offline F1 exactly: the streaming fleet plumbing is accuracy-neutral);
3. **overloaded** — the bounded queues shed load and the F1-vs-drop-rate
   cost becomes visible.

Run:  python examples/accuracy_fleet.py
Environment overrides (the parity gate, tools/parity.py, sets small ones):
    ACCURACY_FLEET_CAMERAS       cameras          (default 8)
    ACCURACY_FLEET_DURATION      seconds/camera   (default 3.0)
    ACCURACY_FLEET_TRAIN_FRAMES  training frames  (default 96)
"""

from __future__ import annotations

import os

from repro.fleet import (
    AccuracyConfig,
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    TrainedMicroClassifiers,
    evaluate_offline,
)

NUM_CAMERAS = int(os.environ.get("ACCURACY_FLEET_CAMERAS", "8"))
DURATION_SECONDS = float(os.environ.get("ACCURACY_FLEET_DURATION", "3.0"))
TRAIN_FRAMES = int(os.environ.get("ACCURACY_FLEET_TRAIN_FRAMES", "96"))

SCENARIOS = ("retail_entrance", "busy_intersection", "urban_day", "quiet_residential")

ACCURACY = AccuracyConfig(train_frames=TRAIN_FRAMES, epochs=3.0)


def make_fleet() -> list[CameraSpec]:
    """An event-dense fleet over the four pedestrian-bearing scenarios."""
    rates = (8.0, 10.0, 12.0)
    return [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=48,
            height=32,
            frame_rate=rates[i % 3],
            num_frames=max(1, int(rates[i % 3] * DURATION_SECONDS)),
            scenario=SCENARIOS[i % 4],
            seed=500 + i,
            event_rate_scale=2.0,
        )
        for i in range(NUM_CAMERAS)
    ]


def print_accuracy_table(accuracy) -> None:
    """Per-camera F1/precision/recall, worst camera last."""
    print(f"  {'camera':<8} {'scenario':<18} {'F1':>6} {'prec':>6} {'recall':>6} "
          f"{'events':>6} {'shed':>6}")
    for camera in sorted(accuracy.cameras.values(), key=lambda c: -c.f1):
        print(
            f"  {camera.camera_id:<8} {camera.scenario:<18} {camera.f1:>6.3f} "
            f"{camera.precision:>6.3f} {camera.recall:>6.3f} {camera.num_events:>6d} "
            f"{camera.drop_rate:>6.1%}"
        )


def main() -> None:
    fleet = make_fleet()
    models = TrainedMicroClassifiers(ACCURACY)
    print(
        f"training {len(fleet)} per-camera microclassifiers "
        f"({ACCURACY.architecture}, {ACCURACY.train_frames} labelled frames each, "
        f"task={ACCURACY.task}) ..."
    )

    offline = evaluate_offline(fleet, models)
    print(f"\n--- offline (no fleet, every frame scored) ---\n{offline.summary()}")
    print_accuracy_table(offline)

    provisioned = FleetRuntime(
        fleet,
        pipeline_factory=models.pipeline_factory(),
        config=FleetConfig(
            num_workers=4,
            queue_capacity=4,
            service_time_scale=0.004,
            accuracy_task=ACCURACY.task,
        ),
    ).run()
    print("\n--- provisioned fleet (keeps up) ---")
    print(provisioned.summary())

    overloaded = FleetRuntime(
        fleet,
        pipeline_factory=models.pipeline_factory(),
        config=FleetConfig(
            num_workers=2,
            queue_capacity=2,
            drop_policy=DropPolicy.DROP_OLDEST,
            service_time_scale=0.3,
            accuracy_task=ACCURACY.task,
        ),
    ).run()
    print("\n--- overloaded fleet (bounded queues shed) ---")
    print(overloaded.summary())
    print_accuracy_table(overloaded.accuracy)

    print(
        f"\nmacro-F1: offline {offline.macro_f1:.3f} -> provisioned "
        f"{provisioned.accuracy.macro_f1:.3f} -> overloaded "
        f"{overloaded.accuracy.macro_f1:.3f} "
        f"(drop rate {overloaded.drop_rate:.1%}) | "
        f"trained once, reused {models.cache_hits}x"
    )


if __name__ == "__main__":
    main()
