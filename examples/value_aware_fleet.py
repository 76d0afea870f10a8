#!/usr/bin/env python3
"""Value-aware control: shed by event value, drift thresholds at runtime.

One overloaded node, every camera a real trained microclassifier, three
control regimes on the same cameras and models:

1. **static** — no control plane: the bounded queues shed whoever overflows;
2. **match-density proxy** — `AdaptiveSheddingController` ranking cameras
   by matched / scored frames per service-second (its default
   `value_signal`);
3. **truth density + drift** — the same controller with
   `value_signal="truth_density"`, ranking by live ground-truth event value
   per service-second, composed with `ThresholdDriftController` nudging
   each camera's frozen calibrated threshold toward its live event rate
   (`SetCameraThreshold` actions, visible in the decision log).

The fleet mixes event-dense retail/intersection cameras with sparse
night/highway cameras, so *who* sheds decides the macro event F1.

Run:  python examples/value_aware_fleet.py
Environment overrides (the parity gate, tools/parity.py, sets small ones):
    VALUE_FLEET_DENSE         dense cameras      (default 6)
    VALUE_FLEET_SPARSE        sparse cameras     (default 6)
    VALUE_FLEET_DURATION      seconds/camera     (default 3.0)
    VALUE_FLEET_TRAIN_FRAMES  training frames    (default 64)
"""

from __future__ import annotations

import os

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    SheddingConfig,
    ThresholdDriftConfig,
    ThresholdDriftController,
)
from repro.fleet import (
    AccuracyConfig,
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    TrainedMicroClassifiers,
)

NUM_DENSE = int(os.environ.get("VALUE_FLEET_DENSE", "6"))
NUM_SPARSE = int(os.environ.get("VALUE_FLEET_SPARSE", "6"))
DURATION_SECONDS = float(os.environ.get("VALUE_FLEET_DURATION", "3.0"))
TRAIN_FRAMES = int(os.environ.get("VALUE_FLEET_TRAIN_FRAMES", "64"))

ACCURACY = AccuracyConfig(train_frames=TRAIN_FRAMES, epochs=2.0)

OVERLOADED = FleetConfig(
    num_workers=2,
    queue_capacity=2,
    drop_policy=DropPolicy.DROP_OLDEST,
    service_time_scale=0.12,
    accuracy_task=ACCURACY.task,
)

WATERMARKS = dict(
    high_watermark_seconds=0.15,
    low_watermark_seconds=0.05,
    cameras_per_step=2,
    quota_ladder=(2, 1),
)


def make_fleet() -> list[CameraSpec]:
    """Half event-dense, half event-sparse — value ranking has a choice."""
    cameras = []
    dense = ("retail_entrance", "busy_intersection")
    for i in range(NUM_DENSE):
        cameras.append(
            CameraSpec(
                camera_id=f"dense{i:02d}",
                width=48,
                height=32,
                frame_rate=10.0,
                num_frames=max(1, int(10.0 * DURATION_SECONDS)),
                scenario=dense[i % 2],
                seed=700 + i,
                event_rate_scale=2.0,
            )
        )
    sparse = ("night_watch", "highway_overpass")
    for i in range(NUM_SPARSE):
        cameras.append(
            CameraSpec(
                camera_id=f"sparse{i:02d}",
                width=48,
                height=32,
                frame_rate=10.0,
                num_frames=max(1, int(10.0 * DURATION_SECONDS)),
                scenario=sparse[i % 2],
                seed=100 + i,
                event_rate_scale=1.0,
            )
        )
    return cameras


def run_regime(models: TrainedMicroClassifiers, loop: ControlLoop | None):
    """One overloaded single-node run; returns (report, loop)."""
    runtime = FleetRuntime(
        make_fleet(), pipeline_factory=models.pipeline_factory(), config=OVERLOADED
    )
    if loop is None:
        return runtime.run(), None
    loop.run_node(runtime)
    return runtime.finalize(), loop


def main() -> None:
    models = TrainedMicroClassifiers(ACCURACY)
    fleet = make_fleet()
    print(
        f"training {len(fleet)} per-camera microclassifiers "
        f"({ACCURACY.train_frames} labelled frames each, task={ACCURACY.task}) ..."
    )

    static, _ = run_regime(models, None)
    print(f"\n--- static (queues shed blindly) ---\n{static.summary()}")

    proxy, _ = run_regime(
        models,
        ControlLoop(
            [AdaptiveSheddingController(SheddingConfig(**WATERMARKS))],
            interval_seconds=0.25,
        ),
    )
    print(f"\n--- shedding by the match-density proxy ---\n{proxy.summary()}")

    truth, loop = run_regime(
        models,
        ControlLoop(
            [
                AdaptiveSheddingController(
                    SheddingConfig(value_signal="truth_density", **WATERMARKS)
                ),
                ThresholdDriftController(
                    ThresholdDriftConfig(min_scored=8, cooldown_ticks=2)
                ),
            ],
            interval_seconds=0.25,
        ),
    )
    print(f"\n--- shedding by truth density + threshold drift ---\n{truth.summary()}")
    drift_lines = [line for line in loop.decision_log if "set_camera_threshold" in line]
    print(f"\nthreshold drift actions ({len(drift_lines)}):")
    for line in drift_lines[:8]:
        print(f"  {line}")

    print(
        f"\nmacro-F1: static {static.accuracy.macro_f1:.3f} "
        f"(drop {static.drop_rate:.1%}) -> proxy "
        f"{proxy.accuracy.macro_f1:.3f} (drop {proxy.drop_rate:.1%}) -> "
        f"truth {truth.accuracy.macro_f1:.3f} (drop {truth.drop_rate:.1%}) | "
        f"trained once, reused {models.cache_hits}x"
    )


if __name__ == "__main__":
    main()
