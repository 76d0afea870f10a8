#!/usr/bin/env python3
"""Adaptive fleet: the control plane chasing a mid-run hotspot.

The sharded example (``sharded_fleet.py``) shows that *where* cameras are
placed decides how much a cluster sheds; this one shows what placement alone
cannot fix — load that **moves** mid-run.  A 4-node cluster hosts 16 "hot"
24 fps cameras at half duty (eight live in the first half of the run, eight
in the second) among steady low-rate fill cameras.  Placement policies cost
cameras by rate, resolution, and scenario but not by duty cycle, so every
static configuration parks whole temporal hotspots on a few nodes.

The run compares, on the same fleet and uplink budget:

1. **static best-effort** — load-aware LPT placement, statically sliced
   uplink, no control plane;
2. **adaptive** — the same starting placement plus ``repro.control``:
   a deterministic control loop migrates cameras off the sustained hotspot
   (explicit blackout cost, hysteresis against flapping), gently sheds the
   queue-wait tail via per-camera quotas, and re-weights a work-conserving
   shared uplink toward the nodes that are actually uploading.

Every control decision is printed from the decision log — the whole run is
deterministic, so these lines are bit-identical across invocations.

Run:  python examples/adaptive_fleet.py
Environment overrides (``tools/parity.py``'s ``adaptive_fleet`` entry sets small ones):
    ADAPTIVE_FLEET_HOT       hot half-duty cameras   (default 16)
    ADAPTIVE_FLEET_FILL      steady fill cameras     (default 48)
    ADAPTIVE_FLEET_DURATION  seconds per camera      (default 3.0)
"""

from __future__ import annotations

import os

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    SheddingConfig,
    UplinkShareController,
)
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    ShardedFleetRuntime,
    ShardingConfig,
)

NUM_HOT = int(os.environ.get("ADAPTIVE_FLEET_HOT", "16"))
NUM_FILL = int(os.environ.get("ADAPTIVE_FLEET_FILL", "48"))
DURATION_SECONDS = float(os.environ.get("ADAPTIVE_FLEET_DURATION", "3.0"))
NUM_NODES = 4
TOTAL_UPLINK_BPS = 400_000.0

NODE_CONFIG = FleetConfig(
    num_workers=2,
    queue_capacity=8,
    drop_policy=DropPolicy.DROP_OLDEST,
    service_time_scale=40.0,
    resolution_scaled_service=True,
)


def make_fleet() -> list[CameraSpec]:
    """Hot half-duty cameras plus steady fill, ids arranged to defeat placement."""
    half = DURATION_SECONDS / 2.0
    cameras: list[CameraSpec] = []
    for i in range(NUM_HOT):
        late = i % 4 >= 2
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


def build_control_loop() -> ControlLoop:
    """Shedding + uplink re-weighting + migration, composed in one loop."""
    return ControlLoop(
        [
            AdaptiveSheddingController(
                SheddingConfig(
                    high_watermark_seconds=0.6,
                    low_watermark_seconds=0.2,
                    cameras_per_step=1,
                    quota_ladder=(2,),
                )
            ),
            UplinkShareController(),
            MigrationController(
                MigrationConfig(
                    imbalance_threshold=1.10,
                    sustain_ticks=1,
                    cooldown_ticks=1,
                    camera_cooldown_ticks=12,
                    payback_factor=1.2,
                    cost_model=MigrationCostModel(
                        blackout_seconds=0.10, cold_start_seconds=0.15
                    ),
                )
            ),
        ],
        interval_seconds=0.25,
    )


def main() -> None:
    fleet = make_fleet()
    print(
        f"fleet of {len(fleet)} cameras on {NUM_NODES} nodes: {NUM_HOT} hot half-duty "
        f"24fps cameras + {NUM_FILL} steady fill, {DURATION_SECONDS:g}s per camera"
    )

    static_config = ShardingConfig(
        num_nodes=NUM_NODES,
        placement="load_aware",
        total_uplink_bps=TOTAL_UPLINK_BPS,
        uplink_allocation="equal",
        node_config=NODE_CONFIG,
    )
    static = ShardedFleetRuntime(fleet, config=static_config).run()
    print("\n--- static: load_aware placement, static uplink slices ---")
    print(static.summary())

    adaptive_config = ShardingConfig(
        num_nodes=NUM_NODES,
        placement="load_aware",
        total_uplink_bps=TOTAL_UPLINK_BPS,
        uplink_allocation="equal",
        uplink_sharing="work_conserving",
        node_config=NODE_CONFIG,
    )
    adaptive = ShardedFleetRuntime(
        fleet, config=adaptive_config, control_loop=build_control_loop()
    ).run()
    print("\n--- adaptive: same placement + repro.control ---")
    print(adaptive.summary())

    print("\ncontrol decisions:")
    for line in adaptive.control_log or ["  (control loop saw no reason to act)"]:
        print(f"  {line}")

    print(
        f"\ndrop rate {static.drop_rate:.1%} -> {adaptive.drop_rate:.1%} | "
        f"worst-node wait p99 {static.worst_node_queue_wait_p99 * 1e3:.0f} ms -> "
        f"{adaptive.worst_node_queue_wait_p99 * 1e3:.0f} ms | "
        f"reclaimed uplink {adaptive.reclaimed_uplink_bytes / 1024:.1f} KiB"
    )


if __name__ == "__main__":
    main()
