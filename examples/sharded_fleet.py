#!/usr/bin/env python3
"""Sharded fleet: 64 cameras across 4 edge nodes behind one datacenter uplink.

The single-node example (``fleet_simulation.py``) shows one constrained box
shedding load; this one shows the cluster-level question — which cameras
should each node host?  The same skewed fleet (frame rates 2/4/24 fps) runs
under all three placement policies:

1. **round_robin** — cameras dealt in index order; load lands unevenly;
2. **load_aware**  — LPT bin-packing on the analytic cost estimate
   (`repro.perf.cost_model` ops/s x frame rate x scenario event density);
3. **resolution_aware** — same-resolution cameras co-located so nearly
   every node holds a single shared base DNN.

All three runs are deterministic and use an identically-sized shared
datacenter uplink (a fresh statically sliced link per run, same
ShardingConfig), so the cluster reports are directly comparable.

Run:  python examples/sharded_fleet.py
Environment overrides (used by the CI smoke step):
    SHARDED_FLEET_CAMERAS   number of cameras  (default 64)
    SHARDED_FLEET_DURATION  seconds per camera (default 3.0)
"""

from __future__ import annotations

import os

from repro.fleet import (
    DropPolicy,
    FleetConfig,
    ShardedFleetRuntime,
    ShardingConfig,
    generate_fleet,
)

NUM_CAMERAS = int(os.environ.get("SHARDED_FLEET_CAMERAS", "64"))
DURATION_SECONDS = float(os.environ.get("SHARDED_FLEET_DURATION", "3.0"))
NUM_NODES = 4


def main() -> None:
    fleet = generate_fleet(
        NUM_CAMERAS,
        seed=7,
        duration_seconds=DURATION_SECONDS,
        resolutions=((64, 48), (80, 48)),
        frame_rates=(2.0, 4.0, 24.0),
    )
    print(
        f"fleet of {len(fleet)} cameras on {NUM_NODES} nodes, "
        f"{DURATION_SECONDS:g}s per camera, skewed frame rates"
    )
    node_config = FleetConfig(
        num_workers=2,
        queue_capacity=8,
        drop_policy=DropPolicy.DROP_OLDEST,
        service_time_scale=0.029,
    )
    for policy in ("round_robin", "load_aware", "resolution_aware"):
        config = ShardingConfig(
            num_nodes=NUM_NODES,
            placement=policy,
            total_uplink_bps=1_000_000.0,
            uplink_allocation="by_cost",
            node_config=node_config,
        )
        report = ShardedFleetRuntime(fleet, config=config).run()
        print(f"\n--- placement: {policy} ---")
        print(report.summary())


if __name__ == "__main__":
    main()
