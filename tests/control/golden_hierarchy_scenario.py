"""The pinned hierarchical-control scenario behind its golden-trace test.

The flat loop has ``golden_scenario.py``; this is the same idea for the
two-level plane.  Thirteen cameras on three single-worker nodes behind a
work-conserving uplink, dealt round-robin so every 24 fps camera starts on
node0, plus one 24 fps camera that only comes online at t=2.0 — late enough
that moving anything no longer pays back its blackout.  The run exercises
both levels: node-local shedding tightens and relaxes quotas, the
coordinator migrates twice (once warm, once after a cold-start blackout),
holds on "not yet sustained", on both cooldowns and on "no candidate pays
back", and re-weights the uplink once.

Regenerate the golden file (ONLY after an intentional behavior change)::

    PYTHONPATH=src python tests/control/golden_hierarchy_scenario.py tests/data/golden_hierarchy_trace.jsonl
"""

from __future__ import annotations

from repro.control import (
    AdaptiveSheddingController,
    ClusterCoordinator,
    HierarchicalControlPlane,
    MigrationConfig,
    MigrationCostModel,
    SheddingConfig,
    ThresholdDriftController,
)
from repro.control.trace import control_trace_records
from repro.fleet import CameraSpec, ShardedFleetRuntime, ShardingConfig

from golden_scenario import NODE_CONFIG  # the flat golden's single-worker node


def golden_cameras() -> list[CameraSpec]:
    """Round-robin deals every 24 fps camera to node0; cam012 arrives late."""
    cameras = []
    for i in range(12):
        rate = 24.0 if i % 3 == 0 else 2.0
        # node1 is the only node without a resident 48x32 base DNN, so a
        # camera handed to it pays the cold-start blackout.
        width, height = (64, 48) if i % 3 == 1 else (48, 32)
        cameras.append(
            CameraSpec(
                camera_id=f"cam{i:03d}",
                width=width,
                height=height,
                frame_rate=rate,
                num_frames=int(rate * 3.0),
                scenario="urban_day",
                seed=i,
            )
        )
    cameras.append(
        CameraSpec(
            camera_id="cam012",
            width=48,
            height=32,
            frame_rate=24.0,
            num_frames=48,
            scenario="urban_day",
            seed=12,
            start_time=2.0,
        )
    )
    return cameras


def local_controllers(node_id: str):
    return [
        AdaptiveSheddingController(
            SheddingConfig(
                high_watermark_seconds=0.3,
                low_watermark_seconds=0.1,
                cameras_per_step=1,
                quota_ladder=(2,),
            )
        ),
        ThresholdDriftController(),
    ]


def build_hierarchy() -> HierarchicalControlPlane:
    return HierarchicalControlPlane(
        controllers_factory=local_controllers,
        interval_seconds=0.25,
        coordinator=ClusterCoordinator(
            migration_config=MigrationConfig(
                imbalance_threshold=1.1,
                sustain_ticks=2,
                cooldown_ticks=2,
                cost_model=MigrationCostModel(
                    blackout_seconds=0.2, cold_start_seconds=0.2
                ),
            )
        ),
    )


def build_report():
    """One fresh hierarchical cluster run of the pinned scenario."""
    config = ShardingConfig(
        num_nodes=3,
        placement="round_robin",
        total_uplink_bps=100_000.0,
        uplink_sharing="work_conserving",
        node_config=NODE_CONFIG,
    )
    return ShardedFleetRuntime(
        golden_cameras(), config=config, hierarchy=build_hierarchy()
    ).run()


def hierarchy_trace_records(report) -> list[dict]:
    """The control trace plus the per-tick coordination payload sizes.

    ``control_trace_records`` already covers ``control_log``,
    ``decision_records`` and the cluster rollup telemetry; the payload
    series is the one hierarchical output it does not know about.
    """
    return control_trace_records(report) + [
        {"type": "coordination", "payload_bytes": list(report.coordination_payload_bytes)}
    ]


if __name__ == "__main__":
    import sys
    from pathlib import Path

    from repro.control.trace import trace_to_jsonl

    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} <output.jsonl>")
    records = hierarchy_trace_records(build_report())
    Path(sys.argv[1]).write_text(trace_to_jsonl(records), encoding="utf-8")
    print(f"wrote {len(records)} trace records to {sys.argv[1]}")
