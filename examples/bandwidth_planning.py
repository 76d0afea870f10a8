#!/usr/bin/env python3
"""Bandwidth planning: how many cameras fit on one constrained uplink?

The paper's motivating deployment mounts eight 4K cameras on a single
35 Mb/s uplink ($400/month), which is why per-camera bandwidth must be cut
by an order of magnitude.  This example uses the codec simulator and the
Figure 4 machinery to answer the planning question an operator actually has:

    For a target event-detection accuracy, how much uplink does each camera
    need under (a) "compress everything" and (b) FilterForward — and how many
    cameras can therefore share one uplink?

Run:  python examples/bandwidth_planning.py
"""

from __future__ import annotations

from repro.core import TrainingConfig
from repro.experiments.common import ExperimentContext
from repro.experiments.figure4 import (
    default_bitrate_sweep,
    filterforward_upload_bitrate,
    run_figure4,
    summarize_figure4,
)
from repro.metrics import bandwidth_reduction
from repro.video import make_roadway_like

UPLINK_MBPS = 35.0          # the paper's shared uplink
NUM_FRAMES = 480
WIDTH, HEIGHT = 160, 68
TARGET_ACCURACY_FRACTION = 0.9  # "within 10% of the best achievable F1"


def main() -> None:
    print("Setting up the Roadway-like 'people with red' workload ...")
    dataset = make_roadway_like(num_frames=NUM_FRAMES, width=WIDTH, height=HEIGHT, seed=23)
    context = ExperimentContext(dataset, alpha=0.25, seed=0)

    print("Training the localized microclassifier on the edge task ...")
    trained = context.train_microclassifier(
        "localized", training=TrainingConfig(epochs=6, batch_size=16, learning_rate=2e-3, seed=0)
    )
    print(f"  event F1 on held-out video: {trained.event_f1:.3f}")

    print("Sweeping 'compress everything' bitrates and evaluating FilterForward ...")
    result = run_figure4(
        context,
        architecture="localized",
        compress_bitrates=default_bitrate_sweep(context, num_points=6),
        ff_upload_bitrate=filterforward_upload_bitrate(context, paper_bitrate=500_000),
        trained=trained,
    )
    summary = summarize_figure4(result)

    ff = result.filterforward[0]
    best_f1 = max(p.event_f1 for p in result.compress_everything + result.filterforward)
    target_f1 = TARGET_ACCURACY_FRACTION * best_f1

    acceptable = [p for p in result.compress_everything if p.event_f1 >= target_f1]
    if acceptable:
        compress_choice = min(acceptable, key=lambda p: p.paper_equivalent_mbps)
    else:
        compress_choice = max(result.compress_everything, key=lambda p: p.event_f1)

    print("\n--- Per-camera uplink requirement (paper-equivalent Mb/s) ---")
    print(f"  target event F1             : {target_f1:.3f}")
    print(
        f"  compress everything         : {compress_choice.paper_equivalent_mbps:.2f} Mb/s "
        f"(F1 {compress_choice.event_f1:.3f})"
    )
    print(
        f"  FilterForward               : {ff.paper_equivalent_mbps:.2f} Mb/s "
        f"(F1 {ff.event_f1:.3f})"
    )
    reduction = bandwidth_reduction(
        compress_choice.paper_equivalent_mbps, max(ff.paper_equivalent_mbps, 1e-6)
    )
    print(f"  bandwidth reduction         : {reduction:.1f}x  (paper reports 6.3x-13x)")

    cameras_compress = int(UPLINK_MBPS // max(compress_choice.paper_equivalent_mbps, 1e-6))
    cameras_ff = int(UPLINK_MBPS // max(ff.paper_equivalent_mbps, 1e-6))
    print(f"\n--- Cameras per {UPLINK_MBPS:.0f} Mb/s uplink ---")
    print(f"  compress everything         : {max(cameras_compress, 0)} cameras")
    print(f"  FilterForward               : {max(cameras_ff, 0)} cameras")

    print("\nFull sweep (paper-equivalent Mb/s -> event F1):")
    for point in sorted(result.compress_everything, key=lambda p: p.paper_equivalent_mbps):
        print(f"  compress {point.paper_equivalent_mbps:6.2f} Mb/s -> F1 {point.event_f1:.3f}")
    print(f"  filterforward {ff.paper_equivalent_mbps:6.2f} Mb/s -> F1 {ff.event_f1:.3f}")
    print(f"\nheadline summary: {summary}")


if __name__ == "__main__":
    main()
