#!/usr/bin/env python3
"""Multi-tenant edge node: many applications sharing one camera and one base DNN.

This is the scenario that motivates FilterForward's design (paper Section
2.2.3): a single wide-angle camera serves many datacenter applications at
once — pedestrian monitoring, "people wearing red" retail analytics, and a
general vehicle watcher — each installing its own microclassifier on the
edge node.  The base DNN runs once per frame; every microclassifier reuses
its feature maps, so the marginal cost of each extra application is small.

The example also contrasts the deployment's compute and memory against the
naive alternative of running one full MobileNet per application, using the
paper-scale cost and memory models.

Run:  python examples/multi_tenant_edge_node.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MicroClassifierConfig, StreamingPipeline, build_microclassifier
from repro.edge import ConstrainedUplink, EdgeNode, FrameArchive, build_phased_schedule
from repro.features import FeatureExtractor, FeatureMapCrop, build_mobilenet_like
from repro.metrics import bits_to_mbps
from repro.perf import CostModel, MemoryModel, ThroughputModel
from repro.video import make_jackson_like

NUM_FRAMES = 240
WIDTH, HEIGHT = 128, 72
TAP_LAYER = "conv2_2/sep"
UPLINK_KBPS = 250  # the "few hundred kilobits per second" regime (scaled stream)


def build_applications(extractor: FeatureExtractor, crop: FeatureMapCrop) -> list:
    """Install one microclassifier per datacenter application."""
    layer_shape = extractor.layer_shape(TAP_LAYER)
    cropped_shape = extractor.cropped_layer_shape(TAP_LAYER, crop, (HEIGHT, WIDTH))
    rng = np.random.default_rng(0)
    applications = [
        (
            "crosswalk_pedestrians",
            "localized",
            MicroClassifierConfig(
                "crosswalk_pedestrians", TAP_LAYER, crop=crop, threshold=0.6, upload_bitrate=6_000
            ),
            cropped_shape,
        ),
        (
            "people_with_red",
            "windowed",
            MicroClassifierConfig(
                "people_with_red", TAP_LAYER, threshold=0.6, upload_bitrate=8_000
            ),
            layer_shape,
        ),
        (
            "vehicle_watcher",
            "full_frame",
            MicroClassifierConfig(
                "vehicle_watcher", TAP_LAYER, threshold=0.6, upload_bitrate=4_000
            ),
            layer_shape,
        ),
    ]
    return [
        build_microclassifier(architecture, config, shape, rng=rng)
        for _, architecture, config, shape in applications
    ]


def main() -> None:
    print("Generating a Jackson-like traffic-camera stream ...")
    dataset = make_jackson_like(num_frames=NUM_FRAMES, width=WIDTH, height=HEIGHT, seed=7)
    crop = FeatureMapCrop(*dataset.spec.crop)

    print("Building the shared feature extractor and three tenant microclassifiers ...")
    base_dnn = build_mobilenet_like((HEIGHT, WIDTH, 3), alpha=0.25, rng=np.random.default_rng(1))
    extractor = FeatureExtractor(base_dnn, [TAP_LAYER], cache_size=8)
    microclassifiers = build_applications(extractor, crop)

    session = StreamingPipeline(
        extractor, microclassifiers, frame_rate=dataset.test_stream.frame_rate
    )
    node = EdgeNode(
        session,
        uplink=ConstrainedUplink(capacity_bps=UPLINK_KBPS * 1000),
        archive=FrameArchive(capacity_bytes=512 * 1024**2),
    )

    print(f"Filtering {NUM_FRAMES} frames for {len(microclassifiers)} concurrent applications ...")
    report = node.process_stream(dataset.test_stream)
    result = report.pipeline_result

    print("\nPer-application results (untrained demo weights — accuracy is not the point here):")
    for name, mc_result in result.per_mc.items():
        print(
            f"  {name:<24s} matched {mc_result.num_matched_frames:>4d} frames, "
            f"{len(mc_result.events)} events, "
            f"{bits_to_mbps(mc_result.average_bandwidth) * 1000:.1f} kb/s average upload"
        )
    print(
        f"\nUplink: {bits_to_mbps(result.average_uplink_bandwidth) * 1000:.1f} kb/s used of "
        f"{UPLINK_KBPS} kb/s capacity "
        f"(utilization {report.uplink_utilization:.1%}, "
        f"backlog {report.uplink_backlog_seconds:.1f}s)"
    )
    print(f"Archive holds {report.archived_frames} frames for demand-fetch.")

    print("\nCompute sharing (per-frame multiply-adds on this node):")
    costs = {
        "base_dnn": result.base_dnn_multiply_adds_per_frame,
        **result.mc_multiply_adds_per_frame,
    }
    for component, cost in costs.items():
        print(f"  {component:<24s} {cost / 1e6:>8.1f}M")

    print("\nPaper-scale comparison (1920x1080, full-width MobileNet):")
    cost_model = CostModel(resolution=(1920, 1080))
    memory_model = MemoryModel()
    throughput_model = ThroughputModel(cost_model=cost_model, memory_model=memory_model)
    n = len(microclassifiers)
    ff_fps = throughput_model.filterforward_fps(n, "localized")
    naive = memory_model.mobilenets_memory(n)
    ff_memory = memory_model.filterforward_memory(n)
    print(f"  FilterForward with {n} MCs:        {ff_fps:.1f} fps, {ff_memory.gigabytes_used:.1f} GiB")
    print(
        f"  one MobileNet per application:    "
        f"{throughput_model.multiple_mobilenets_fps(n):.1f} fps, {naive.gigabytes_used:.1f} GiB"
    )
    schedule = build_phased_schedule(throughput_model.filterforward_breakdown(n, "localized"))
    print("  phased per-frame schedule:")
    for phase in schedule.phases:
        print(f"    {phase.name:<28s} {phase.duration * 1000:7.1f} ms")


if __name__ == "__main__":
    main()
