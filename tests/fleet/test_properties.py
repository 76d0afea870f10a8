"""Property-style seed sweeps: fleet invariants under randomized configs.

Each seed deterministically samples a :class:`FleetConfig` and a small
camera fleet, runs the real runtime, and asserts the conservation and
bounds invariants that must hold for *every* configuration:

* frame conservation — scored + dropped + rejected == generated (nothing
  in flight after a full run), per camera and fleet-wide;
* drop rate in [0, 1] and Jain fairness in (0, 1];
* telemetry counters/histograms agree with the per-camera report sums;
* :class:`StreamingPipeline` stays bit-identical to the batch pipeline
  under randomized smoothing/batching configurations.
"""

import numpy as np
import pytest

from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.pipeline import FilterForwardPipeline, PipelineConfig
from repro.core.streaming import StreamingPipeline
from repro.features.extractor import FeatureExtractor
from repro.fleet.camera import CameraSpec
from repro.fleet.queues import DropPolicy
from repro.fleet.runtime import FleetConfig, FleetRuntime
from repro.video.stream import InMemoryVideoStream

SWEEP_SEEDS = list(range(24))

SCENARIOS = [
    "urban_day",
    "busy_intersection",
    "retail_entrance",
    "quiet_residential",
    "night_watch",
    "highway_overpass",
]


def random_config(rng: np.random.Generator) -> FleetConfig:
    """A valid random FleetConfig drawn from one seeded generator."""
    max_in_flight = int(rng.integers(2, 7)) if rng.random() < 0.5 else None
    per_camera_quota = int(rng.integers(1, 4)) if rng.random() < 0.4 else None
    return FleetConfig(
        num_workers=int(rng.integers(1, 4)),
        queue_capacity=int(rng.integers(1, 6)),
        drop_policy=[DropPolicy.DROP_OLDEST, DropPolicy.DROP_NEWEST, DropPolicy.BLOCK][
            int(rng.integers(3))
        ],
        max_in_flight=max_in_flight,
        per_camera_quota=per_camera_quota,
        service_time_scale=float(rng.uniform(0.05, 1.2)),
        uplink_capacity_bps=float(rng.uniform(5_000.0, 500_000.0)),
    )


def random_fleet(rng: np.random.Generator) -> list[CameraSpec]:
    """A small random fleet (3 cameras, mixed rates and scenarios)."""
    return [
        CameraSpec(
            camera_id=f"cam{i:02d}",
            width=32,
            height=32,
            frame_rate=float(rng.choice([5.0, 10.0, 15.0])),
            num_frames=int(rng.integers(6, 14)),
            scenario=SCENARIOS[int(rng.integers(len(SCENARIOS)))],
            seed=int(rng.integers(2**31)),
            event_rate_scale=float(rng.uniform(0.5, 2.0)),
            start_time=float(rng.uniform(0.0, 0.3)),
        )
        for i in range(3)
    ]


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_fleet_invariants_hold_for_random_configs(seed):
    rng = np.random.default_rng(seed)
    config = random_config(rng)
    cameras = random_fleet(rng)
    report = FleetRuntime(cameras, config=config).run()

    # Frame conservation: a completed run has nothing in flight, so every
    # generated frame was scored, dropped, or rejected — exactly once.
    assert (
        report.frames_scored + report.frames_dropped + report.frames_rejected
        == report.frames_generated
    )
    for camera in report.cameras.values():
        assert (
            camera.frames_scored + camera.frames_dropped + camera.frames_rejected
            == camera.frames_generated
        )

    # Bounds.
    assert 0.0 <= report.drop_rate <= 1.0
    assert 0.0 < report.fairness_index <= 1.0
    assert 0 <= report.starved_cameras <= report.num_cameras

    # Telemetry must agree with the per-camera report sums.
    telemetry = report.telemetry
    cameras_by_id = report.cameras.values()
    assert telemetry["frames.generated"] == sum(c.frames_generated for c in cameras_by_id)
    assert telemetry["frames.scored"] == sum(c.frames_scored for c in cameras_by_id)
    dropped = telemetry.get("frames.dropped_oldest", 0) + telemetry.get(
        "frames.dropped_newest", 0
    )
    assert dropped == sum(c.frames_dropped for c in cameras_by_id)
    assert telemetry.get("frames.rejected", 0) == sum(c.frames_rejected for c in cameras_by_id)

    # Histogram counts: one queue-wait and one service observation per
    # scored frame, across all cameras.
    assert telemetry["latency.queue_wait_seconds"]["count"] == report.frames_scored
    assert telemetry["worker.service_seconds"]["count"] == report.frames_scored


@pytest.mark.parametrize("seed", SWEEP_SEEDS[:8])
def test_block_policy_conserves_every_frame(seed):
    """BLOCK never loses frames: backpressure stalls the source instead."""
    rng = np.random.default_rng(1000 + seed)
    config = FleetConfig(
        num_workers=int(rng.integers(1, 3)),
        queue_capacity=int(rng.integers(1, 4)),
        drop_policy=DropPolicy.BLOCK,
        service_time_scale=float(rng.uniform(0.2, 1.0)),
    )
    report = FleetRuntime(random_fleet(rng), config=config).run()
    assert report.frames_dropped == 0
    assert report.frames_rejected == 0
    assert report.frames_scored == report.frames_generated


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_streaming_matches_batch_on_random_smoothing_configs(seed, tiny_extractor, rng):
    """StreamingPipeline ≡ batch pipeline for randomized (window, votes, batch)."""
    sweep = np.random.default_rng(2000 + seed)
    window = int(sweep.integers(1, 8))
    votes = int(sweep.integers(1, window + 1))
    batch_size = int(sweep.integers(1, 7))
    config = PipelineConfig(
        smoothing_window=window, smoothing_votes=votes, batch_size=batch_size
    )
    architecture = ["localized", "full_frame", "windowed"][int(sweep.integers(3))]
    mc_config = MicroClassifierConfig(
        name=f"sweep{seed}",
        input_layer="conv4_2/sep",
        threshold=float(sweep.uniform(0.3, 0.7)),
    )
    kwargs = {"window": 3} if architecture == "windowed" else {}
    mc = build_microclassifier(
        architecture,
        mc_config,
        tiny_extractor.layer_shape("conv4_2/sep"),
        rng=np.random.default_rng(seed),
        **kwargs,
    )
    frames = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(int(sweep.integers(6, 14)))]
    stream = InMemoryVideoStream.from_arrays(frames, frame_rate=10.0)

    batch_result = FilterForwardPipeline(tiny_extractor, [mc], config=config).process_stream(
        stream
    )
    tiny_extractor.reset_cache()
    streaming_result = StreamingPipeline(
        tiny_extractor, [mc], config=config, frame_rate=stream.frame_rate
    ).process_stream(stream)

    batch_mc = batch_result.per_mc[mc.name]
    streaming_mc = streaming_result.per_mc[mc.name]
    assert np.array_equal(batch_mc.probabilities, streaming_mc.probabilities)
    assert np.array_equal(batch_mc.decisions, streaming_mc.decisions)
    assert np.array_equal(batch_mc.smoothed, streaming_mc.smoothed)
    assert batch_mc.events == streaming_mc.events
    assert batch_result.total_uploaded_bits == streaming_result.total_uploaded_bits
