"""Benchmark: cross-camera batched inference vs per-camera scoring.

The 64-camera / shared-base-DNN scenario is the one the tentpole targets:
every camera sits at the same resolution, so the co-location premise puts
them all on one resident base DNN, and per-camera scoring pays 64 small
``N=1`` NumPy forwards per tick.  The batched path
(:class:`repro.core.batched.BatchedScorer`, ``FleetConfig.batched_scoring``)
must produce a bit-identical :class:`FleetReport` from **full worker-pool
batches** (mean batch size = ``num_workers``) — both are asserted here.  The
wall-clock ratio is recorded, not asserted: it is a host-dependent ratio of
two sub-second timings whose denominator shrinks whenever the per-camera
path gets cheaper; the batched forward's cost is a row of the end-to-end
ledger instead (``nn.batched_forward_s`` / ``nn.mean_batch_size`` on
``edge16_steady``, ``benchmarks/e2e``).  The numbers land in
``BENCH_BATCHED.json`` through the ``perf_records`` fixture.

Also recorded: the per-push pipeline overhead (scoring excluded), guarding
the bind-time state-lookup hoist in ``StreamingPipeline`` against
per-push rescans creeping back in.
"""

from __future__ import annotations

import time

import numpy as np

from repro.fleet.camera import CameraSpec
from repro.fleet.runtime import FleetConfig, FleetRuntime, default_pipeline_factory
from repro.video.frame import Frame

NUM_CAMERAS = 64
NUM_FRAMES = 6
NUM_WORKERS = 8

SCENARIOS = [
    "urban_day",
    "busy_intersection",
    "quiet_residential",
    "night_watch",
    "highway_overpass",
    "retail_entrance",
]

_RESULTS: dict[bool, tuple[object, object, float]] = {}


def shared_dnn_fleet() -> list[CameraSpec]:
    """64 cameras, one resolution: all share a single resident base DNN."""
    return [
        CameraSpec(
            camera_id=f"cam{i:02d}",
            width=48,
            height=32,
            frame_rate=10.0,
            num_frames=NUM_FRAMES,
            scenario=SCENARIOS[i % len(SCENARIOS)],
            seed=i,
        )
        for i in range(NUM_CAMERAS)
    ]


def _run(batched: bool):
    if batched not in _RESULTS:
        runtime = FleetRuntime(
            shared_dnn_fleet(),
            pipeline_factory=default_pipeline_factory(),
            config=FleetConfig(
                num_workers=NUM_WORKERS,
                queue_capacity=8,
                service_time_scale=0.02,
                batched_scoring=batched,
            ),
        )
        started = time.perf_counter()
        report = runtime.run()
        _RESULTS[batched] = (runtime, report, time.perf_counter() - started)
    return _RESULTS[batched]


def _measure_push_overhead() -> float:
    """Mean seconds per push with the base-DNN forward removed.

    Every frame's activations are primed into the extractor cache first, so
    ``push`` pays the microclassifier forward plus bookkeeping (chunking,
    smoothing, eviction, threshold lookups) but never a base-DNN pass — the
    per-push cost the bind-time state-lookup hoist keeps flat.  The
    structural guard (zero ``_states_for`` rescans per push) lives in
    ``tests/core/test_batched_equivalence.py``; this records the wall-clock
    side of the same contract.
    """
    factory = default_pipeline_factory()
    spec = shared_dnn_fleet()[0]
    session = factory(spec)
    rng = np.random.default_rng(0)
    frames = [Frame(i, i / 10.0, rng.random((32, 48, 3))) for i in range(200)]
    for frame in frames:
        session.extractor.prime(frame.index, session.extractor.extract_pixels(frame.pixels))
    started = time.perf_counter()
    for frame in frames:
        session.push(frame)
    return (time.perf_counter() - started) / len(frames)


def test_batched_dispatch_is_bit_identical_and_fills_batches(perf_records):
    """The pin: outputs bit-identical, every batch a full worker-pool window."""
    rt_batched, rep_batched, secs_batched = _run(batched=True)
    rt_scalar, rep_scalar, secs_scalar = _run(batched=False)

    # Bit-identical outputs first — a fast wrong answer is worthless.
    assert rep_batched.cameras.keys() == rep_scalar.cameras.keys()
    for camera_id in rep_batched.cameras:
        assert rep_batched.cameras[camera_id] == rep_scalar.cameras[camera_id], camera_id
    assert rep_batched.telemetry == rep_scalar.telemetry
    assert rep_batched.total_uploaded_bits == rep_scalar.total_uploaded_bits
    for key in rt_batched._states:
        per_mc_b = rt_batched._states[key].session.finish().per_mc
        per_mc_s = rt_scalar._states[key].session.finish().per_mc
        for name in per_mc_b:
            assert np.array_equal(
                per_mc_b[name].probabilities, per_mc_s[name].probabilities
            ), (key, name)

    # Real cross-camera batches formed on the shared base DNN: with one
    # resident base DNN every dispatch window batches whole (deterministic).
    scorer = rt_batched.batched
    assert scorer.frames_batched == rep_batched.frames_scored
    assert scorer.batches_run < scorer.frames_batched
    assert scorer.frames_batched == NUM_WORKERS * scorer.batches_run

    speedup = secs_scalar / secs_batched
    push_overhead = _measure_push_overhead()
    print(
        f"\n=== batched bench: {NUM_CAMERAS} cameras, one resident base DNN ===\n"
        f"per-camera: {secs_scalar:.2f}s | batched: {secs_batched:.2f}s | "
        f"speedup {speedup:.2f}x\n"
        f"{scorer.frames_batched} frames in {scorer.batches_run} batches "
        f"(mean {scorer.frames_batched / scorer.batches_run:.1f}/batch) | "
        f"push overhead {push_overhead * 1e6:.0f}us/frame"
    )
    perf_records["BATCHED"] = {
        "bench": "batched",
        "num_cameras": NUM_CAMERAS,
        "frames_scored": rep_batched.frames_scored,
        "wall_seconds_batched": secs_batched,
        "wall_seconds_per_camera": secs_scalar,
        "speedup": speedup,
        "batches_run": scorer.batches_run,
        "mean_batch_size": scorer.frames_batched / scorer.batches_run,
        "push_overhead_seconds": push_overhead,
        "bit_identical": True,
    }
    # The per-push overhead guard: one push without a base-DNN forward stays
    # far below one frame's full scoring cost (a rescan-per-push regression
    # shows up here long before it shows up in the end-to-end wall clock).
    assert push_overhead < 10e-3, f"push overhead {push_overhead * 1e3:.2f}ms/frame"
