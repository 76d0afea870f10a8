"""The five workloads of the end-to-end benchmark.

Each workload is a closed, fixed-size batch job: a function
``(seed, size, clock) -> Outcome`` that builds its inputs and program under
``clock.setup()``, does the work under ``clock.run()``, checks its own output
and returns exact counts plus a digest of everything deterministic it
produced.  Only the public ``repro.*`` API is used.  The seed reaches the
program through generated inputs alone (``generate_fleet(seed=...)``,
``CameraSpec.seed``, ``BrokerConfig.seed``, ``np.random.default_rng``).

Why these five: see ``README.md`` and the ``why`` lines in ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    HierarchicalControlPlane,
    MigrationController,
    UplinkShareController,
)
from repro.core import MicroClassifierConfig, PipelineConfig, build_microclassifier
from repro.core.streaming import StreamingPipeline
from repro.edge.uplink import ConstrainedUplink
from repro.events import BrokerConfig, DatacenterIngest, NodeOutbox, OutboxConfig, SimulatedBroker
from repro.features import FeatureExtractor, FeatureMapCrop, build_mobilenet_like
from repro.features.base_dnn import mobilenet_multiply_adds
from repro.fleet import (
    CameraFeed,
    CameraSpec,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
    default_pipeline_factory,
    generate_fleet,
)
from repro.obs.timeline import MetricsTimeline

from spans import Tracer, patched
from stats import percentile, sim_digest

# The fleet's *shape* (each camera's resolution, frame rate, scenario, event
# density, start offset) is the one generate_fleet draws for this seed, on
# every run: it fixes the number of frames offered, so an operation count and
# a rep's cost do not move with --seed.  --seed picks the scene each camera
# films (see fleet_specs).
SHAPE_SEED = 0

# Width multiplier of the base DNN the default per-camera pipelines build.
FLEET_ALPHA = inspect.signature(default_pipeline_factory).parameters["alpha"].default


@dataclass
class Outcome:
    """What one rep did: operations, failures, exact counts, run digest."""

    ops: int
    failed: int
    counts: dict[str, float]
    digest: str


class RepClock:
    """Splits one rep's wall clock into ``setup_s`` and ``run_s``.

    With a tracer attached the two phases are also the rep's root spans, so
    whatever no wrapped ``repro`` boundary covers shows up as their self time.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.run_s = 0.0

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        root = self.tracer.span(f"bench.{name}") if self.tracer is not None else nullcontext()
        started = time.perf_counter()
        with root:
            yield
        elapsed = time.perf_counter() - started
        setattr(self, f"{name}_s", getattr(self, f"{name}_s") + elapsed)

    def setup(self):
        """Everything before the first frame or event can be processed."""
        return self._phase("setup")

    def run(self):
        """The work itself, through report assembly."""
        return self._phase("run")

    @contextmanager
    def charged_to_setup(self, owner: type, attr: str) -> Iterator[None]:
        """Time calls of ``owner.attr`` made during ``run()`` as set-up.

        ``ShardedFleetRuntime.run()`` calls ``FleetRuntime.start()`` itself
        (scene render, model build, heap seeding -- set-up by definition), so
        that one public method is timed and its seconds moved from ``run_s``
        to ``setup_s``.  This timer is the only instrumentation present in an
        untraced rep.
        """
        moved = 0.0

        def timed(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                nonlocal moved
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    moved += time.perf_counter() - started

            return wrapper

        with patched(owner, attr, timed):
            yield
        self.setup_s += moved
        self.run_s -= moved


def fleet_specs(num_cameras: int, seed: int, **kwargs) -> list[CameraSpec]:
    """``generate_fleet``'s seed-0 fleet filming the scenes of fleet ``seed``.

    Camera *i* keeps the shape ``generate_fleet(seed=SHAPE_SEED)`` gives it
    and takes the scene seed ``generate_fleet(seed=seed)`` gives camera *i*;
    at ``seed == SHAPE_SEED`` this is exactly ``generate_fleet(seed=0)``.
    """
    shape = generate_fleet(num_cameras, seed=SHAPE_SEED, **kwargs)
    scenes = generate_fleet(num_cameras, seed=seed, **kwargs)
    return [replace(spec, seed=scene.seed) for spec, scene in zip(shape, scenes)]


# -- fleet workloads -----------------------------------------------------------
def _fleet_outcome(
    report,
    node_reports: dict,
    runtimes: dict[str, FleetRuntime],
    fleet: list[CameraSpec],
    extra_counts: dict[str, float],
    extra_digest: dict,
) -> Outcome:
    """Conservation check, exact counts and digest shared by the fleet workloads.

    ``report`` is a ``FleetReport`` or ``ShardedFleetReport`` (same count
    fields); ``node_reports`` maps node id to that node's ``FleetReport``.
    """
    generated = report.frames_generated
    # A frame fails if it has no terminal state.  Frames shed by the
    # simulated node (dropped, rejected) are a simulated outcome, not a failure.
    failed = abs(
        generated - report.frames_scored - report.frames_dropped - report.frames_rejected
    )
    scorers = [rt.batched for rt in runtimes.values() if rt.batched is not None]
    batches = sum(s.batches_run for s in scorers)
    frames_batched = sum(s.frames_batched for s in scorers)
    base_madds = sum(
        camera.frames_scored * mobilenet_multiply_adds(camera.resolution, FLEET_ALPHA)
        for node in node_reports.values()
        for camera in node.cameras.values()
    )
    counts = {
        "fleet.frames_generated": generated,
        "fleet.frames_scored": report.frames_scored,
        "fleet.frames_dropped": report.frames_dropped,
        "fleet.frames_rejected": report.frames_rejected,
        "fleet.sim_drop_rate": report.drop_rate,
        "fleet.des_events": generated + report.frames_scored,
        "video.frames_rendered": sum(spec.num_frames for spec in fleet),
        "core.events_closed": report.events_detected,
        "nn.batched_frames": frames_batched,
        "nn.mean_batch_size": frames_batched / batches if batches else 0.0,
        "nn.base_madds": base_madds,
        **extra_counts,
    }
    digest = sim_digest(
        {
            "counts": counts,
            "nodes": {
                node_id: {
                    "cameras": {cid: asdict(c) for cid, c in node.cameras.items()},
                    "telemetry": node.telemetry,
                    "uploaded_bits": node.total_uploaded_bits,
                }
                for node_id, node in node_reports.items()
            },
            **extra_digest,
        }
    )
    return Outcome(ops=generated, failed=failed, counts=counts, digest=digest)


def edge16_steady(seed: int, size: dict, clock: RepClock) -> Outcome:
    """One provisioned node scores every frame of a 16-camera fleet."""
    with clock.setup():
        fleet = fleet_specs(size["cameras"], seed, duration_seconds=size["duration"])
        runtime = FleetRuntime(fleet, config=FleetConfig(service_time_scale=0.01))
        runtime.start()
    with clock.run():
        runtime.advance_until(math.inf)
        report = runtime.finalize()
    waits = report.telemetry.get("latency.queue_wait_seconds", {})
    return _fleet_outcome(
        report,
        {"node0": report},
        {"node0": runtime},
        fleet,
        {
            "fleet.sim_queue_wait_p99_s": float(waits.get("p99", 0.0)),
            "edge.sim_uplink_bits": report.total_uploaded_bits,
        },
        {},
    )


def _sharded_outcome(
    runtime: ShardedFleetRuntime, report, timeline: MetricsTimeline, fleet: list[CameraSpec]
) -> Outcome:
    return _fleet_outcome(
        report,
        {node.node_id: node.report for node in report.nodes},
        runtime.nodes,
        fleet,
        {
            "fleet.sim_queue_wait_p99_s": report.worst_node_queue_wait_p99,
            "edge.sim_uplink_bits": report.total_uplink_bits,
            "edge.drain_requests": len(runtime.shared_uplink.transfers),
            "control.ticks": report.control_ticks,
            "control.actions": len(report.control_log),
            "control.migrations": report.migrations_performed,
            "control.payload_bytes_peak": max(report.coordination_payload_bytes, default=0),
            "obs.timeline_points": sum(len(sample.values) for sample in timeline.samples),
        },
        {
            "cluster_telemetry": report.telemetry,
            "control_log": report.control_log,
            "decision_records": report.decision_records,
            "coordination_payload_bytes": report.coordination_payload_bytes,
        },
    )


def cluster64_overload(seed: int, size: dict, clock: RepClock) -> Outcome:
    """Four overloaded nodes shed most frames under a flat control loop."""
    with clock.setup():
        fleet = fleet_specs(size["cameras"], seed, duration_seconds=size["duration"])
        timeline = MetricsTimeline()
        runtime = ShardedFleetRuntime(
            fleet,
            config=ShardingConfig(
                num_nodes=4,
                placement="load_aware",
                uplink_sharing="work_conserving",
                total_uplink_bps=2_000_000.0,
                node_config=FleetConfig(
                    num_workers=4, queue_capacity=8, service_time_scale=0.2
                ),
            ),
            control_loop=ControlLoop(
                [
                    AdaptiveSheddingController(),
                    UplinkShareController(),
                    MigrationController(),
                ],
                interval_seconds=0.25,
            ),
            timeline=timeline,
        )
    with clock.run(), clock.charged_to_setup(FleetRuntime, "start"):
        report = runtime.run()
    return _sharded_outcome(runtime, report, timeline, fleet)


def hier512_setup(seed: int, size: dict, clock: RepClock) -> Outcome:
    """A districted kilocamera-style cluster where construction dominates."""
    with clock.setup():
        fleet = fleet_specs(
            size["cameras"],
            seed,
            duration_seconds=size["duration"],
            resolutions=((32, 32), (48, 32)),
            frame_rates=(2.0, 4.0),
            districts=size["nodes"],
        )
        timeline = MetricsTimeline()
        runtime = ShardedFleetRuntime(
            fleet,
            config=ShardingConfig(
                num_nodes=size["nodes"],
                placement="district_aware",
                uplink_allocation="equal",
                uplink_sharing="work_conserving",
                total_uplink_bps=2_000_000.0,
                node_config=FleetConfig(
                    num_workers=4, queue_capacity=8, service_time_scale=0.001
                ),
            ),
            hierarchy=HierarchicalControlPlane(),
            timeline=timeline,
        )
    with clock.run(), clock.charged_to_setup(FleetRuntime, "start"):
        report = runtime.run()
    return _sharded_outcome(runtime, report, timeline, fleet)


# -- many microclassifiers on one stream -----------------------------------------
MC_WIDTH, MC_HEIGHT, MC_FRAME_RATE = 128, 72, 15.0
MC_TAP = "conv3_2/sep"
MC_ARCHITECTURES = ("full_frame", "localized", "windowed")
# Localized MCs cycle three regions of interest (pixel coordinates).
MC_CROPS = (
    FeatureMapCrop(0, MC_HEIGHT // 3, MC_WIDTH, MC_HEIGHT),
    FeatureMapCrop(MC_WIDTH // 4, 0, 3 * MC_WIDTH // 4, MC_HEIGHT),
    FeatureMapCrop(0, 0, MC_WIDTH // 2, MC_HEIGHT // 2),
)


def many_mc_stream(seed: int, size: dict, clock: RepClock) -> Outcome:
    """Dozens of microclassifiers share one base DNN on one camera."""
    num_mcs, num_frames = size["microclassifiers"], size["frames"]
    with clock.setup():
        spec = CameraSpec(
            "cam000",
            MC_WIDTH,
            MC_HEIGHT,
            MC_FRAME_RATE,
            num_frames,
            scenario="busy_intersection",
            seed=seed,
        )
        frames = list(CameraFeed(spec).stream)
        rng = np.random.default_rng(seed)
        base_dnn = build_mobilenet_like((MC_HEIGHT, MC_WIDTH, 3), alpha=0.25, rng=rng)
        extractor = FeatureExtractor(base_dnn, [MC_TAP], cache_size=8)
        microclassifiers = []
        for k in range(num_mcs):
            architecture = MC_ARCHITECTURES[k % 3]
            crop = MC_CROPS[(k // 3) % 3] if architecture == "localized" else None
            config = MicroClassifierConfig(
                f"mc{k:02d}", MC_TAP, crop=crop, threshold=0.6, upload_bitrate=8_000.0
            )
            shape = extractor.cropped_layer_shape(MC_TAP, crop, (MC_HEIGHT, MC_WIDTH))
            microclassifiers.append(build_microclassifier(architecture, config, shape, rng=rng))
        pipeline = StreamingPipeline(
            extractor,
            microclassifiers,
            config=PipelineConfig(batch_size=1),
            frame_rate=MC_FRAME_RATE,
            resolution=(MC_WIDTH, MC_HEIGHT),
        )
    with clock.run():
        for frame in frames:
            pipeline.push(frame)
        result = pipeline.finish()

    # A pushed frame fails if any MC's probability for it is missing, NaN or
    # outside [0, 1].
    bad = np.zeros(num_frames, dtype=bool)
    blobs = []
    for mc in microclassifiers:
        mc_result = result.per_mc.get(mc.name)
        if mc_result is None or mc_result.probabilities.shape != (num_frames,):
            bad[:] = True
            continue
        p = mc_result.probabilities
        bad |= ~(np.isfinite(p) & (p >= 0.0) & (p <= 1.0))
        blobs.append(p.tobytes())
    events = sum(len(r.events) for r in result.per_mc.values())
    counts = {
        "video.frames_rendered": num_frames,
        "core.events_closed": events,
        "nn.base_madds": num_frames * extractor.multiply_adds_per_frame(),
        "edge.sim_uplink_bits": result.total_uploaded_bits,
    }
    digest = sim_digest(
        {
            "counts": counts,
            "matched": {name: int(r.num_matched_frames) for name, r in result.per_mc.items()},
        },
        *blobs,
    )
    return Outcome(ops=num_frames, failed=int(bad.sum()), counts=counts, digest=digest)


# -- event delivery ------------------------------------------------------------
# The bench_events scenario (64 cameras, 4 nodes, lossy broker, retrying
# outbox, serial uplink, lagging idempotent consumer) at one fifth the size.
EVENT_INTERVAL = 0.08  # each camera closes one event per interval ...
CAMERA_PHASE = 0.001  # ... offset per camera so offers stay time-ordered
EVENT_OUTBOX = OutboxConfig(
    max_queue=8192, max_retries=4, backoff_base_seconds=0.05, backoff_cap_seconds=0.8
)
EVENT_RECORD_BITS = 2048.0
EVENT_UPLINK_BPS = 2_000_000.0
EVENT_CONSUMER_RATE_EPS = 1000.0


def event_storm(seed: int, size: dict, clock: RepClock) -> Outcome:
    """Synthetic event records through broker, outbox, uplink and ingest."""
    num_nodes, per_node, per_camera = size["nodes"], size["cameras_per_node"], size["events_per_camera"]
    num_cameras = num_nodes * per_node
    total = num_cameras * per_camera
    with clock.setup():
        # Input generation: every record's global id, key and close time, and
        # each node's records in close-time order.
        keys = [
            f"cam{camera:03d}/e0/{index + 1}"
            for camera in range(num_cameras)
            for index in range(per_camera)
        ]
        closes = [
            index * EVENT_INTERVAL + camera * CAMERA_PHASE
            for camera in range(num_cameras)
            for index in range(per_camera)
        ]
        node_gids = [
            [
                camera * per_camera + index
                for index in range(per_camera)
                for camera in range(node * per_node, (node + 1) * per_node)
            ]
            for node in range(num_nodes)
        ]
        broker_config = BrokerConfig(loss_rate=0.06, ack_loss_rate=0.02, seed=seed)

    with clock.run():
        # Per-record check state, as bytearrays: cheaper to index than NumPy.
        terminal = bytearray(total)  # terminal states assigned to the record
        expected = bytearray(total)  # 1 = a payload of it must reach the datacenter
        published = acked = unacked = dead_letter = overflow = retried = attempts = 0
        uplink_bits = 0.0
        arrivals: list[tuple[float, int]] = []
        for node, gids in enumerate(node_gids):
            broker = SimulatedBroker(broker_config)
            outbox = NodeOutbox(f"node{node}", EVENT_OUTBOX)
            uplink = ConstrainedUplink(EVENT_UPLINK_BPS, keep_transfers=False)
            sends: list[tuple[float, int, bool]] = []
            for gid in gids:
                key = keys[gid]
                plan = broker.plan(key, EVENT_OUTBOX.max_attempts)
                entry = outbox.offer(key, closes[gid], EVENT_RECORD_BITS, len(plan))
                outbox.entries.clear()  # the plan below is all that is kept
                terminal[gid] += 1
                if entry is None:
                    overflow += 1
                    continue
                published += 1
                retried += len(plan) - 1
                reaches = [outcome.reaches_datacenter for outcome in plan]
                if plan[-1].acked:
                    acked += 1
                    expected[gid] = 1
                elif any(reaches):
                    unacked += 1
                    expected[gid] = 1
                else:
                    dead_letter += 1
                for send_at, reach in zip(entry.send_times, reaches):
                    sends.append((send_at, gid, reach))
            # Retransmits overlap later records' first sends; the serial
            # uplink carries attempts in send order (stable sort: FIFO ties).
            sends.sort(key=itemgetter(0))
            attempts += len(sends)
            for send_at, gid, reach in sends:
                transfer = uplink.upload(EVENT_RECORD_BITS, send_at, "evt")
                if reach:
                    arrivals.append((transfer.end_time, gid))
            uplink_bits += uplink.total_bits

        # One datacenter ingest consumes the nodes' merged arrival stream
        # (the gid breaks exact-time ties deterministically).
        arrivals.sort()
        ingest = DatacenterIngest(consumer_rate_eps=EVENT_CONSUMER_RATE_EPS)
        ingested = bytearray(total)
        latencies: list[float] = []
        for arrived_at, gid in arrivals:
            result = ingest.ingest(keys[gid], arrived_at)
            if result.accepted:
                ingested[gid] += 1
                latencies.append(result.completed_at - closes[gid])
        latencies.sort()

    # A record fails unless it resolved to exactly one terminal state and was
    # ingested exactly once if (and only if) a payload of it got through.
    failed = sum(t != 1 or i != e for t, i, e in zip(terminal, ingested, expected))
    delivered = len(latencies)
    if ingest.unique_ingests != delivered or published + overflow != total:
        failed = total
    counts = {
        "events.published": published,
        "events.acked": acked,
        "events.delivered_unacked": unacked,
        "events.dead_letter": dead_letter,
        "events.dropped_overflow": overflow,
        "events.retried": retried,
        "events.attempts": attempts,
        "events.duplicates_suppressed": ingest.duplicates,
        "events.sim_latency_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
        "events.sim_latency_p99_s": percentile(latencies, 0.99) if latencies else 0.0,
        "edge.sim_uplink_bits": uplink_bits,
    }
    digest = sim_digest(counts, np.asarray(latencies).tobytes())
    return Outcome(ops=total, failed=failed, counts=counts, digest=digest)


@dataclass(frozen=True)
class Workload:
    """A named workload with its committed size and its ``--quick`` size."""

    run: Callable[[int, dict, RepClock], Outcome]
    full: dict
    quick: dict


WORKLOADS: dict[str, Workload] = {
    "edge16_steady": Workload(
        edge16_steady,
        full={"cameras": 16, "duration": 10.0},
        quick={"cameras": 4, "duration": 1.0},
    ),
    "many_mc_stream": Workload(
        many_mc_stream,
        full={"microclassifiers": 50, "frames": 120},
        quick={"microclassifiers": 5, "frames": 20},
    ),
    "cluster64_overload": Workload(
        cluster64_overload,
        full={"cameras": 64, "duration": 8.0},
        quick={"cameras": 8, "duration": 1.0},
    ),
    "hier512_setup": Workload(
        hier512_setup,
        full={"cameras": 512, "nodes": 8, "duration": 1.0},
        quick={"cameras": 16, "nodes": 4, "duration": 1.0},
    ),
    "event_storm": Workload(
        event_storm,
        full={"nodes": 4, "cameras_per_node": 16, "events_per_camera": 3125},
        quick={"nodes": 4, "cameras_per_node": 4, "events_per_camera": 125},
    ),
}
