"""Streaming multi-camera fleet runtime and multi-node sharding.

The paper's premise is many cameras per constrained edge node; this package
turns the single-stream reproduction into that system.  A synthetic camera
fleet (:mod:`repro.fleet.camera`) feeds bounded per-camera queues with
explicit overload policies (:mod:`repro.fleet.queues`); a worker pool
multiplexes the queues through per-camera incremental pipelines on the
paper's phased schedule (:mod:`repro.fleet.worker`); counters, gauges, and
histograms record every step (:mod:`repro.fleet.telemetry`); and
:class:`~repro.fleet.runtime.FleetRuntime` orchestrates it all on a
deterministic simulated clock, producing a
:class:`~repro.fleet.runtime.FleetReport`.

Above the single node, :mod:`repro.fleet.placement` decides which cameras
each node of a *cluster* hosts (round-robin, load-aware bin-packing,
resolution-aware co-location) and
:class:`~repro.fleet.sharding.ShardedFleetRuntime` runs the whole cluster
behind one shared datacenter uplink, aggregating per-node telemetry into a
:class:`~repro.fleet.sharding.ShardedFleetReport`.
"""

from repro.fleet.accuracy import (
    ACCURACY_TASKS,
    AccuracyConfig,
    CameraAccuracy,
    FleetAccuracy,
    TrainedMicroClassifiers,
    camera_seed_ladder,
    evaluate_offline,
)
from repro.fleet.camera import (
    SCENARIOS,
    CameraFeed,
    CameraSpec,
    district_of,
    generate_fleet,
)
from repro.fleet.placement import (
    PLACEMENT_POLICIES,
    DistrictAwarePlacement,
    LoadAwarePlacement,
    PlacementPolicy,
    ResolutionAwarePlacement,
    RoundRobinPlacement,
    estimate_camera_cost,
    make_placement_policy,
)
from repro.fleet.queues import AdmissionController, DropPolicy, FrameQueue, OfferOutcome
from repro.fleet.runtime import (
    CameraHandoff,
    CameraLiveStats,
    CameraReport,
    FleetConfig,
    FleetReport,
    FleetRuntime,
    default_pipeline_factory,
    resolution_scaled_schedule,
)
from repro.fleet.sharding import (
    NodeReport,
    ShardedFleetReport,
    ShardedFleetRuntime,
    ShardingConfig,
)
from repro.fleet.telemetry import Counter, Gauge, Histogram, TelemetryRegistry
from repro.fleet.worker import Worker, WorkerPool, default_schedule

__all__ = [
    "ACCURACY_TASKS",
    "PLACEMENT_POLICIES",
    "SCENARIOS",
    "AccuracyConfig",
    "AdmissionController",
    "CameraAccuracy",
    "CameraFeed",
    "CameraHandoff",
    "CameraLiveStats",
    "CameraReport",
    "CameraSpec",
    "Counter",
    "DistrictAwarePlacement",
    "DropPolicy",
    "FleetAccuracy",
    "FleetConfig",
    "FleetReport",
    "FleetRuntime",
    "FrameQueue",
    "Gauge",
    "Histogram",
    "LoadAwarePlacement",
    "NodeReport",
    "OfferOutcome",
    "PlacementPolicy",
    "ResolutionAwarePlacement",
    "RoundRobinPlacement",
    "ShardedFleetReport",
    "ShardedFleetRuntime",
    "ShardingConfig",
    "TelemetryRegistry",
    "TrainedMicroClassifiers",
    "Worker",
    "WorkerPool",
    "camera_seed_ladder",
    "default_pipeline_factory",
    "default_schedule",
    "district_of",
    "estimate_camera_cost",
    "evaluate_offline",
    "generate_fleet",
    "make_placement_policy",
    "resolution_scaled_schedule",
]
