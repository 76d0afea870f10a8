"""The telemetry-driven adaptive control plane.

Constrained edge nodes cannot statically provision their way out of
overload: the paper's budget argument (fixed compute, fixed uplink) meets
workloads that shift mid-run.  This package closes the loop the static
fleet leaves open — a deterministic :class:`~repro.control.loop.ControlLoop`
observes the telemetry registry every control interval and actuates the
runtime through typed, logged actions:

* :mod:`repro.control.shedding` — per-camera drop policies and admission
  quotas, replacing fixed-capacity drops: one controller watches windowed
  queue-wait p99 (compute) and the estimated uplink backlog (the link) and
  sheds the cameras buying the least event value per service-second, or
  per upload bit when the link, not the CPU, is the bottleneck;
* :mod:`repro.control.value` — accuracy-aware control: runtime threshold
  drift (:class:`~repro.control.policies.SetCameraThreshold`) keeping each
  camera's frozen calibrated threshold near its live event rate;
* :mod:`repro.control.uplink` — guaranteed-share re-weighting of the
  work-conserving shared uplink
  (:class:`~repro.edge.uplink.WorkConservingUplink`) toward observed upload
  demand;
* :mod:`repro.control.migration` — mid-run camera handoff between nodes
  when imbalance sustains, gated by an explicit migration-cost model with
  hysteresis against flapping;
* :mod:`repro.control.hierarchy` — the kilocamera scale-out: the same
  policies, journal and actuators arranged in two levels — per-node local
  loops plus a :class:`~repro.control.hierarchy.ClusterCoordinator` whose
  controllers see only fixed-size per-node aggregate summaries (counts,
  rates, mergeable quantile sketches), bounding cluster-side control and
  telemetry cost at O(nodes) instead of O(cameras x metrics);
* :mod:`repro.control.provenance` — decision provenance: a decision is one
  value.  Every controller returns a
  :class:`~repro.control.provenance.DecisionRecord` per decision context per
  tick (telemetry inputs read, candidates ranked with scores, gating
  thresholds, and the typed actions — or an explicit no-op with reason);
  the loop applies exactly those actions, then stamps the record and threads
  it into the control trace;
* :mod:`repro.control.trace` — replayable control traces: every applied
  action, its decision provenance, actuation time, and final telemetry
  value serialized to a stable JSONL schema so separate processes can diff
  two runs (the golden-trace regression harness), with
  :func:`~repro.control.trace.explain_action` walking any action back to
  the decision that produced it.

Policies implement one interface (:class:`~repro.control.policies.Controller`)
and compose inside one loop; the
:class:`~repro.fleet.sharding.ShardedFleetRuntime` holds a loop (or the
hierarchy) in its one control slot and reports control-plane outcomes (migrations performed, reclaimed uplink
bytes, shedding interventions) in its cluster report.  Every decision is
a pure function of simulated telemetry, so identical runs produce
bit-identical decision logs.
"""

from repro.control.hierarchy import (
    ClusterCoordinator,
    HierarchicalControlPlane,
    NodeAggregate,
    NodeControlPlane,
    QuantileSketch,
    default_local_controllers,
)
from repro.control.loop import ClusterActuator, ControlLoop, NodeActuator
from repro.control.migration import (
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
)
from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
    SetCameraQuota,
    SetCameraThreshold,
    SetDropPolicy,
    SetUplinkWeights,
)
from repro.control.provenance import CandidateScore, DecisionRecord
from repro.control.shedding import AdaptiveSheddingController, SheddingConfig
from repro.control.value import ThresholdDriftConfig, ThresholdDriftController
from repro.control.trace import (
    TRACE_SCHEMA,
    control_trace_records,
    explain_action,
    load_trace,
    trace_to_jsonl,
    write_control_trace,
)
from repro.control.uplink import UplinkShareController

__all__ = [
    "TRACE_SCHEMA",
    "AdaptiveSheddingController",
    "CandidateScore",
    "ClusterActuator",
    "ClusterCoordinator",
    "ClusterView",
    "ControlAction",
    "ControlLoop",
    "Controller",
    "DecisionRecord",
    "HierarchicalControlPlane",
    "MigrateCamera",
    "MigrationConfig",
    "MigrationController",
    "MigrationCostModel",
    "NodeActuator",
    "NodeAggregate",
    "NodeControlPlane",
    "NodeView",
    "QuantileSketch",
    "SetCameraQuota",
    "SetCameraThreshold",
    "SetDropPolicy",
    "SetUplinkWeights",
    "SheddingConfig",
    "ThresholdDriftConfig",
    "ThresholdDriftController",
    "UplinkShareController",
    "control_trace_records",
    "default_local_controllers",
    "explain_action",
    "load_trace",
    "trace_to_jsonl",
    "write_control_trace",
]
