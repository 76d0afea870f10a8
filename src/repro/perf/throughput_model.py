"""Analytic throughput and execution-time model (Figures 5 and 6).

The model converts per-component multiply-add counts into per-frame times
using two calibrated effective compute rates — one for the base DNN (the
paper runs it under Intel-optimized Caffe/MKL-DNN) and one for the
microclassifiers and discrete classifiers (run under stock TensorFlow) —
plus fixed per-frame overheads for decode/disk and per-classifier dispatch
and data-movement overheads.

Calibration targets the paper's testbed (quad-core i7-6700K, CPU only):

* one full-resolution MobileNet pass takes ~0.3 s (Figure 6's base-DNN bar),
* a single discrete classifier filters at roughly 8-10 fps,
* FilterForward with one MC runs a little slower than one MobileNet
  (claim ``fig5.single_vs_mobilenet``).

The ``fig5.*`` and ``fig6.*`` claims of :mod:`repro.experiments.claims` score
the resulting curves against the paper; the misses they expect are this
calibration's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.discrete_classifier import discrete_classifier_pareto_configs
from repro.perf.cost_model import CostModel
from repro.perf.memory_model import MemoryModel

__all__ = ["ThroughputModelConfig", "ExecutionBreakdown", "ThroughputModel"]


@dataclass(frozen=True)
class ThroughputModelConfig:
    """Calibration constants of the throughput model."""

    base_dnn_ops_per_second: float = 7.5e10
    classifier_ops_per_second: float = 3.0e10
    fixed_overhead_seconds: float = 0.040
    filterforward_overhead_seconds: float = 0.030
    per_classifier_overhead_seconds: float = 0.004

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it.
        if not all(
            0 < rate < math.inf
            for rate in (self.base_dnn_ops_per_second, self.classifier_ops_per_second)
        ):
            raise ValueError("compute rates must be positive and finite")
        if not all(
            0 <= overhead < math.inf
            for overhead in (
                self.fixed_overhead_seconds,
                self.filterforward_overhead_seconds,
                self.per_classifier_overhead_seconds,
            )
        ):
            raise ValueError("overheads must be non-negative and finite")


@dataclass(frozen=True)
class ExecutionBreakdown:
    """Per-frame execution time split into base-DNN and classifier components."""

    num_classifiers: int
    base_dnn_seconds: float
    classifiers_seconds: float
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total per-frame time."""
        return self.base_dnn_seconds + self.classifiers_seconds + self.overhead_seconds

    @property
    def fps(self) -> float:
        """Frames per second implied by the total time."""
        return 1.0 / self.total_seconds if self.total_seconds > 0 else float("inf")


@dataclass
class ThroughputModel:
    """Frame-rate model for FilterForward and its baselines."""

    cost_model: CostModel = field(default_factory=CostModel)
    config: ThroughputModelConfig = field(default_factory=ThroughputModelConfig)
    memory_model: MemoryModel = field(default_factory=MemoryModel)

    # -- FilterForward -------------------------------------------------------
    def filterforward_breakdown(
        self, num_classifiers: int, architecture: str = "localized"
    ) -> ExecutionBreakdown:
        """Per-frame time breakdown for FilterForward with ``num_classifiers`` MCs.

        This is the quantity Figure 6 plots: the (constant) base-DNN time
        plus the classifier time growing with the number of MCs.
        """
        if num_classifiers < 1:
            raise ValueError("num_classifiers must be positive")
        cfg = self.config
        base_seconds = self.cost_model.base_dnn_cost() / cfg.base_dnn_ops_per_second
        mc_seconds = self.cost_model.mc_cost(architecture) / cfg.classifier_ops_per_second
        classifiers_seconds = num_classifiers * (
            mc_seconds + cfg.per_classifier_overhead_seconds
        )
        overhead = cfg.fixed_overhead_seconds + cfg.filterforward_overhead_seconds
        return ExecutionBreakdown(
            num_classifiers=int(num_classifiers),
            base_dnn_seconds=float(base_seconds),
            classifiers_seconds=float(classifiers_seconds),
            overhead_seconds=float(overhead),
        )

    def filterforward_fps(self, num_classifiers: int, architecture: str = "localized") -> float:
        """FilterForward throughput in frames per second."""
        return self.filterforward_breakdown(num_classifiers, architecture).fps

    # -- Discrete classifiers -------------------------------------------------
    def discrete_classifier_fps(self, num_classifiers: int) -> float:
        """Throughput of running ``num_classifiers`` NoScope-style DCs.

        Each is the sweep's most expensive DC, the paper's "representative
        example from the Pareto frontier" (the rule Figure 7 applies too).
        """
        if num_classifiers < 1:
            raise ValueError("num_classifiers must be positive")
        cfg = self.config
        dc_cost = max(map(self.cost_model.dc_cost, discrete_classifier_pareto_configs()))
        dc_seconds = dc_cost / cfg.classifier_ops_per_second
        total = cfg.fixed_overhead_seconds + num_classifiers * (
            dc_seconds + cfg.per_classifier_overhead_seconds
        )
        return 1.0 / total

    # -- Multiple full MobileNets ----------------------------------------------
    def multiple_mobilenets_fps(self, num_classifiers: int) -> float:
        """Throughput of running one full MobileNet per application.

        Returns NaN when the instances no longer fit in the edge node's
        memory (claim ``fig5.mobilenet_oom``).
        """
        if num_classifiers < 1:
            raise ValueError("num_classifiers must be positive")
        if not self.memory_model.mobilenets_fit(num_classifiers):
            return float("nan")
        cfg = self.config
        per_instance = self.cost_model.base_dnn_cost() / cfg.base_dnn_ops_per_second
        total = cfg.fixed_overhead_seconds + num_classifiers * (
            per_instance + cfg.per_classifier_overhead_seconds
        )
        return 1.0 / total

    # -- Derived quantities ------------------------------------------------------
    def break_even_classifiers(self, architecture: str = "localized") -> int:
        """Smallest classifier count at which FilterForward out-runs the DCs."""
        for n in range(1, 1001):
            if self.filterforward_fps(n, architecture) > self.discrete_classifier_fps(n):
                return n
        return -1

    def sweep(self, classifier_counts: list[int]) -> dict[str, np.ndarray]:
        """Throughput series for Figure 5: one per MC architecture, DCs, MobileNets."""
        counts = np.asarray(classifier_counts, dtype=int)
        series: dict[str, np.ndarray] = {"num_classifiers": counts}
        for arch in ("full_frame", "windowed", "localized"):
            series[f"filterforward_{arch}"] = np.array(
                [self.filterforward_fps(int(n), arch) for n in counts]
            )
        series["discrete_classifiers"] = np.array(
            [self.discrete_classifier_fps(int(n)) for n in counts]
        )
        series["multiple_mobilenets"] = np.array(
            [self.multiple_mobilenets_fps(int(n)) for n in counts]
        )
        return series
