"""Performance models: multiply-add costs, throughput, and memory.

The paper's scalability results (Figures 5 and 6) were measured on a
quad-core Intel CPU running Caffe (base DNN) and TensorFlow (MCs/DCs).
This repository reproduces those results with an analytic model driven by
per-component multiply-add counts and calibrated effective compute rates,
plus wall-clock micro-benchmarks of the NumPy kernels to confirm the same
ordering.  The cost model (Figure 7's x-axis) reads those counts off the
executable layer graphs at full paper-scale resolutions.
"""

from repro.perf.cost_model import CostModel
from repro.perf.memory_model import MemoryModel, MemoryEstimate
from repro.perf.throughput_model import (
    ExecutionBreakdown,
    ThroughputModel,
    ThroughputModelConfig,
)

__all__ = [
    "CostModel",
    "ExecutionBreakdown",
    "MemoryEstimate",
    "MemoryModel",
    "ThroughputModel",
    "ThroughputModelConfig",
]
