"""Memory model for the edge node.

The paper's edge node has 32 GB of RAM; one full MobileNet instance consumes
"more than 1 GB of memory" (Section 2.2.3), which is why the
multiple-MobileNets baseline runs out of memory beyond ~30 concurrent
classifiers (Section 4.4).  Microclassifiers, by contrast, add only their
(small) weights and activation buffers on top of the single shared base DNN.

This is the one module that holds the paper's node and per-MobileNet memory
constants; Figure 5's multiple-MobileNets series reads them through
:meth:`repro.perf.throughput_model.ThroughputModel.multiple_mobilenets_fps`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryEstimate", "MemoryModel"]

_GIB = 1024**3
# The paper's node (32 GiB); one full MobileNet instance with framework
# overhead and full-resolution activations ("more than 1 GB"), also the cost
# of FilterForward's one shared base DNN; and what each microclassifier adds
# (weights + activation buffers).
_NODE_MEMORY_BYTES = 32.0 * _GIB
_MOBILENET_INSTANCE_BYTES = 1.05 * _GIB
_BASE_DNN_BYTES = 1.05 * _GIB
_MC_INSTANCE_BYTES = 40.0 * 1024**2


@dataclass(frozen=True)
class MemoryEstimate:
    """Estimated memory footprint of one deployment option."""

    strategy: str
    num_classifiers: int
    bytes_used: float
    bytes_available: float

    @property
    def gigabytes_used(self) -> float:
        """Footprint in GiB."""
        return self.bytes_used / _GIB

    @property
    def fits(self) -> bool:
        """Whether the deployment fits in the node's memory."""
        return self.bytes_used <= self.bytes_available


@dataclass(frozen=True)
class MemoryModel:
    """Edge-node memory accounting at the paper's node and model sizes."""

    def mobilenets_memory(self, num_classifiers: int) -> MemoryEstimate:
        """Footprint of running ``num_classifiers`` full MobileNets."""
        self._validate(num_classifiers)
        return MemoryEstimate(
            strategy="multiple_mobilenets",
            num_classifiers=num_classifiers,
            bytes_used=num_classifiers * _MOBILENET_INSTANCE_BYTES,
            bytes_available=_NODE_MEMORY_BYTES,
        )

    def filterforward_memory(self, num_classifiers: int) -> MemoryEstimate:
        """Footprint of FilterForward: one base DNN plus N microclassifiers."""
        self._validate(num_classifiers)
        return MemoryEstimate(
            strategy="filterforward",
            num_classifiers=num_classifiers,
            bytes_used=_BASE_DNN_BYTES + num_classifiers * _MC_INSTANCE_BYTES,
            bytes_available=_NODE_MEMORY_BYTES,
        )

    def mobilenets_fit(self, num_classifiers: int) -> bool:
        """Whether ``num_classifiers`` full MobileNets fit in memory."""
        return self.mobilenets_memory(num_classifiers).fits

    @staticmethod
    def _validate(num_classifiers: int) -> None:
        if num_classifiers < 1:
            raise ValueError("num_classifiers must be positive")
