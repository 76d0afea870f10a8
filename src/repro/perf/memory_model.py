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
    """Edge-node memory accounting.

    Parameters
    ----------
    node_memory_bytes:
        Total RAM of the edge node (32 GB in the paper's testbed).
    mobilenet_instance_bytes:
        Memory of one full MobileNet instance including framework overhead
        and activations at full resolution (paper: "more than 1 GB").
    base_dnn_bytes:
        Memory of FilterForward's single shared base DNN.
    mc_instance_bytes:
        Memory added by each microclassifier (weights + activation buffers).
    """

    node_memory_bytes: float = 32.0 * _GIB
    mobilenet_instance_bytes: float = 1.05 * _GIB
    base_dnn_bytes: float = 1.05 * _GIB
    mc_instance_bytes: float = 40.0 * 1024**2

    def mobilenets_memory(self, num_classifiers: int) -> MemoryEstimate:
        """Footprint of running ``num_classifiers`` full MobileNets."""
        self._validate(num_classifiers)
        return MemoryEstimate(
            strategy="multiple_mobilenets",
            num_classifiers=num_classifiers,
            bytes_used=num_classifiers * self.mobilenet_instance_bytes,
            bytes_available=self.node_memory_bytes,
        )

    def filterforward_memory(self, num_classifiers: int) -> MemoryEstimate:
        """Footprint of FilterForward: one base DNN plus N microclassifiers."""
        self._validate(num_classifiers)
        return MemoryEstimate(
            strategy="filterforward",
            num_classifiers=num_classifiers,
            bytes_used=self.base_dnn_bytes + num_classifiers * self.mc_instance_bytes,
            bytes_available=self.node_memory_bytes,
        )

    def mobilenets_fit(self, num_classifiers: int) -> bool:
        """Whether ``num_classifiers`` full MobileNets fit in memory."""
        return self.mobilenets_memory(num_classifiers).fits

    @staticmethod
    def _validate(num_classifiers: int) -> None:
        if num_classifiers < 1:
            raise ValueError("num_classifiers must be positive")
