"""Wall-clock throughput measurement.

The paper's Figure 5 reports frames per second of each filtering approach on
an edge-class CPU.  Absolute numbers on this repository's NumPy substrate
are not comparable to the paper's optimized Caffe/TensorFlow stack (and the
paper itself stresses that trends matter more than magnitudes), but the
relative scaling with classifier count is, so we also measure it directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["ThroughputMeasurement", "measure_throughput"]


@dataclass(frozen=True)
class ThroughputMeasurement:
    """Result of timing a frame-processing function."""

    frames: int
    seconds: float

    @property
    def fps(self) -> float:
        """Frames processed per second."""
        if self.seconds <= 0:
            return float("inf")
        return self.frames / self.seconds


def measure_throughput(
    process_frame: Callable[[int], None],
    num_frames: int,
    warmup_frames: int = 0,
    timer: Callable[[], float] = time.perf_counter,
) -> ThroughputMeasurement:
    """Time ``process_frame`` over ``num_frames`` calls (after optional warmup).

    ``process_frame`` receives the frame index; exceptions propagate.
    """
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    if warmup_frames < 0:
        raise ValueError("warmup_frames must be non-negative")
    for i in range(warmup_frames):
        process_frame(i)
    start = timer()
    for i in range(num_frames):
        process_frame(i)
    elapsed = timer() - start
    return ThroughputMeasurement(frames=num_frames, seconds=float(elapsed))
