"""Phased execution scheduling.

"To reduce CPU contention, we use end-to-end flow control to guarantee that,
for FilterForward, the base DNN and MCs are executed in phases (not
pipelined) so that Caffe and TensorFlow do not compete for cores."
(paper Section 4.4).  :func:`build_phased_schedule` produces that per-frame
phase timeline — decode, base DNN, then each microclassifier batch — from an
:class:`~repro.perf.throughput_model.ExecutionBreakdown`, so experiments and
examples can inspect where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.throughput_model import ExecutionBreakdown

__all__ = ["Phase", "PhasedSchedule", "build_phased_schedule"]


@dataclass(frozen=True)
class Phase:
    """One sequential phase of per-frame processing."""

    name: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Phase end time (seconds from the start of the frame)."""
        return self.start + self.duration


@dataclass(frozen=True)
class PhasedSchedule:
    """A per-frame phase timeline (no two phases overlap)."""

    phases: tuple[Phase, ...]

    @property
    def total_seconds(self) -> float:
        """Total per-frame processing time."""
        return self.phases[-1].end if self.phases else 0.0


def build_phased_schedule(
    breakdown: ExecutionBreakdown, classifier_batches: int = 1
) -> PhasedSchedule:
    """Build the phased per-frame schedule from an execution breakdown.

    Parameters
    ----------
    breakdown:
        Per-frame time split from the throughput model.
    classifier_batches:
        How many sequential batches the microclassifiers are split into
        (they never overlap the base DNN either way).
    """
    if classifier_batches < 1:
        raise ValueError("classifier_batches must be positive")
    phases: list[Phase] = []
    cursor = 0.0

    def push(name: str, duration: float) -> None:
        nonlocal cursor
        phases.append(Phase(name=name, start=cursor, duration=float(duration)))
        cursor += duration

    push("decode_and_io", breakdown.overhead_seconds)
    push("base_dnn", breakdown.base_dnn_seconds)
    per_batch = breakdown.classifiers_seconds / classifier_batches
    for i in range(classifier_batches):
        push(f"microclassifiers_batch_{i}", per_batch)
    return PhasedSchedule(phases=tuple(phases))
