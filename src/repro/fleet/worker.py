"""Worker pool multiplexing many cameras through the shared pipeline.

The paper (Section 4.4) runs the base DNN and the microclassifiers in
*phases* — never pipelined — so the two inference stacks do not contend for
cores.  The fleet runtime keeps that discipline: each worker processes one
frame at a time, walking the :class:`~repro.edge.scheduler.PhasedSchedule`
(decode → base DNN → MC batches) to completion before taking the next
frame, and per-phase latencies feed the telemetry histograms.  Service
times come from the calibrated analytic throughput model, so the simulated
clock reflects paper-grade hardware rather than this repository's NumPy
substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.edge.scheduler import PhasedSchedule, build_phased_schedule
from repro.fleet.telemetry import TelemetryRegistry
from repro.perf.throughput_model import ThroughputModel

__all__ = ["Worker", "WorkerPool", "default_schedule"]


def default_schedule(
    num_classifiers: int = 1, architecture: str = "localized"
) -> PhasedSchedule:
    """The paper-calibrated per-frame phase timeline for one FilterForward node."""
    breakdown = ThroughputModel().filterforward_breakdown(num_classifiers, architecture)
    return build_phased_schedule(breakdown)


@dataclass
class Worker:
    """One sequential execution slot of the edge node."""

    worker_id: int
    busy_until: float = 0.0
    busy_seconds: float = 0.0

    def is_idle(self, now: float) -> bool:
        """Whether the worker can start a frame at time ``now``."""
        return self.busy_until <= now


@dataclass
class WorkerPool:
    """A fixed pool of workers sharing one phased per-frame schedule.

    Parameters
    ----------
    num_workers:
        Parallel execution slots (e.g. cores dedicated to inference).
    schedule:
        The per-frame phase timeline each worker walks; defaults to the
        paper-calibrated single-MC FilterForward schedule.
    service_time_scale:
        Multiplier on the schedule's total (1.0 = paper-grade hardware;
        smaller values model faster nodes or downscaled frames).
    telemetry:
        Registry receiving per-phase latency histograms.
    """

    num_workers: int = 4
    schedule: PhasedSchedule = field(default_factory=default_schedule)
    service_time_scale: float = 1.0
    telemetry: TelemetryRegistry | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if not 0 < self.service_time_scale < float("inf"):  # written so that a NaN fails it
            raise ValueError("service_time_scale must be positive and finite")
        self.workers = [Worker(worker_id=i) for i in range(self.num_workers)]

    def service_seconds_for(self, schedule: PhasedSchedule | None = None) -> float:
        """Simulated processing time of one frame under ``schedule``.

        ``None`` means the pool's default schedule; the fleet runtime passes
        a per-resolution schedule here when resolution-scaled service times
        are enabled.
        """
        schedule = schedule if schedule is not None else self.schedule
        return schedule.total_seconds * self.service_time_scale

    def idle_worker(self, now: float) -> Worker | None:
        """An idle worker at time ``now`` (lowest ID first), or None."""
        for worker in self.workers:
            if worker.is_idle(now):
                return worker
        return None

    def start_frame(
        self, worker: Worker, now: float, schedule: PhasedSchedule | None = None
    ) -> float:
        """Occupy ``worker`` with one frame starting at ``now``.

        ``schedule`` overrides the pool default for this frame (the fleet
        runtime passes the frame's camera-resolution schedule when
        resolution-scaled service times are on).  Returns the completion time
        and records per-phase latencies.
        """
        if not worker.is_idle(now):
            raise RuntimeError(f"Worker {worker.worker_id} is busy until {worker.busy_until}")
        schedule = schedule if schedule is not None else self.schedule
        service = schedule.total_seconds * self.service_time_scale
        worker.busy_until = now + service
        worker.busy_seconds += service
        if self.telemetry is not None:
            for phase in schedule.phases:
                self.telemetry.histogram(f"worker.phase_seconds.{phase.name}").observe(
                    phase.duration * self.service_time_scale
                )
            self.telemetry.histogram("worker.service_seconds").observe(service)
        return worker.busy_until

    def phase_intervals(
        self, start_time: float, schedule: PhasedSchedule | None = None
    ) -> tuple[tuple[str, float, float], ...]:
        """Absolute ``(name, start, end)`` sub-intervals of one frame's service.

        The same phase walk :meth:`start_frame` charges, projected onto the
        simulated clock from ``start_time`` — the frame tracer turns these
        into per-stage service sub-spans.
        """
        schedule = schedule if schedule is not None else self.schedule
        scale = self.service_time_scale
        return tuple(
            (phase.name, start_time + phase.start * scale, start_time + phase.end * scale)
            for phase in schedule.phases
        )

    def utilization(self, duration: float) -> float:
        """Fraction of pool capacity used over ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return sum(w.busy_seconds for w in self.workers) / (self.num_workers * duration)
