"""WorkerPool: phased service times, telemetry.

Regression focus: :meth:`WorkerPool.service_seconds_for` and the service a
worker is actually charged agree on *both* schedule paths — the pool default
and a per-resolution override installed mid-run — with
``service_time_scale`` applied identically to each.
"""

import pytest

from repro.fleet.runtime import resolution_scaled_schedule
from repro.fleet.telemetry import TelemetryRegistry
from repro.fleet.worker import WorkerPool, default_schedule


@pytest.fixture
def scaled_schedule():
    """A per-resolution schedule distinct from the paper default."""
    return resolution_scaled_schedule(default_schedule(), (96, 64))


class TestServiceSeconds:
    def test_default_schedule_path(self):
        pool = WorkerPool(num_workers=2, service_time_scale=0.5)
        assert pool.service_seconds_for() == pytest.approx(
            default_schedule().total_seconds * 0.5
        )

    def test_per_resolution_schedule_path(self, scaled_schedule):
        pool = WorkerPool(num_workers=2, service_time_scale=0.5)
        assert scaled_schedule.total_seconds != pytest.approx(
            default_schedule().total_seconds
        )
        assert pool.service_seconds_for(scaled_schedule) == pytest.approx(
            scaled_schedule.total_seconds * 0.5
        )

    def test_resolution_path_does_not_fall_back_to_the_default(self, scaled_schedule):
        # A 96x64 camera is far cheaper than the paper's 1080p reference, so
        # its service must be shorter than the flat default's.
        pool = WorkerPool(num_workers=3, service_time_scale=0.7)
        assert pool.service_seconds_for(scaled_schedule) < pool.service_seconds_for()

    def test_scale_applies_to_both_paths(self, scaled_schedule):
        flat = WorkerPool(num_workers=1, service_time_scale=1.0)
        scaled = WorkerPool(num_workers=1, service_time_scale=0.25)
        for schedule in (None, scaled_schedule):
            assert scaled.service_seconds_for(schedule) == pytest.approx(
                flat.service_seconds_for(schedule) * 0.25
            )


class TestEstimatedThroughput:
    def test_simulated_rate_matches_estimate(self, scaled_schedule):
        """Frames dispatched back-to-back on one worker run at 1 / service_seconds_for."""
        pool = WorkerPool(num_workers=1, service_time_scale=2.0)
        now = 0.0
        for _ in range(5):
            now = pool.start_frame(pool.workers[0], now, scaled_schedule)
        assert 5 / now == pytest.approx(1.0 / pool.service_seconds_for(scaled_schedule))


class TestStartFrame:
    def test_occupies_worker_for_schedule_duration(self, scaled_schedule):
        pool = WorkerPool(num_workers=1, service_time_scale=1.0)
        worker = pool.workers[0]
        end = pool.start_frame(worker, 1.0, scaled_schedule)
        assert end == pytest.approx(1.0 + scaled_schedule.total_seconds)
        assert not worker.is_idle(end - 1e-9)
        assert worker.is_idle(end)

    def test_busy_worker_rejected(self):
        pool = WorkerPool(num_workers=1)
        pool.start_frame(pool.workers[0], 0.0)
        with pytest.raises(RuntimeError, match="busy"):
            pool.start_frame(pool.workers[0], 0.0)

    def test_phase_telemetry_scales_with_schedule(self, scaled_schedule):
        telemetry = TelemetryRegistry()
        pool = WorkerPool(num_workers=1, service_time_scale=0.5, telemetry=telemetry)
        pool.start_frame(pool.workers[0], 0.0, scaled_schedule)
        observed = telemetry.histogram("worker.service_seconds").values
        assert observed == (pytest.approx(scaled_schedule.total_seconds * 0.5),)
        per_phase = sum(
            telemetry.histogram(f"worker.phase_seconds.{phase.name}").total
            for phase in scaled_schedule.phases
        )
        assert per_phase == pytest.approx(observed[0])

    def test_utilization_counts_scaled_busy_seconds(self, scaled_schedule):
        pool = WorkerPool(num_workers=2, service_time_scale=1.0)
        end = pool.start_frame(pool.workers[0], 0.0, scaled_schedule)
        assert pool.utilization(2 * end) == pytest.approx(0.25)
        assert [w.busy_until for w in pool.workers] == [end, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(service_time_scale=0.0)

    def test_infinite_service_time_scale_rejected(self):
        """``FleetConfig`` refuses an infinite scale; a bare pool must too."""
        with pytest.raises(ValueError, match="service_time_scale must be positive and finite"):
            WorkerPool(service_time_scale=float("inf"))
