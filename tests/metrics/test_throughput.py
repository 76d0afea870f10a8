"""Tests for wall-clock throughput measurement."""

import pytest

from repro.metrics.throughput import ThroughputMeasurement, measure_throughput


class TestThroughputMeasurement:
    def test_fps(self):
        measurement = ThroughputMeasurement(frames=30, seconds=2.0)
        assert measurement.fps == pytest.approx(15.0)

    def test_zero_duration_is_infinite_fps(self):
        assert ThroughputMeasurement(frames=5, seconds=0.0).fps == float("inf")


class TestMeasureThroughput:
    def test_counts_calls_and_uses_timer(self):
        calls = []
        fake_time = iter([0.0, 2.0])

        measurement = measure_throughput(
            lambda i: calls.append(i), num_frames=10, timer=lambda: next(fake_time)
        )
        assert calls == list(range(10))
        assert measurement.frames == 10
        assert measurement.seconds == pytest.approx(2.0)
        assert measurement.fps == pytest.approx(5.0)

    def test_warmup_frames_not_timed(self):
        calls = []
        fake_time = iter([0.0, 1.0])
        measure_throughput(
            lambda i: calls.append(i), num_frames=3, warmup_frames=2, timer=lambda: next(fake_time)
        )
        assert len(calls) == 5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_throughput(lambda i: None, num_frames=0)
        with pytest.raises(ValueError):
            measure_throughput(lambda i: None, num_frames=1, warmup_frames=-1)

    def test_exceptions_propagate(self):
        def boom(i):
            raise RuntimeError("frame failed")

        with pytest.raises(RuntimeError, match="frame failed"):
            measure_throughput(boom, num_frames=1)
