"""Tests for the phased execution schedule."""

import pytest

from repro.edge.scheduler import build_phased_schedule
from repro.perf.throughput_model import ExecutionBreakdown


def breakdown(num=10):
    return ExecutionBreakdown(
        num_classifiers=num,
        base_dnn_seconds=0.3,
        classifiers_seconds=0.1,
        overhead_seconds=0.05,
    )


class TestPhasedSchedule:
    def test_phases_do_not_overlap_and_cover_total(self):
        schedule = build_phased_schedule(breakdown(), classifier_batches=2)
        for earlier, later in zip(schedule.phases, schedule.phases[1:]):
            assert later.start == pytest.approx(earlier.end)
        assert schedule.total_seconds == pytest.approx(0.45)

    def test_base_dnn_and_classifiers_are_separate_phases(self):
        """Base DNN and MC execution never overlap (phased, not pipelined)."""
        schedule = build_phased_schedule(breakdown())
        phases = {phase.name: phase for phase in schedule.phases}
        assert phases["base_dnn"].end <= phases["microclassifiers_batch_0"].start

    def test_phase_durations_follow_the_breakdown(self):
        schedule = build_phased_schedule(breakdown())
        durations = {phase.name: phase.duration for phase in schedule.phases}
        assert durations["base_dnn"] / schedule.total_seconds == pytest.approx(0.3 / 0.45)
        assert sum(durations.values()) == pytest.approx(schedule.total_seconds)

    def test_classifier_batches_split_evenly(self):
        schedule = build_phased_schedule(breakdown(), classifier_batches=4)
        batch_durations = [
            p.duration for p in schedule.phases if p.name.startswith("microclassifiers")
        ]
        assert len(batch_durations) == 4
        assert all(d == pytest.approx(0.025) for d in batch_durations)

    def test_invalid_batches(self):
        with pytest.raises(ValueError):
            build_phased_schedule(breakdown(), classifier_batches=0)
