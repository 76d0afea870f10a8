"""repro.control.trace: schema, round-trip, and where a difference is named."""

from dataclasses import dataclass, field

import pytest
from parity import first_difference

from repro.control.trace import (
    TRACE_SCHEMA,
    control_trace_records,
    load_trace,
    trace_to_jsonl,
    write_control_trace,
)


@dataclass
class FakeReport:
    """Minimal duck-typed report: just what the trace serializer reads."""

    control_log: list = field(default_factory=list)
    decision_records: list = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    frames_generated: int = 100
    frames_scored: int = 80
    frames_dropped: int = 15
    frames_rejected: int = 5
    events_detected: int = 3
    control_ticks: int = 12
    migrations_performed: int = 1
    shedding_interventions: int = 2
    uplink_rebalances: int = 4
    threshold_drifts: int = 1
    total_uplink_bits: float = 1234.5
    reclaimed_uplink_bits: float = 67.0


def make_report() -> FakeReport:
    return FakeReport(
        control_log=[
            "t=0.250 adaptive_shedding: set_camera_quota node0/cam001 -> 2",
            "t=0.500 camera_migration: migrate cam000 node0 -> node1 (blackout 0.200s)",
        ],
        telemetry={
            "control.ticks": 12.0,
            "node0.frames.generated": 60.0,
            "node0.latency.queue_wait_seconds": {"count": 40, "mean": 0.01, "p99": 0.05},
        },
    )


class TestRecords:
    def test_header_action_telemetry_summary_order(self):
        records = control_trace_records(make_report())
        kinds = [r["type"] for r in records]
        assert kinds[0] == "header"
        assert kinds[-1] == "summary"
        assert kinds[1:3] == ["action", "action"]
        assert kinds[3:6] == ["telemetry"] * 3
        assert records[0]["schema"] == TRACE_SCHEMA
        assert records[0]["actions"] == 2
        assert records[0]["telemetry"] == 3

    def test_actions_keep_applied_order_and_times(self):
        records = control_trace_records(make_report())
        actions = [r for r in records if r["type"] == "action"]
        assert [a["seq"] for a in actions] == [0, 1]
        assert "t=0.250" in actions[0]["entry"]
        assert "t=0.500" in actions[1]["entry"]

    def test_telemetry_sorted_by_name(self):
        records = control_trace_records(make_report())
        names = [r["name"] for r in records if r["type"] == "telemetry"]
        assert names == sorted(names)

    def test_summary_records_missing_fields_as_none(self):
        class Sparse:
            control_log = []
            decision_records = []
            telemetry = {}
            frames_generated = 1

        summary = control_trace_records(Sparse())[-1]
        assert summary["frames_generated"] == 1
        assert summary["reclaimed_uplink_bits"] is None


class TestRoundTrip:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_control_trace(path, make_report())
        loaded = load_trace(path)
        assert loaded == written
        assert first_difference(written, loaded) is None

    def test_jsonl_is_one_object_per_line(self):
        text = trace_to_jsonl(control_trace_records(make_report()))
        lines = text.splitlines()
        assert len(lines) == 1 + 2 + 3 + 1  # header + actions + telemetry + summary
        assert all(line.startswith("{") and line.endswith("}") for line in lines)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "header", "schema": "other/v9"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            load_trace(path)

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "action", "seq": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_trace(path)


class TestFirstDifference:
    def test_identical_traces_have_no_difference(self):
        assert first_difference(control_trace_records(make_report()),
                                control_trace_records(make_report())) is None

    def test_changed_action_is_located(self):
        expected = control_trace_records(make_report())
        drifted_report = make_report()
        drifted_report.control_log[1] = (
            "t=0.750 camera_migration: migrate cam000 node0 -> node1 (blackout 0.200s)"
        )
        difference = first_difference(expected, control_trace_records(drifted_report))
        assert difference.path == "[2].entry"
        assert difference.variant.startswith("t=0.750")

    def test_changed_telemetry_counter_is_located(self):
        expected = control_trace_records(make_report())
        drifted_report = make_report()
        drifted_report.telemetry["node0.frames.generated"] = 61.0
        difference = first_difference(expected, control_trace_records(drifted_report))
        assert difference.path == "[4].value"
        assert expected[4]["name"] == "node0.frames.generated"
        assert (difference.reference, difference.variant) == (60.0, 61.0)

    def test_extra_action_changes_the_record_count(self):
        expected = control_trace_records(make_report())
        drifted_report = make_report()
        drifted_report.control_log.append("t=1.000 adaptive_shedding: relax")
        difference = first_difference(expected, control_trace_records(drifted_report))
        assert (difference.path, difference.reference, difference.variant) == ("length", 7, 8)


class TestSetCameraThreshold:
    """The threshold-drift action round-trips through the trace schema."""

    def make_drift_report(self, threshold: float = 0.55) -> FakeReport:
        from repro.control import SetCameraThreshold

        action = SetCameraThreshold(node_id="node1", camera_id="cam007", threshold=threshold)
        report = make_report()
        report.control_log.append(f"t=0.750 threshold_drift: {action.describe()}")
        return report

    def test_round_trips_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_control_trace(path, self.make_drift_report())
        loaded = load_trace(path)
        assert loaded == written
        assert first_difference(written, loaded) is None
        entry = next(
            r["entry"] for r in loaded if r["type"] == "action" and "threshold" in r["entry"]
        )
        assert entry == "t=0.750 threshold_drift: set_camera_threshold node1/cam007 -> 0.5500"
        assert loaded[-1]["threshold_drifts"] == 1

    def test_drifted_threshold_is_located(self):
        expected = control_trace_records(self.make_drift_report(0.55))
        actual = control_trace_records(self.make_drift_report(0.6))
        difference = first_difference(expected, actual)
        assert difference.path == "[3].entry"
        assert difference.reference.endswith("-> 0.5500")
        assert difference.variant.endswith("-> 0.6000")
