"""``tools/fleetctl.py``'s artifact readers against the writers they read."""

from __future__ import annotations

from types import SimpleNamespace

import fleetctl

from repro.control.trace import write_control_trace
from repro.obs.alerts import AlertEvent, AlertLog


def test_load_alert_log_reads_back_what_write_jsonl_wrote(tmp_path):
    log = AlertLog(
        events=(
            AlertEvent(1.25, "queue_wait_p99", "node0", "firing", "warn", 0.5, 0.3),
            AlertEvent(2.0, "uplink_demand", "node1", "firing", "page", 12_500.0, 10_000.0),
            AlertEvent(2.75, "queue_wait_p99", "node0", "resolved", "warn", 0.125, 0.3),
        )
    )
    path = log.write_jsonl(tmp_path / fleetctl.ALERTS_FILE)
    assert fleetctl.load_alert_log(path) == log


def test_load_alert_log_of_an_empty_export_is_an_empty_log(tmp_path):
    path = AlertLog().write_jsonl(tmp_path / fleetctl.ALERTS_FILE)
    assert fleetctl.load_alert_log(path) == AlertLog()


def test_explain_names_a_missing_decision_line_as_the_cause(tmp_path, capsys):
    report = SimpleNamespace(
        control_log=["t=0.500 adaptive_shedding: set_camera_quota node0/cam001 -> 2"],
        decision_records=[
            {
                "seq": 0, "tick": 1, "t": 0.5, "controller": "adaptive_shedding",
                "kind": "tighten", "node": "node0", "inputs": {}, "gates": {},
                "candidates": [], "actions": ["set_camera_quota node0/cam001 -> 2"],
                "action_seqs": [0], "reason": None,
            }
        ],
        telemetry={},
    )
    path = tmp_path / fleetctl.TRACE_FILE
    write_control_trace(path, report)
    assert fleetctl.cmd_explain(tmp_path, 0) == 0
    assert "decided by adaptive_shedding/tighten on node0" in capsys.readouterr().out

    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if '"decision"' not in line), encoding="utf-8")
    assert fleetctl.cmd_explain(tmp_path, 0) == 1
    assert capsys.readouterr().out.splitlines() == [
        "action 0: t=0.500 adaptive_shedding: set_camera_quota node0/cam001 -> 2",
        "no decision record claims this action (the trace lacks its decision line)",
    ]
