"""``tools/fleetctl.py``'s artifact readers against the writers they read."""

from __future__ import annotations

import fleetctl

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
