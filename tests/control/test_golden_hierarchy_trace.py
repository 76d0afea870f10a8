"""Golden-trace regression for the hierarchical control plane.

``tests/data/golden_hierarchy_trace.jsonl`` pins, byte for byte, what one
seeded three-node run of ``golden_hierarchy_scenario.py`` produced at both
levels: every applied action (``control_log``), every stamped decision
record (node and cluster level, no-ops included), the fixed-size cluster
rollup telemetry, the report counters, and the per-tick coordination
payload sizes.  ``test_hierarchy.py`` only checks that two reruns agree;
this file is what catches a refactor that changes both reruns the same way.

If a behavior change is *intentional*, regenerate the golden file::

    PYTHONPATH=src python tests/control/golden_hierarchy_scenario.py tests/data/golden_hierarchy_trace.jsonl
"""

from pathlib import Path

import pytest
from parity import first_difference

from repro.control.trace import load_trace

from golden_hierarchy_scenario import build_report, hierarchy_trace_records

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_hierarchy_trace.jsonl"
)


@pytest.fixture(scope="module")
def golden_records():
    return load_trace(GOLDEN_PATH)


def _decisions(records, controller, kind):
    return [
        r
        for r in records
        if r["type"] == "decision" and r["controller"] == controller and r["kind"] == kind
    ]


class TestGoldenHierarchyTrace:
    def test_scenario_exercises_both_levels(self, golden_records):
        """The pinned trace is worth pinning: both levels really decided."""
        assert _decisions(golden_records, "cluster_uplink", "rebalance")
        assert _decisions(golden_records, "cluster_migration", "migrate")
        hold_reasons = {
            r["reason"] for r in _decisions(golden_records, "cluster_migration", "hold")
        }
        assert "no candidate camera pays back its blackout" in hold_reasons
        assert "imbalance observed but not yet sustained" in hold_reasons
        assert "migration cooldown active" in hold_reasons
        node_actions = [
            r
            for r in golden_records
            if r["type"] == "action" and "/adaptive_shedding: " in r["entry"]
        ]
        assert node_actions, "node-level shedding must have acted"
        levels = {r["level"] for r in golden_records if r["type"] == "decision"}
        assert levels == {"node", "cluster"}
        payload = golden_records[-1]
        assert payload["type"] == "coordination"
        assert len(payload["payload_bytes"]) == golden_records[-2]["control_ticks"] > 0

    def test_replay_matches_golden_exactly(self, golden_records):
        difference = first_difference(golden_records, hierarchy_trace_records(build_report()))
        assert difference is None, (
            "Hierarchical control replay drifted from the golden trace. If this "
            "change is intentional, regenerate tests/data/golden_hierarchy_trace.jsonl "
            f"(see golden_hierarchy_scenario.py).\n{difference}"
        )
