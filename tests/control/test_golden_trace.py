"""Golden-trace regression: the pinned control scenario must replay exactly.

``tests/data/golden_control_trace.jsonl`` pins every control action (with
its actuation time), the final merged telemetry snapshot, and the report's
aggregate counters for the scenario in ``golden_scenario.py``.  Any
nondeterminism or silent behavior change — a policy constant nudged, a tick
reordered, a counter drifting — produces a named diff and fails tier-1.

The harness was validated by mutating one policy constant locally
(``SheddingConfig.quota_ladder`` ``(2,)`` -> ``(1,)``) and confirming the
replay test fails with diffs naming the drifted decisions; that check is
kept in-tree as ``test_mutated_policy_constant_is_caught``.

If a behavior change is *intentional*, regenerate the golden file::

    PYTHONPATH=src python tests/control/golden_scenario.py tests/data/golden_control_trace.jsonl
"""

from pathlib import Path

import pytest
from parity import first_difference

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    SheddingConfig,
    UplinkShareController,
)
from repro.control.trace import control_trace_records, load_trace
from repro.fleet import ShardedFleetRuntime, ShardingConfig

from golden_scenario import NODE_CONFIG, build_control_loop, build_report, golden_cameras

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_control_trace.jsonl"


@pytest.fixture(scope="module")
def replayed_records():
    return control_trace_records(build_report())


@pytest.fixture(scope="module")
def golden_records():
    return load_trace(GOLDEN_PATH)


class TestGoldenTrace:
    def test_scenario_exercises_the_control_plane(self, golden_records):
        """The pinned trace is worth pinning: it contains real decisions."""
        summary = golden_records[-1]
        assert summary["migrations_performed"] > 0
        assert summary["shedding_interventions"] > 0
        assert summary["control_ticks"] > 0
        assert golden_records[0]["actions"] > 0

    def test_replay_matches_golden_exactly(self, replayed_records, golden_records):
        difference = first_difference(golden_records, replayed_records)
        assert difference is None, (
            "Control replay drifted from the golden trace. If this change is "
            "intentional, regenerate tests/data/golden_control_trace.jsonl "
            f"(see golden_scenario.py).\n{difference}"
        )

    def test_batched_dispatch_leaves_golden_trace_unchanged(self, golden_records):
        """Batched scoring is bit-exact: the pinned trace needs no regeneration.

        ``test_replay_matches_golden_exactly`` already replays with
        ``FleetConfig.batched_scoring`` at its default (on); this runs the
        same scenario with batching *off* and asserts the trace still matches
        the golden file — the two dispatch paths produce byte-identical
        control decisions, telemetry, and counters, so the golden file pins
        both.
        """
        from dataclasses import replace

        config = ShardingConfig(
            num_nodes=2,
            placement="round_robin",
            total_uplink_bps=100_000.0,
            uplink_sharing="work_conserving",
            node_config=replace(NODE_CONFIG, batched_scoring=False),
        )
        unbatched = ShardedFleetRuntime(
            golden_cameras(), config=config, control_loop=build_control_loop()
        ).run()
        difference = first_difference(golden_records, control_trace_records(unbatched))
        assert difference is None, (
            "Per-camera dispatch drifted from the golden trace, so batched "
            f"and per-camera scoring are no longer equivalent:\n{difference}"
        )

    def test_mutated_policy_constant_is_caught(self, golden_records):
        """A one-constant policy change must produce a non-empty diff.

        This is the harness's own regression test: it rebuilds the scenario
        with one shedding constant changed (quota ladder rung 2 -> 1) and
        asserts the golden diff catches it — proving the trace actually
        pins behavior, not just that two identical runs agree.
        """
        loop = ControlLoop(
            [
                AdaptiveSheddingController(
                    SheddingConfig(
                        high_watermark_seconds=0.3,
                        low_watermark_seconds=0.1,
                        cameras_per_step=1,
                        quota_ladder=(1,),  # the mutation (golden uses (2,))
                    )
                ),
                UplinkShareController(),
                MigrationController(
                    MigrationConfig(
                        imbalance_threshold=1.1,
                        sustain_ticks=2,
                        cooldown_ticks=2,
                        cost_model=MigrationCostModel(
                            blackout_seconds=0.2, cold_start_seconds=0.2
                        ),
                    )
                ),
            ],
            interval_seconds=0.25,
        )
        config = ShardingConfig(
            num_nodes=2,
            placement="round_robin",
            total_uplink_bps=100_000.0,
            uplink_sharing="work_conserving",
            node_config=NODE_CONFIG,
        )
        mutated = ShardedFleetRuntime(
            golden_cameras(), config=config, control_loop=loop
        ).run()
        difference = first_difference(golden_records, control_trace_records(mutated))
        assert difference is not None, "mutating a policy constant must drift the trace"
