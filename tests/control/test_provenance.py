"""Decision provenance: records, loop threading, and trace replay.

Covers the explainability contract end to end: ``DecisionRecord``
validation, the ``ControlLoop`` applying the actions each returned record
carries and linking records to decision-log indices, the v2 trace schema carrying decision
records, ``explain_action`` walking an action back to its decision, and a
mutation check that perturbing a provenance-recorded gate changes the
golden-scenario trace.
"""

import sys
from pathlib import Path

import pytest
from parity import first_difference

from repro.control import (
    AdaptiveSheddingController,
    CandidateScore,
    ControlLoop,
    DecisionRecord,
    control_trace_records,
    explain_action,
)
from repro.control.policies import Controller
from repro.control.provenance import freeze_values

sys.path.insert(0, str(Path(__file__).resolve().parent))

from control_helpers import FakeRuntime  # noqa: E402
from golden_scenario import NODE_CONFIG, build_report, golden_cameras  # noqa: E402


# --- DecisionRecord ---------------------------------------------------------


def test_record_freezes_inputs_and_gates():
    record = DecisionRecord(
        controller="c",
        kind="tighten",
        inputs={"b": 2.0, "a": 1.0},
        gates={"hw": 0.3},
        actions=(FakeAction("do thing"),),
    )
    assert record.inputs == (("a", 1.0), ("b", 2.0))
    assert record.to_dict()["inputs"] == {"a": 1.0, "b": 2.0}
    assert record.to_dict()["gates"] == {"hw": 0.3}
    assert record.to_dict()["actions"] == ["do thing"]


def test_noop_record_requires_reason():
    with pytest.raises(ValueError, match="no-op decision must carry a reason"):
        DecisionRecord(controller="c", kind="idle")
    record = DecisionRecord(controller="c", kind="idle", reason="nothing to do")
    assert record.is_noop
    assert not DecisionRecord(controller="c", kind="act", actions=(FakeAction("x"),)).is_noop


def test_ranked_candidates_without_an_action_still_need_a_reason():
    with pytest.raises(ValueError, match="c/hold: a no-op decision must carry a reason"):
        DecisionRecord(
            controller="c",
            kind="hold",
            candidates=(CandidateScore("cam000", 0.5),),
            actions=(),
        )


def test_candidate_score_serialization():
    score = CandidateScore("cam000", 0.5, chosen=True, detail=(("rate", 24.0),))
    assert score.to_dict() == {
        "id": "cam000",
        "score": 0.5,
        "chosen": True,
        "detail": {"rate": 24.0},
    }


def test_freeze_values_sorts_and_stringifies_names():
    assert freeze_values({2: "b", 1: "a"}) == (("1", "a"), ("2", "b"))


# --- loop threading ---------------------------------------------------------


class ExplainedController(Controller):
    """Returns one provenance record per decide, carrying its actions."""

    name = "explained"

    def __init__(self, act_on_ticks=()):
        self.act_on_ticks = set(act_on_ticks)
        self.ticks = 0  # decide runs once per tick

    def decide(self, view):
        tick, self.ticks = self.ticks, self.ticks + 1
        if tick in self.act_on_ticks:
            return [
                DecisionRecord(
                    controller=self.name,
                    kind="act",
                    inputs={"tick": float(tick)},
                    candidates=(CandidateScore("only", 1.0, chosen=True),),
                    actions=(FakeAction(f"act@{tick}"),),
                )
            ]
        return [DecisionRecord(controller=self.name, kind="idle", reason="not this tick")]


class TerseController(Controller):
    """Acts every tick through one bare record: no inputs, gates or candidates."""

    name = "terse"

    def decide(self, view):
        return [DecisionRecord(self.name, "action", actions=(FakeAction("mystery"),))]


class BatchController(Controller):
    """Returns one record carrying three actions."""

    name = "batch"

    def decide(self, view):
        actions = tuple(FakeAction(f"step{i}") for i in range(3))
        return [DecisionRecord(self.name, "batch", actions=actions)]


class FakeAction:
    def __init__(self, text):
        self.text = text

    def describe(self):
        return self.text


class FakeActuator:
    uplink_weights = None
    uplink_guarantees = None

    def __init__(self):
        self.applied = []

    def apply(self, action, now):
        self.applied.append(action.describe())


def _tick(loop, times=1, actuator=None):
    for i in range(times):
        loop.tick(0.25 * (loop.ticks + 1), {"node0": FakeRuntime()}, actuator or FakeActuator())


def test_loop_threads_decision_records_with_action_seqs():
    loop = ControlLoop([ExplainedController(act_on_ticks={1})], interval_seconds=0.25)
    _tick(loop, 3)
    records = loop.decision_records
    assert [r["kind"] for r in records] == ["idle", "act", "idle"]
    assert [r["tick"] for r in records] == [0, 1, 2]
    assert [r["seq"] for r in records] == [0, 1, 2]
    acting = records[1]
    assert acting["action_seqs"] == [0]
    assert loop.decision_log[0].endswith("act@1")
    assert records[0]["action_seqs"] == []
    assert records[0]["reason"] == "not this tick"
    assert loop.counter_value("control.decisions.total") == 3.0
    assert loop.counter_value("control.decisions.noop") == 2.0


def test_loop_applies_a_records_actions_in_order():
    loop = ControlLoop([BatchController()], interval_seconds=0.25)
    actuator = FakeActuator()
    _tick(loop, actuator=actuator)
    assert actuator.applied == ["step0", "step1", "step2"]
    (record,) = loop.decision_records
    assert record["actions"] == actuator.applied
    assert record["action_seqs"] == [0, 1, 2]
    assert [line.split(": ")[1] for line in loop.decision_log] == actuator.applied
    assert loop.counter_value("control.actions.batch") == 3.0


def test_loop_interleaves_multiple_controllers():
    loop = ControlLoop(
        [ExplainedController(act_on_ticks={0}), TerseController()],
        interval_seconds=0.25,
    )
    _tick(loop)
    kinds = [(r["controller"], r["action_seqs"]) for r in loop.decision_records]
    assert kinds == [("explained", [0]), ("terse", [1])]


# --- trace v2 + explain_action ----------------------------------------------


class FakeReport:
    control_log = ["t=0.250 explained: act@1"]
    telemetry = {"control.ticks": 1}
    frames_generated = 10
    frames_scored = 8

    def __init__(self, decisions):
        self.decision_records = decisions


def _trace_with_decisions():
    decisions = [
        {
            "controller": "explained",
            "kind": "act",
            "node": "node0",
            "inputs": {"tick": 1.0},
            "gates": {},
            "candidates": [],
            "actions": ["act@1"],
            "reason": None,
            "tick": 1,
            "t": 0.25,
            "seq": 0,
            "action_seqs": [0],
        }
    ]
    return control_trace_records(FakeReport(decisions))


def test_trace_carries_decision_records():
    records = _trace_with_decisions()
    header = records[0]
    assert header["schema"] == "repro.control.trace/v2"
    assert header["decisions"] == 1
    decision_lines = [r for r in records if r["type"] == "decision"]
    assert len(decision_lines) == 1
    assert decision_lines[0]["action_seqs"] == [0]


def test_explain_action_walks_back_to_decision():
    records = _trace_with_decisions()
    decision = explain_action(records, 0)
    assert decision["controller"] == "explained"
    assert decision["inputs"] == {"tick": 1.0}


def test_explain_action_missing_action_raises_index_error():
    with pytest.raises(IndexError):
        explain_action(_trace_with_decisions(), 99)


def test_explain_action_unclaimed_action_raises_key_error():
    records = control_trace_records(FakeReport([]))
    with pytest.raises(KeyError, match="No decision record claims"):
        explain_action(records, 0)


def test_first_difference_names_the_decision_record_key():
    a = _trace_with_decisions()
    b = _trace_with_decisions()
    b[1 + 1]["kind"] = "other"  # header, action, then the decision line
    difference = first_difference(a, b)
    assert difference.path == "[2].kind"
    assert a[2]["type"] == "decision" and difference.variant == "other"


# --- every controller explains every action ---------------------------------


def test_golden_scenario_every_action_has_a_decision():
    report = build_report()
    records = control_trace_records(report)
    for seq in range(len(report.control_log)):
        decision = explain_action(records, seq)
        assert decision["controller"]
        assert decision["actions"]
    # ... and every decision's claimed action texts match the decision log.
    for decision in (r for r in records if r["type"] == "decision"):
        for offset, seq in enumerate(decision["action_seqs"]):
            assert report.control_log[seq].endswith(decision["actions"][offset])


@pytest.mark.parametrize(
    "gate, value",
    [("high_watermark_seconds", 0.31)],
)
def test_perturbed_gate_changes_the_trace(gate, value):
    """The provenance layer records real thresholds: nudging a shedding
    watermark produces a different trace (mutation-verified explainability)."""
    from dataclasses import replace

    from golden_scenario import build_control_loop
    from repro.fleet import ShardedFleetRuntime, ShardingConfig

    baseline = control_trace_records(build_report())
    loop = build_control_loop()
    shedding = loop.controllers[0]
    assert isinstance(shedding, AdaptiveSheddingController)
    assert getattr(shedding.config, gate) != value
    perturbed_loop = ControlLoop(
        [
            AdaptiveSheddingController(replace(shedding.config, **{gate: value})),
            *loop.controllers[1:],
        ],
        interval_seconds=loop.interval_seconds,
    )
    config = ShardingConfig(
        num_nodes=2,
        placement="round_robin",
        total_uplink_bps=100_000.0,
        uplink_sharing="work_conserving",
        node_config=NODE_CONFIG,
    )
    perturbed = control_trace_records(
        ShardedFleetRuntime(
            golden_cameras(), config=config, control_loop=perturbed_loop
        ).run()
    )
    assert first_difference(baseline, perturbed) is not None, (
        "perturbing a recorded gate must change the trace"
    )
    # The drifted gate itself is visible in some decision record's gates.
    gates = [
        r["gates"].get(gate)
        for r in perturbed
        if r.get("type") == "decision" and r.get("controller") == "adaptive_shedding"
    ]
    assert value in gates
