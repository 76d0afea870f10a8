"""The conservation invariants hold on a real record and catch each planted violation.

Every case corrupts one field of a copy of the imbalanced cluster's record,
SLO accounting on (or of its scenario), and names the assertion of
:func:`~oracles.invariants.assert_invariants` that must fail: a check that
fires on the wrong line, or not at all, is as good as missing.
"""

import copy
from dataclasses import replace

import pytest

from oracles.invariants import assert_invariants
from oracles.records import run_cluster
from oracles.registry import IMBALANCED
from oracles.scenarios import OBSERVED_SLO

# SLO accounting changes no frame's fate: the record is IMBALANCED's, plus SLO reports.
OBSERVED = replace(IMBALANCED, node=replace(IMBALANCED.node, slo=OBSERVED_SLO))


@pytest.fixture(scope="module")
def record():
    return run_cluster(OBSERVED)


def node(record, node_id, **fields):
    """``record`` with ``fields`` of one node's run replaced."""
    return replace(record, nodes=record.nodes | {node_id: replace(record.nodes[node_id], **fields)})


def first_camera(record, node_id="node0"):
    return next(iter(record.nodes[node_id].report.cameras.values()))


def first_stint(record, node_id="node0"):
    return next(iter(record.nodes[node_id].stints.values()))


def bump(mapping, key, by=1):
    mapping[key] = mapping.get(key, 0) + by


def lose_a_frame(scenario, record):
    first_camera(record).frames_scored -= 1
    return scenario, record


def miscount_telemetry(scenario, record):
    bump(record.nodes["node0"].report.telemetry, "frames.admitted")
    return scenario, record


def miscount_report(scenario, record):
    record.nodes["node0"].report.frames_rejected += 1
    return scenario, record


def reject_without_cause(scenario, record):
    return scenario, node(record, "node0", admission_rejected=record.nodes["node0"].admission_rejected - 1)


def reject_twice(scenario, record):
    # An admission rejection also counted as a blackout: one frame, two causes.
    bump(record.nodes["node0"].report.telemetry, "frames.migration_blackout")
    return scenario, record


def uncounted_blackout(scenario, record):
    bump(record.nodes["node1"].report.telemetry, "frames.migration_blackout")
    return scenario, record


def hold_a_slot(scenario, record):
    return scenario, node(record, "node0", slots_held=1)


def miscount_queue_waits(scenario, record):
    record.nodes["node0"].report.telemetry["latency.queue_wait_seconds"]["count"] += 1
    return scenario, record


def miscount_service_times(scenario, record):
    record.nodes["node1"].report.telemetry["worker.service_seconds"]["count"] -= 1
    return scenario, record


def reorder_stints(scenario, record):
    stints = record.nodes["node0"].stints
    return scenario, node(record, "node0", stints=dict(reversed(stints.items())))


def miscount_stint_events(scenario, record):
    first_stint(record)["events"] += 1
    return scenario, record


def miscount_stint_bits(scenario, record):
    first_stint(record, "node1")["uploaded_bits"] += 1.0
    return scenario, record


def raise_high_water(scenario, record):
    first_stint(record)["queue_high_water"] += 1
    return scenario, record


def miscount_waits(scenario, record):
    first_stint(record)["wait_count"] += 1
    return scenario, record


def stretch_waits(scenario, record):
    first_stint(record)["wait_total"] += 1.0
    return scenario, record


def offer_a_frame_nowhere(scenario, record):
    spec = scenario.cameras[0]
    cameras = (replace(spec, num_frames=spec.num_frames + 1), *scenario.cameras[1:])
    return replace(scenario, cameras=cameras), record


def score_a_frame_twice(scenario, record):
    frames = first_stint(record)["scored_frames"]
    frames.append(frames[0])
    return scenario, record


def host_a_camera_twice(scenario, record):
    return scenario, node(record, "node0", hosted=(*record.nodes["node0"].hosted, "cam000"))


def host_a_camera_nowhere(scenario, record):
    return scenario, node(record, "node0", hosted=record.nodes["node0"].hosted[1:])


def migrate_in_from_nowhere(scenario, record):
    return scenario, node(record, "node1", migrated_in=record.nodes["node1"].migrated_in + 1)


def misreport_migrations(scenario, record):
    bump(record.cluster, "migrations_performed")
    return scenario, record


def count_a_flush_match_live(scenario, record):
    telemetry = record.nodes["node0"].report.telemetry
    telemetry["frames.matched"] = record.nodes["node0"].report.matched_frames + 1
    return scenario, record


def close_an_undetected_event(scenario, record):
    bump(record.nodes["node1"].report.telemetry, "events.closed", by=2)
    return scenario, record


def lose_an_event_record(scenario, record):
    return scenario, node(record, "node0", event_records=record.nodes["node0"].event_records - 1)


def with_first_status(slo, **counts):
    """``slo`` with ``counts`` of its first camera's status replaced."""
    first, *rest = slo.cameras
    return replace(slo, cameras=(replace(first, **counts), *rest))


def miscount_slo_frames(scenario, record):
    report = record.nodes["node0"].report
    report.slo = with_first_status(report.slo, frames=report.slo.cameras[0].frames + 1)
    return scenario, record


def miscount_cluster_slo(scenario, record):
    slo = record.cluster["slo"]
    record.cluster["slo"] = with_first_status(slo, fresh=slo.cameras[0].fresh - 1)
    return scenario, record


def log_an_unclaimed_action(scenario, record):
    record.cluster["control_log"].append("t=9.000 rogue: set_uplink_weights node0=1.000")
    return scenario, record


def claim_an_action_twice(scenario, record):
    claimed = next(d for d in record.cluster["decision_records"] if d["action_seqs"])
    claimed["action_seqs"].append(claimed["action_seqs"][-1])
    return scenario, record


def misquote_an_action(scenario, record):
    claimed = next(d for d in record.cluster["decision_records"] if d["action_seqs"])
    claimed["actions"][0] += " (edited)"
    return scenario, record


VIOLATIONS = [
    # (corruption, a fragment of the assertion it must fail)
    (lose_a_frame, "camera.frames_scored + camera.frames_dropped + camera.frames_rejected"),
    (miscount_telemetry, 'telemetry.get(f"frames.{name}", 0)'),
    (miscount_report, 'getattr(report, f"frames_{name}")'),
    (reject_without_cause, "node.admission_rejected"),
    (reject_twice, "node.admission_rejected"),
    (uncounted_blackout, "node.admission_rejected"),
    (hold_a_slot, "node.slots_held == 0"),
    (miscount_queue_waits, "telemetry.get(histogram"),
    (miscount_service_times, "telemetry.get(histogram"),
    (reorder_stints, "list(stints) == list(report.cameras)"),
    (miscount_stint_events, "getattr(camera, name) == sum(t[name] for t in tallies)"),
    (miscount_stint_bits, "getattr(camera, name) == sum(t[name] for t in tallies)"),
    (raise_high_water, "camera.queue_high_water"),
    (miscount_waits, "waits == camera.frames_scored"),
    (stretch_waits, "camera.mean_queue_wait_seconds"),
    (offer_a_frame_nowhere, "generated[spec.camera_id] == spec.num_frames"),
    (score_a_frame_twice, "len(frames) == len(set(frames))"),
    (host_a_camera_twice, "sorted(hosted) == sorted(generated)"),
    (host_a_camera_nowhere, "sorted(hosted) == sorted(generated)"),
    (migrate_in_from_nowhere, "node.migrated_out for node in record.nodes.values()"),
    (misreport_migrations, 'record.cluster.get("migrations_performed", migrations)'),
    (count_a_flush_match_live, 'telemetry.get("frames.matched", 0)'),
    (close_an_undetected_event, 'telemetry.get("events.closed", 0)'),
    (lose_an_event_record, "report.events_detected == node.event_records"),
    (miscount_slo_frames, "c.camera_id: (c.frames, c.scored)"),
    (miscount_cluster_slo, "} == summed"),
    (log_an_unclaimed_action, "list(range(len(log)))"),
    (claim_an_action_twice, "list(range(len(log)))"),
    (misquote_an_action, 'quoted == decision["actions"]'),
]


def test_the_imbalanced_record_satisfies_every_invariant(record):
    # The record exercises what the violations corrupt: rejections of both
    # causes, a migration, stints on both nodes, event records, and logged
    # control actions.
    telemetry = {node_id: node.report.telemetry for node_id, node in record.nodes.items()}
    assert record.nodes["node0"].admission_rejected > 0
    assert telemetry["node1"].get("frames.migration_blackout", 0) > 0
    assert record.cluster["migrations_performed"] == 1
    assert record.nodes["node0"].event_records > 0
    assert record.cluster["control_log"]
    assert record.cluster["slo"].cameras
    assert_invariants(OBSERVED, record)


@pytest.mark.parametrize(
    "corrupt, assertion", [pytest.param(c, a, id=c.__name__) for c, a in VIOLATIONS]
)
def test_a_planted_violation_fails_its_own_assertion(record, corrupt, assertion):
    scenario, corrupted = corrupt(OBSERVED, copy.deepcopy(record))
    with pytest.raises(AssertionError) as failure:
        assert_invariants(scenario, corrupted)
    assert assertion in str(failure.traceback[-1].statement)
