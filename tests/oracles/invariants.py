"""Conservation invariants every record of every entry must satisfy.

Whatever the fleet, node config, control slot or handoff schedule: every
frame is accounted for exactly once, every rejection has exactly one cause,
no admission slot outlives the run, a node's counters are the sums of its
camera reports, a camera's report is the sum of its hosting stints, no frame
is scored twice across stints, every camera ends up hosted exactly once, and
every logged control action is claimed by exactly one decision record.
"""

from __future__ import annotations

from oracles.records import TALLIES

COUNTED = ("generated", "admitted", "dropped_oldest", "dropped_newest", "rejected", "scored")


def assert_invariants(scenario, record) -> None:
    generated = {spec.camera_id: 0 for spec in scenario.cameras}
    scored_frames = {camera_id: [] for camera_id in generated}
    hosted: list[str] = []
    for node_id, node in record.nodes.items():
        report, telemetry = node.report, node.report.telemetry
        cameras = report.cameras.values()
        for camera in cameras:
            assert camera.frames_generated == (
                camera.frames_scored + camera.frames_dropped + camera.frames_rejected
            ), (node_id, camera)
            generated[camera.camera_id] += camera.frames_generated
        for name in COUNTED:
            assert telemetry.get(f"frames.{name}", 0) == sum(
                getattr(camera, f"frames_{name}") for camera in cameras
            ), (node_id, name)
        for name in ("generated", "scored", "dropped", "rejected"):
            assert getattr(report, f"frames_{name}") == sum(
                getattr(camera, f"frames_{name}") for camera in cameras
            ), (node_id, name)
        # A frame is rejected at the door or in a migration blackout, never both.
        assert telemetry.get("frames.rejected", 0) == (
            node.admission_rejected + telemetry.get("frames.migration_blackout", 0)
        ), node_id
        assert node.slots_held == 0, node_id
        # One queue-wait and one service observation per scored frame.
        for histogram in ("latency.queue_wait_seconds", "worker.service_seconds"):
            assert telemetry.get(histogram, {"count": 0})["count"] == report.frames_scored
        assert 0.0 <= report.drop_rate <= 1.0 and 0.0 < report.fairness_index <= 1.0
        assert 0 <= report.starved_cameras <= report.num_cameras
        # The live counters leave out what the end-of-run flush finalizes;
        # the report fields include it.  Every detected event was collected.
        assert telemetry.get("frames.matched", 0) <= sum(
            camera.matched_frames for camera in cameras
        ), node_id
        assert telemetry.get("events.closed", 0) <= report.events_detected, node_id
        assert report.events_detected == node.event_records, node_id

        # A camera's report is the field-wise sum of its stints on the node.
        stints: dict[str, list[dict]] = {}
        for stint in node.stints.values():
            stints.setdefault(stint["camera_id"], []).append(stint)
            scored_frames[stint["camera_id"]] += stint["scored_frames"]
        assert list(stints) == list(report.cameras), node_id
        for camera_id, tallies in stints.items():
            camera = report.cameras[camera_id]
            for name in TALLIES:
                assert getattr(camera, name) == sum(t[name] for t in tallies), (camera_id, name)
            assert camera.queue_high_water == max(t["queue_high_water"] for t in tallies)
            waits = sum(t["wait_count"] for t in tallies)
            assert waits == camera.frames_scored, camera_id
            assert camera.mean_queue_wait_seconds == (
                sum(t["wait_total"] for t in tallies) / waits if waits else 0.0
            )
        hosted += node.hosted

    # Across handoffs no frame is offered twice or scored twice, none goes
    # missing, and every camera ends up on exactly one node.
    for spec in scenario.cameras:
        assert generated[spec.camera_id] == spec.num_frames, spec.camera_id
    for camera_id, frames in scored_frames.items():
        assert len(frames) == len(set(frames)), camera_id
    assert sorted(hosted) == sorted(generated)
    migrations = sum(node.migrated_in for node in record.nodes.values())
    assert migrations == sum(node.migrated_out for node in record.nodes.values())
    assert record.cluster.get("migrations_performed", migrations) == migrations

    # Each control action is logged once, claimed by exactly one decision in
    # log order, and the decision quotes it as logged.
    log = record.cluster.get("control_log", [])
    decisions = record.cluster.get("decision_records", [])
    assert [seq for d in decisions for seq in d["action_seqs"]] == list(range(len(log)))
    for decision in decisions:
        quoted = [log[seq].partition(": ")[2] for seq in decision["action_seqs"]]
        assert quoted == decision["actions"], decision["seq"]
