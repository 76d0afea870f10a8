"""``tools/parity.py`` driven by a canned runner: no process, no clock."""

from __future__ import annotations

import json
from pathlib import Path

import parity
import pytest

BASE = Path("/trees/base")


def delivery_log(states: list[str]) -> bytes:
    return "".join(
        json.dumps({"key": f"cam000/e0/{i}", "state": state, "attempts": 1}, sort_keys=True) + "\n"
        for i, state in enumerate(states)
    ).encode()


EVENT_DEMO = {
    "stdout.txt": b"events published 20\nF1 0.61\n",
    "out/delivery_log.jsonl": delivery_log(["acked"] * 20),
    "out/delivery_report.json": json.dumps({"outcomes": {"acked": 20, "dead_letter": 0}}).encode(),
}


def flip_one_bit(data: bytes, needle: bytes, occurrence: int) -> bytes:
    """``data`` with the lowest bit of the last byte of ``needle``'s n-th match flipped."""
    at = -1
    for _ in range(occurrence):
        at = data.index(needle, at + 1)
    at += len(needle) - 1
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


class CannedRunner:
    """Writes each call's canned files into the run directory and logs the calls.

    A ``None`` in place of the files is a tree without the producer.
    """

    def __init__(self, outputs: list[dict[str, bytes] | None], status: int = 0) -> None:
        self.outputs = iter(outputs)
        self.status = status
        self.calls: list[tuple[Path, str]] = []

    def __call__(self, tree: Path, entry: dict, workdir: Path) -> int | None:
        self.calls.append((tree, entry["name"]))
        files = next(self.outputs)
        if files is None:
            return None
        for name, data in files.items():
            (workdir / name).parent.mkdir(parents=True, exist_ok=True)
            (workdir / name).write_bytes(data)
        return self.status


def gate(tmp_path, runner, *argv: str) -> int:
    return parity.main([*argv, "--out", str(tmp_path)], runner)


def test_identical_runs_are_same(tmp_path, capsys):
    runner = CannedRunner([EVENT_DEMO, EVENT_DEMO])
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 0
    assert runner.calls == [(parity.REPO, "event_demo")] * 2
    out = capsys.readouterr().out
    assert "event_demo" in out and "same" in out and "ok: 1 of 1 entries pass" in out


def test_a_planted_bit_in_the_delivery_log_is_named_by_file_line_and_key(tmp_path, capsys):
    planted = flip_one_bit(EVENT_DEMO["out/delivery_log.jsonl"], b"acked", occurrence=17)
    runner = CannedRunner([EVENT_DEMO, {**EVENT_DEMO, "out/delivery_log.jsonl": planted}])
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 1
    out = capsys.readouterr().out
    assert "DIFFERENT" in out
    assert "out/delivery_log.jsonl:17 state: reference 'acked' != variant 'ackee'" in out


def test_a_json_artifact_names_its_first_differing_key_path(tmp_path, capsys):
    report = json.dumps({"outcomes": {"acked": 19, "dead_letter": 1}}).encode()
    runner = CannedRunner([EVENT_DEMO, {**EVENT_DEMO, "out/delivery_report.json": report}])
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 1
    out = capsys.readouterr().out
    assert "out/delivery_report.json outcomes.acked: reference 20 != variant 19" in out


@pytest.mark.parametrize(
    "planted",
    [
        b'{"outcomes": {"acked": 20.0, "dead_letter": 0}}',
        b'{"outcomes": {"acked": 20, "dead_letter": -0}}',
        b'{"outcomes": {"dead_letter": 0, "acked": 20}}',
        b'{"outcomes": {"acked": 20,  "dead_letter": 0}}',
    ],
    ids=["int-to-float", "negative-zero", "key-order", "spacing"],
)
def test_equal_values_in_unequal_bytes_are_named_by_their_first_byte(tmp_path, capsys, planted):
    runner = CannedRunner([EVENT_DEMO, {**EVENT_DEMO, "out/delivery_report.json": planted}])
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 1
    out = capsys.readouterr().out
    assert "DIFFERENT" in out and "out/delivery_report.json:1 byte " in out


def test_a_byte_artifact_names_its_first_differing_offset(tmp_path, capsys):
    stdout = b"events published 20\nF1 0.62\n"
    runner = CannedRunner([EVENT_DEMO, {**EVENT_DEMO, "stdout.txt": stdout}])
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 1
    out = capsys.readouterr().out
    assert "stdout.txt:2 byte 26: reference 'F1 0.61' != variant 'F1 0.62'" in out


def test_a_not_compared_field_is_skipped(tmp_path, capsys, monkeypatch):
    entry = {
        "name": "timed",
        "command": ["timed.py"],
        "artifacts": {"report.json": "json"},
        "not_compared": {"wall_s": "a wall-clock reading"},
    }
    monkeypatch.setattr(parity, "MANIFEST", (entry,))

    def reading(wall_s: float, frames: int) -> dict[str, bytes]:
        return {"report.json": json.dumps({"wall_s": wall_s, "frames": frames}).encode()}

    assert gate(tmp_path, CannedRunner([reading(1.5, 96), reading(2.5, 96)]), "rerun") == 0
    assert gate(tmp_path, CannedRunner([reading(1.5, 96), reading(1.5, 95)]), "rerun") == 1
    assert "report.json frames: reference 96 != variant 95" in capsys.readouterr().out


def e2e_file(digest: str, mc_forward_calls: int) -> dict[str, bytes]:
    record = {
        "end_to_end": {"digest": digest, "metrics": {"ops_per_s": {"value": 123.4}}},
        "per_layer": {"metrics": {"core.mc_forward_calls": {"value": mc_forward_calls},
                                  "core.mc_forward_s": {"value": 0.25}}},
    }  # fmt: skip
    return {"e2e.json": json.dumps({"workloads": {"many_mc_stream": record}}).encode()}


def test_base_prints_a_moved_exact_count_and_gates_the_digest(tmp_path, capsys):
    only = ("--only", "e2e")
    head, base = e2e_file("abc", 80), e2e_file("abc", 100)
    runner = CannedRunner([head, head, base])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 0
    assert runner.calls == [(parity.REPO, "e2e"), (parity.REPO, "e2e"), (BASE, "e2e")]
    out = capsys.readouterr().out
    assert "rerun same, base moved" in out
    assert "base: moved: e2e.json many_mc_stream.exact_counts.core.mc_forward_calls: " \
        "reference 100 != variant 80" in out  # fmt: skip
    # A rerun gates the same count; the base gates a digest; wall clock is never read.
    runner = CannedRunner([head, e2e_file("abc", 100), base])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 1
    assert "rerun DIFFERENT" in capsys.readouterr().out
    runner = CannedRunner([e2e_file("abd", 100), e2e_file("abd", 100), base])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 1
    assert "many_mc_stream.sim_digest: reference 'abc' != variant 'abd'" in capsys.readouterr().out


def test_base_runs_each_producer_only_against_the_references_its_entry_lists(tmp_path, capsys):
    stdout = {"stdout.txt": b"frames 96\n"}
    runner = CannedRunner([EVENT_DEMO, EVENT_DEMO, EVENT_DEMO, stdout, stdout])
    argv = ("base", str(BASE), "--only", "event_demo", "quickstart")
    assert gate(tmp_path, runner, *argv) == 0
    head = [(parity.REPO, "event_demo"), (parity.REPO, "event_demo"), (BASE, "event_demo")]
    assert runner.calls == [*head, (parity.REPO, "quickstart"), (BASE, "quickstart")]
    out = capsys.readouterr().out
    assert "rerun same, base same" in out and "ok: 2 of 2 entries pass" in out


def test_an_entry_the_base_tree_cannot_produce_is_new(tmp_path, capsys):
    only = ("--only", "event_demo")
    runner = CannedRunner([EVENT_DEMO, EVENT_DEMO, None])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 0
    assert "rerun same, base new" in capsys.readouterr().out
    without_report = {k: v for k, v in EVENT_DEMO.items() if k != "out/delivery_report.json"}
    runner = CannedRunner([EVENT_DEMO, EVENT_DEMO, without_report])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 0
    assert "base: new: the base tree writes no out/delivery_report.json" in capsys.readouterr().out
    # The head must produce it, though.
    runner = CannedRunner([without_report, without_report, EVENT_DEMO])
    assert gate(tmp_path, runner, "base", str(BASE), *only) == 1


def test_a_producer_that_exits_non_zero_fails_its_entry(tmp_path, capsys):
    runner = CannedRunner([EVENT_DEMO, EVENT_DEMO], status=1)
    assert gate(tmp_path, runner, "rerun", "--only", "event_demo") == 1
    assert "FAILED" in capsys.readouterr().out


def test_every_manifest_artifact_has_a_reader():
    for entry in parity.MANIFEST:
        assert set(entry["artifacts"].values()) <= {"bytes", "json", "jsonl", "e2e"}
        assert set(entry.get("references", ("rerun",))) <= {"rerun", "base"}


FLEET_EXAMPLES = (
    "fleet_simulation", "sharded_fleet", "adaptive_fleet", "accuracy_fleet", "value_aware_fleet",
)


def test_the_fleet_examples_are_gated_against_the_base_and_run_nowhere_else():
    entries = {entry["name"]: entry for entry in parity.MANIFEST}
    ci = (parity.REPO / ".github" / "workflows" / "ci.yml").read_text()
    for name in FLEET_EXAMPLES:
        entry = entries[name]
        assert entry["command"] == [f"{{tree}}/examples/{name}.py"]
        assert entry["artifacts"] == {"stdout.txt": "bytes"}
        assert entry["references"] == ("base",)
        assert f"examples/{name}.py" not in ci


def test_the_incident_demo_is_gated_against_the_base():
    entry = next(entry for entry in parity.MANIFEST if entry["name"] == "incident_demo")
    assert "base" in entry.get("references", ("rerun", "base"))


def test_every_size_variable_an_entry_sets_is_read_by_its_producer():
    # A mistyped variable would silently run its entry at the producer's defaults.
    for entry in parity.MANIFEST:
        source = parity.producer(parity.REPO, entry).read_text(encoding="utf-8")
        for key in entry.get("env", {}):
            assert f'"{key}"' in source, (entry["name"], key)


@pytest.mark.parametrize("argv", [["rerun", "/some/tree"], ["base"], ["rerun", "--only", "nope"]])
def test_rejects_a_malformed_command_line(argv, tmp_path):
    with pytest.raises(SystemExit):
        gate(tmp_path, CannedRunner([]), *argv)
