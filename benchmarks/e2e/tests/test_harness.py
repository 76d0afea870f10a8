"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e/tests -q -o addopts=``; deliberately
outside tier-1's ``testpaths``.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class FakeClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.work(2.0)

    def middle():
        clock.work(1.0)
        traced_leaf()
        clock.work(0.5)
        traced_leaf()

    traced_leaf = tracer.traced("leaf", leaf)
    traced_middle = tracer.traced("middle", middle)
    with tracer.span("root"):
        clock.work(0.25)
        traced_middle()
        traced_leaf()

    assert tracer.calls("leaf") == 3 and tracer.calls("middle") == 1
    assert tracer.self_seconds("leaf") == pytest.approx(6.0)
    assert tracer.self_seconds("middle") == pytest.approx(1.5)
    assert tracer.self_seconds("root") == pytest.approx(0.25)
    # Self times partition the wall clock: they add up to it exactly once.
    assert tracer.self_seconds("root", "middle", "leaf") == pytest.approx(clock.now)
    assert sorted(tracer.durations("leaf")) == pytest.approx([2.0, 2.0, 2.0])
    # Parents: the root has none, middle hangs off the root, leaves off either.
    by_index = {index: (name, parent) for index, name, _, _, parent in tracer.kept_spans()}
    assert by_index[0] == ("root", -1)
    assert by_index[1] == ("middle", 0)
    assert sorted(parent for name, parent in by_index.values() if name == "leaf") == [0, 1, 1]


def test_spans_beyond_the_cap_keep_only_the_aggregate():
    clock = FakeClock()
    tracer = spans.Tracer(span_cap=3, clock=clock)
    hot = tracer.traced("hot", lambda: clock.work(1.0))
    cold = tracer.traced("cold", lambda: clock.work(1.0))
    for _ in range(5):
        hot()
    cold()
    assert tracer.calls("hot") == 5
    assert tracer.self_seconds("hot") == pytest.approx(5.0)
    assert [name for _, name, *_ in tracer.kept_spans()] == ["cold"]


def test_wrappers_are_removed_after_the_traced_rep():
    run.bootstrap()
    targets = [spans.resolve(target) for _, target in spans.BOUNDARIES]
    before = [vars(owner)[attr] for owner, attr in targets]

    tracer = spans.Tracer()
    tracer.wrap_boundaries()
    assert all(vars(owner)[attr] is not raw for (owner, attr), raw in zip(targets, before))
    tracer.unwrap()
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(targets, before))

    # ... and a whole traced run leaves nothing behind either.
    record = run.run_workload(
        "edge16_steady", seed=0, seconds=0.0, reps=1, trace=True, quick=True, trace_out=None
    )
    assert record["failed"] == 0
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(targets, before))


def test_private_names_are_refused():
    with pytest.raises(ValueError):
        spans.resolve("repro.fleet.runtime:FleetRuntime._dispatch")


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.9) == 5.0
    assert stats.percentile(values, 0.2) == 1.0


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory) -> dict:
    """``run.py --quick`` over every workload, the way a person runs it."""
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_quick_run_emits_every_declared_metric(quick_results):
    assert set(quick_results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in quick_results["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            record = result[section]
            assert record["failed"] == 0 and record["attempted"] >= 1, name
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {n: m["unit"] for n, m in record["metrics"].items()} == declared, name
        assert result["end_to_end"]["digest"] == result["per_layer"]["digest"], name
        assert all(m["value"] > 0 for m in result["end_to_end"]["metrics"].values()), name
    # The layers a workload never enters read exactly zero.
    storm = quick_results["workloads"]["event_storm"]["per_layer"]["metrics"]
    assert all(
        metric["value"] == 0
        for name, metric in storm.items()
        if name.startswith(("nn.", "video.", "fleet.", "core.", "control.", "obs."))
    )
    many = quick_results["workloads"]["many_mc_stream"]["per_layer"]["metrics"]
    assert many["nn.batched_calls"]["value"] == 0 and many["nn.single_forward_calls"]["value"] > 0


def test_driver_invocation_ends_with_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "event_storm", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def scaled(results: dict, workload: str, metric: str, factor: float) -> dict:
    changed = copy.deepcopy(results)
    entry = changed["workloads"][workload]["end_to_end"]["metrics"][metric]
    entry["value"] *= factor
    entry["values"] = [v * factor for v in entry["values"]]
    return changed


def test_compare_flags_a_regression_and_passes_noise(quick_results):
    lines, worse = compare.compare(quick_results, quick_results, SPEC)
    assert not worse and not any("DIFFERENT" in line for line in lines)

    # A regression is whatever exceeds the bound BENCHMARK.json fixes.
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    beyond = 1.0 + bound["run_s"] + 0.05
    slower = scaled(quick_results, "edge16_steady", "run_s", beyond)
    lines, worse = compare.compare(quick_results, slower, SPEC)
    assert worse
    assert [line for line in lines if line.rstrip().endswith("worse")] == [
        line for line in lines if "run_s" in line and f"{beyond:6.3f}" in line
    ]

    within = scaled(quick_results, "edge16_steady", "run_s", 1.03)
    assert not compare.compare(quick_results, within, SPEC)[1]
    # Higher-is-better metrics regress downwards.
    fewer = scaled(quick_results, "event_storm", "ops_per_s", 1.0 - bound["ops_per_s"] - 0.05)
    assert compare.compare(quick_results, fewer, SPEC)[1]
    # Any failed operation is a regression, whatever the timings say.
    broken = copy.deepcopy(quick_results)
    broken["workloads"]["event_storm"]["end_to_end"]["failed_ops_share"] = 0.001
    assert compare.compare(quick_results, broken, SPEC)[1]


def test_compare_reports_wide_spread_as_unresolved():
    parent = {"value": 1.0, "values": [0.8, 1.0, 1.3]}
    assert compare.verdict(parent, {"value": 1.02, "values": [1.0, 1.02, 1.04]}, "lower", 0.10) == "unresolved"
    # ... unless every rep of the change beats every rep of the parent.
    assert compare.verdict(parent, {"value": 0.7, "values": [0.69, 0.7, 0.71]}, "lower", 0.10) == "ok"
    assert compare.verdict(parent, {"value": 1.2, "values": [1.2, 1.2, 1.2]}, "lower", 0.10) == "worse"
