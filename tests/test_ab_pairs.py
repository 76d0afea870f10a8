"""``tools/ab_pairs.py`` driven by a canned runner: no process, no clock."""

from __future__ import annotations

import json
from pathlib import Path

import ab_pairs
import pytest

PARENT, CHANGE = Path("/trees/parent"), Path("/trees/change")


def contract_line(ops_per_s: float, run_s: float, failed: int = 0) -> str:
    values = {"ops_per_s": ops_per_s, "setup_s": 0.5, "run_s": run_s, "peak_rss_mb": 100.0}
    record = {
        "correct": failed == 0,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }
    return f"== some workload | end to end\n  ops_per_s {ops_per_s}\n{json.dumps(record)}\n"


class CannedRunner:
    """Hands out each tree's canned outputs in order and logs the calls."""

    def __init__(self, parent: list[str], change: list[str]) -> None:
        self.outputs = {PARENT: iter(parent), CHANGE: iter(change)}
        self.calls: list[tuple[Path, list[str]]] = []

    def __call__(self, tree: Path, command: list[str]) -> str:
        self.calls.append((tree, command))
        return next(self.outputs[tree])


ARGV = ["--parent", str(PARENT), "--change", str(CHANGE), "--workload", "event_storm"]


def test_reports_medians_quartiles_and_wins(capsys):
    # The change is faster in pairs 1, 2 and 4, ties pair 3.
    runner = CannedRunner(
        parent=[contract_line(v, 100 / v) for v in (100.0, 104.0, 108.0, 112.0)],
        change=[contract_line(v, 100 / v) for v in (150.0, 160.0, 108.0, 170.0)],
    )
    status = ab_pairs.main([*ARGV, "--pairs", "4", "--seed", "3", "--seconds", "2"], runner)
    assert status == 0
    # Alternating order, each tree driven with the benchmark's own command.
    assert [tree for tree, _ in runner.calls] == [
        PARENT, CHANGE, CHANGE, PARENT, PARENT, CHANGE, CHANGE, PARENT,
    ]  # fmt: skip
    assert {tuple(command) for _, command in runner.calls} == {
        ("python3", "benchmarks/e2e/run.py", "--workload", "event_storm", "--seed", "3",
         "--seconds", "2.0", "--trace", "0")
    }  # fmt: skip
    out = capsys.readouterr().out
    ops, run_s = out[out.index("ops_per_s") : out.index("setup_s")], out[out.index("run_s") :]
    assert "parent median 106  quartiles 103 .. 109" in ops
    assert "change median 155  quartiles 139.5 .. 162.5  ratio 1.462 of parent" in ops
    assert "change ahead in 3 of 4 pairs, 1 ties; medians further apart" in ops
    assert "(49 vs 6)" in ops
    # Lower is better for run_s: the same three pairs are wins there too.
    assert "change ahead in 3 of 4 pairs, 1 ties" in run_s
    # A metric that never moves is neither ahead nor further apart.
    setup = out[out.index("setup_s") : out.index("run_s")]
    assert "change ahead in 0 of 4 pairs, 4 ties; medians NOT further apart" in setup
    assert "failed operations: parent 0, change 0" in out


def block(out: str, metric: str) -> list[str]:
    """One metric's lines of the report: its header and the indented lines under it."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{metric} ["))
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return lines[start:end]


def test_verdicts_end_each_block(capsys):
    # The change is faster in pairs 1, 2 and 4, ties pair 3: ahead, but not 9 in 10.
    runner = CannedRunner(
        parent=[contract_line(v, 100 / v) for v in (100.0, 104.0, 108.0, 112.0)],
        change=[contract_line(v, 100 / v) for v in (150.0, 160.0, 108.0, 170.0)],
    )
    assert ab_pairs.main([*ARGV, "--pairs", "4"], runner) == 0
    out = capsys.readouterr().out
    for metric in ("ops_per_s", "setup_s", "run_s", "peak_rss_mb"):
        lines = block(out, metric)
        assert lines[-2].startswith("  no regression: ")
        assert lines[-1] in ("  gain: met", "  gain: not met")
    # 1.46x the parent, but the change's runs spread 40 % and do not all beat the parent's.
    assert block(out, "ops_per_s")[-2:] == ["  no regression: unresolved (bound 25%)", "  gain: not met"]
    assert block(out, "setup_s")[-2:] == ["  no regression: ok (bound 25%)", "  gain: not met"]


def test_a_worse_change_reads_worse(capsys):
    runner = CannedRunner(
        parent=[contract_line(v, 1.0) for v in (100.0, 101.0, 102.0, 103.0)],
        change=[contract_line(v, 1.0) for v in (60.0, 61.0, 62.0, 63.0)],
    )
    assert ab_pairs.main([*ARGV, "--pairs", "4"], runner) == 0
    ops = block(capsys.readouterr().out, "ops_per_s")
    assert ops[-2:] == ["  no regression: worse (bound 25%)", "  gain: not met"]


def test_a_wide_spread_reads_unresolved(capsys):
    # Not worse than the parent's median, but either side spreads past the 25 % bound
    # and the change does not beat every parent run.
    runner = CannedRunner(
        parent=[contract_line(v, 1.0) for v in (80.0, 120.0, 80.0, 120.0)],
        change=[contract_line(v, 1.0) for v in (85.0, 125.0, 85.0, 125.0)],
    )
    assert ab_pairs.main([*ARGV, "--pairs", "4"], runner) == 0
    ops = block(capsys.readouterr().out, "ops_per_s")
    assert ops[-3].startswith("  change ahead in 4 of 4 pairs")
    # Every pair won, but the medians are 5 apart against the parent's quartile spread of 40.
    assert ops[-2:] == ["  no regression: unresolved (bound 25%)", "  gain: not met"]


def test_a_gain_is_met_at_nine_wins_in_ten_with_a_tie(capsys):
    # Nine wins and one tie (ties count for neither side), medians 20 apart against a
    # parent quartile spread of 4.5.
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    change = [v + 20.0 for v in parent[:9]] + [parent[9]]
    runner = CannedRunner(
        parent=[contract_line(v, 1.0) for v in parent],
        change=[contract_line(v, 1.0) for v in change],
    )
    assert ab_pairs.main([*ARGV], runner) == 0
    out = capsys.readouterr().out
    ops = block(out, "ops_per_s")
    assert ops[-3].startswith("  change ahead in 9 of 10 pairs, 1 ties; medians further apart")
    assert ops[-2:] == ["  no regression: ok (bound 25%)", "  gain: met"]
    assert block(out, "setup_s")[-1] == "  gain: not met"  # never moved


def test_eight_wins_in_ten_are_no_gain(capsys):
    parent = [100.0 + k for k in range(10)]
    change = [v + 20.0 for v in parent[:8]] + [parent[8] - 1.0, parent[9]]
    runner = CannedRunner(
        parent=[contract_line(v, 1.0) for v in parent],
        change=[contract_line(v, 1.0) for v in change],
    )
    assert ab_pairs.main([*ARGV], runner) == 0
    ops = block(capsys.readouterr().out, "ops_per_s")
    assert ops[-3].startswith("  change ahead in 8 of 10 pairs, 1 ties; medians further apart")
    assert ops[-1] == "  gain: not met"


def test_failed_operations_fail_the_report(capsys):
    runner = CannedRunner(
        parent=[contract_line(100.0, 1.0), contract_line(101.0, 1.0)],
        change=[contract_line(100.0, 1.0), contract_line(100.0, 1.0, failed=7)],
    )
    assert ab_pairs.main([*ARGV, "--pairs", "2"], runner) == 1
    assert "failed operations: parent 0, change 7" in capsys.readouterr().out


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n  boom\n", "[1, 2]\n"])
def test_a_run_without_a_result_fails(capsys, stdout):
    runner = CannedRunner(parent=[stdout], change=[])
    assert ab_pairs.main([*ARGV, "--pairs", "2"], runner) == 1
    assert "did not end with the contract's JSON line" in capsys.readouterr().out
