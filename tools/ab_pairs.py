#!/usr/bin/env python3
"""ab_pairs: alternating parent/change runs of one end-to-end workload.

    python tools/ab_pairs.py --parent ../base --change . --workload event_storm
                             [--pairs 10] [--seed N] [--seconds S]

Each pair runs both trees' own ``benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0`` (the command of ``BENCHMARK.json``), one after the
other, and the side that goes first alternates from pair to pair.  The last
line of a run's standard output is the benchmark contract's JSON object.

For every end-to-end metric of ``BENCHMARK.json`` it prints every run made,
both medians, both quartile pairs, in how many pairs the change read better
(ties count for neither side), and whether the medians are further apart than
the parent's own quartiles are.  Each metric's block ends with two verdicts:
``benchmarks/e2e/compare.py``'s no-regression verdict (``ok`` / ``worse`` /
``unresolved``) over the runs' results, and ``gain: met`` when the change read
better in at least 9 of every 10 pairs and its median is better than the
parent's by more than the parent's quartile spread, else ``gain: not met``.
It is a report, not a gate: the exit status is non-zero only when a run
produced no result or counted a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "e2e"))
from compare import verdict  # noqa: E402  (the benchmark's own no-regression rule)

# (tree, command) -> the run's standard output.
Runner = Callable[[Path, list[str]], str]


def run_in_tree(tree: Path, command: list[str]) -> str:
    """Run ``command`` from ``tree``; its standard error goes to ours."""
    return subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True).stdout


def contract_record(stdout: str) -> dict:
    """What the report reads of the contract's JSON object: a run's last output line."""
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
        return {"metrics": record["metrics"], "failed": record["failed"]}
    except (IndexError, ValueError, KeyError, TypeError):
        raise ValueError("the run did not end with the contract's JSON line") from None


def run_pairs(
    parent: Path, change: Path, command: list[str], pairs: int, runner: Runner
) -> tuple[list[dict], list[dict]]:
    """``pairs`` records per side; even pairs run the parent first, odd the change."""
    trees, records = (parent, change), ([], [])
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            records[side].append(contract_record(runner(trees[side], command)))
        print(f"pair {pair + 1} of {pairs} done", file=sys.stderr)
    return records


def report(spec: dict, parent: list[dict], change: list[dict]) -> list[str]:
    """The report's lines for the paired records of the two sides."""
    lines: list[str] = []
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        a = [record["metrics"][name]["value"] for record in parent]
        b = [record["metrics"][name]["value"] for record in change]
        (a1, a2, a3), (b1, b2, b3) = (
            statistics.quantiles(values, n=4, method="inclusive") for values in (a, b)
        )
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        ratio = b2 / a2 if a2 else float("nan")
        apart = "further apart" if abs(b2 - a2) > a3 - a1 else "NOT further apart"
        status = verdict(
            {"value": a2, "values": a}, {"value": b2, "values": b}, better, metric["bound"]
        )
        gain = 10 * wins >= 9 * len(a) and sign * (b2 - a2) > a3 - a1
        lines += [
            f"{name} [{metric['unit']}], {better} is better",
            f"  parent runs  {' '.join(f'{x:.6g}' for x in a)}",
            f"  change runs  {' '.join(f'{y:.6g}' for y in b)}",
            f"  parent median {a2:.6g}  quartiles {a1:.6g} .. {a3:.6g}",
            f"  change median {b2:.6g}  quartiles {b1:.6g} .. {b3:.6g}  "
            f"ratio {ratio:.3f} of parent",
            f"  change ahead in {wins} of {len(a)} pairs, {ties} ties; medians {apart} "
            f"than the parent's quartiles ({abs(b2 - a2):.6g} vs {a3 - a1:.6g})",
            f"  no regression: {status} (bound {metric['bound']:.0%})",
            f"  gain: {'met' if gain else 'not met'}",
        ]
    return lines


def main(argv: list[str] | None = None, runner: Runner = run_in_tree) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")

    command = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", "0"]
    try:
        parent, change = run_pairs(args.parent, args.change, command, args.pairs, runner)
    except ValueError as error:
        print(f"FAILED: {error}")
        return 1
    print(f"{args.workload} | seed {args.seed} | {args.seconds:g} s a run | {args.pairs} pairs")
    print("\n".join(report(spec, parent, change)))
    failed = [sum(record["failed"] for record in records) for records in (parent, change)]
    print(f"failed operations: parent {failed[0]}, change {failed[1]}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
