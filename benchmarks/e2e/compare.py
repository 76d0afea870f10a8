#!/usr/bin/env python3
"""Compare two ``run.py --out`` files metric by metric.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric it prints both medians, the ratio
change/parent (the parent is the base), the bound ``BENCHMARK.json`` fixes,
and a verdict:

``ok``          the change is not worse than the parent by more than the bound;
``worse``       it is;
``unresolved``  it is not, but the rep-to-rep spread of either side is wider
                than the bound, so "unchanged" cannot be claimed -- unless every
                rep of the change reads better than every rep of the parent.

``failed_ops_share`` may not rise at all.  The run digest and every count in
the per-layer ledger that must repeat bit-for-bit are compared for equality
and reported as ``same`` or ``DIFFERENT`` (a modelling change moves them on
purpose; a change that only claims speed must not).  Exits non-zero on any
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ledger import EXACT_METRICS
from run import load_spec


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def spread(values: list[float], centre: float) -> float:
    """Full rep-to-rep range as a share of the median."""
    return (max(values) - min(values)) / abs(centre) if centre and len(values) > 1 else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    if worsening(parent["value"], change["value"], better) > bound:
        return "worse"
    a, b = parent.get("values", []), change.get("values", [])
    if max(spread(a, parent["value"]), spread(b, change["value"])) <= bound:
        return "ok"
    clear_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
    return "ok" if clear_win else "unresolved"


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines for two result files, and whether anything got worse."""
    lines: list[str] = []
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent["workloads"] or workload not in change["workloads"]:
            lines.append(f"{workload}: missing from one file, skipped")
            continue
        a, b = parent["workloads"][workload], change["workloads"][workload]
        lines.append(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            pa, pb = a["end_to_end"]["metrics"][name], b["end_to_end"]["metrics"][name]
            status = verdict(pa, pb, better, bound)
            any_worse |= status == "worse"
            ratio = pb["value"] / pa["value"] if pa["value"] else float("nan")
            lines.append(
                f"  {name:<12s} parent {pa['value']:>12.6g}  change {pb['value']:>12.6g} "
                f"{metric['unit']:<4s} ratio {ratio:6.3f} of parent  "
                f"({better} is better, bound {bound:.0%})  {status}"
            )
        fa, fb = a["end_to_end"]["failed_ops_share"], b["end_to_end"]["failed_ops_share"]
        any_worse |= fb > fa
        lines.append(
            f"  {'failed_ops_share':<12s} parent {fa:g}  change {fb:g}  "
            f"(bound 0, absolute)  {'worse' if fb > fa else 'ok'}"
        )
        da, db = a["end_to_end"]["digest"], b["end_to_end"]["digest"]
        lines.append(f"  sim_digest   {'same ' + da if da == db else f'DIFFERENT: {da} vs {db}'}")
        la, lb = a["per_layer"]["metrics"], b["per_layer"]["metrics"]
        moved = [n for n in EXACT_METRICS if la[n]["value"] != lb[n]["value"]]
        lines.append(
            f"  exact counts {'same' if not moved else 'DIFFERENT: ' + ', '.join(moved)}"
        )
    return lines, any_worse


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    lines, any_worse = compare(parent, change, load_spec())
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
