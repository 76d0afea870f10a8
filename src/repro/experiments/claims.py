"""The paper scorecard: each headline number of the paper, stated once as a claim.

This module is the one place that states a paper value.  A :class:`Claim`
names where the paper says it (``locus``), what it says (``quoted``), the
dotted :class:`~repro.experiments.runner.ReproductionReport` field that
reproduces it, and one predicate: :class:`Range`, :class:`WithinFactor` or
:class:`Ordering`.  :func:`score` marks it ``held``, ``missed`` or
``expected-miss`` (a miss its ``expected_miss`` reason explains); it declares
``expected-miss`` with that reason, ``missed`` with an ``open_miss`` (a gap
left open in ROADMAP.md), and ``held`` otherwise.  Every runner report
carries the scored table, and ``python -m repro.experiments.claims
report.json`` exits 1 naming each claim whose state differs from its
declaration, so a change that moves a claim must edit that declaration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.video.datasets import PAPER_JACKSON, PAPER_ROADWAY

__all__ = [
    "CLAIMS",
    "Claim",
    "ClaimScore",
    "Ordering",
    "POINT_FACTOR",
    "Range",
    "WithinFactor",
    "measured",
    "score",
    "tally",
]

HELD = "held"
MISSED = "missed"
EXPECTED_MISS = "expected-miss"

# A point value the paper quotes ("6.3x") holds when the reproduction lands
# within this factor of it, either way.
POINT_FACTOR = 1.25


@dataclass(frozen=True)
class Range:
    """Held when ``low <= value <= high``; the margin is the distance to the nearer end."""

    low: float
    high: float

    def holds(self, value: float) -> bool:
        return self.low <= value <= self.high

    def margin(self, value: float) -> float:
        return min(value - self.low, self.high - value)


@dataclass(frozen=True)
class WithinFactor:
    """Held when ``value`` is within :data:`POINT_FACTOR` of ``target`` either way.

    The margin is :data:`POINT_FACTOR` less the factor ``value`` is off by.
    """

    target: float

    def holds(self, value: float) -> bool:
        return self.margin(value) >= 0

    def margin(self, value: float) -> float:
        if value <= 0:
            return -math.inf
        return POINT_FACTOR - max(value / self.target, self.target / value)


@dataclass(frozen=True)
class Ordering:
    """Held when ``value`` lies strictly beyond ``bound``; the margin is how far beyond."""

    bound: float

    def holds(self, value: float) -> bool:
        return self.margin(value) > 0

    def margin(self, value: float) -> float:
        return value - self.bound


@dataclass(frozen=True)
class Claim:
    """One paper statement and the report field that reproduces it."""

    id: str
    locus: str
    quoted: str
    field: str
    predicate: Range | WithinFactor | Ordering
    expected_miss: str | None = None
    open_miss: str | None = None

    @property
    def declared(self) -> str:
        """The state this claim should score."""
        if self.expected_miss:
            return EXPECTED_MISS
        return MISSED if self.open_miss else HELD


@dataclass(frozen=True)
class ClaimScore:
    """One claim judged against one report."""

    id: str
    locus: str
    quoted: str
    measured: float
    margin: float
    state: str
    declared: str


def _event_fraction(paper: Mapping[str, Any]) -> float:
    return paper["event_frames"] / paper["frames"]


# Reasons for the expected misses.
_CALIBRATION = (
    "analytic model calibration: ThroughputModelConfig's five constants are set once for the "
    "i7-6700K testbed (a MobileNet pass ~0.3 s, one DC at 8-10 fps), not fit to this number"
)
_PER_MC_PRICE = (
    "analytic model calibration: every MC architecture is priced at one TensorFlow rate (3e10 madd/s) "
    "plus one 4 ms dispatch overhead, so architectures differ by multiply-adds alone; the paper timed each"
)
_DATA_LIMITED_DCS = (
    "reduced-scale data: on the quick preset's 240 training frames the cheapest DC of the sweep is "
    "the most accurate, so the DCs are data-limited and the MCs lead by more than in the paper"
)
_SUBSTITUTE_EVENTS = (
    "substitute dataset: the synthetic scenes spawn people densely enough that a 240-frame "
    "quick-preset split holds several events to train and score on"
)

CLAIMS: tuple[Claim, ...] = (
    # §4.4, Figure 5: throughput vs number of concurrent classifiers (analytic, 1080p).
    Claim("fig5.break_even", "§4.4, Fig 5", "FF overtakes the DCs at 3-4 classifiers",
          "figure5.break_even_classifiers", Range(3, 4), expected_miss=_CALIBRATION),
    Claim("fig5.speedup_at_20", "§4.4, Fig 5", "3.0-4.1x the DCs' throughput at 20 classifiers",
          "figure5.speedup_at_20", Range(3.0, 4.1)),
    Claim("fig5.speedup_at_50", "§4.4, Fig 5", "up to 6.1x the DCs' throughput at 50 classifiers",
          "figure5.speedup_at_50", WithinFactor(6.1)),
    Claim("fig5.single_vs_dc", "§4.4, Fig 5", "one classifier: 0.32-0.34x a DC's throughput",
          "figure5.single_classifier_ratio_vs_dc", Range(0.32, 0.34), expected_miss=_CALIBRATION),
    Claim("fig5.single_vs_mobilenet", "§4.4, Fig 5", "one classifier: 0.83-0.90x a MobileNet's throughput",
          "figure5.single_classifier_ratio_vs_mobilenet", Range(0.83, 0.90), expected_miss=_CALIBRATION),
    Claim("fig5.mobilenet_oom", "§4.4, Fig 5", "MobileNets run out of memory beyond 30 classifiers",
          "figure5.mobilenet_oom_classifiers", Ordering(30)),
    # §4.4, Figure 6: the base DNN's time in units of one MC's.
    Claim("fig6.base_dnn_in_mcs.full_frame", "§4.4, Fig 6", "one base-DNN pass costs 15-40 MCs",
          "figure6.equivalent_mcs_full_frame", Range(15, 40), expected_miss=_PER_MC_PRICE),
    Claim("fig6.base_dnn_in_mcs.localized", "§4.4, Fig 6", "one base-DNN pass costs 15-40 MCs",
          "figure6.equivalent_mcs_localized", Range(15, 40)),
    Claim("fig6.base_dnn_in_mcs.windowed", "§4.4, Fig 6", "one base-DNN pass costs 15-40 MCs",
          "figure6.equivalent_mcs_windowed", Range(15, 40), expected_miss=_PER_MC_PRICE),
    # §4.3, Figure 4: bandwidth vs event F1 against compress-everything (Roadway).
    Claim("fig4.bandwidth_reduction.full_frame", "§4.3, Fig 4a", "6.3x less bandwidth at matched F1",
          "figure4.full_frame.bandwidth_reduction", WithinFactor(6.3)),
    Claim("fig4.bandwidth_reduction.localized", "§4.3, Fig 4b", "13x less bandwidth at matched F1",
          "figure4.localized.bandwidth_reduction", WithinFactor(13)),
    Claim("fig4.f1_gain.full_frame", "§4.3, Fig 4a", "1.5x the F1 at matched bandwidth",
          "figure4.full_frame.f1_improvement", WithinFactor(1.5),
          open_miss="unexplained: the full-frame MC's F1 gain over compress-everything (open in ROADMAP.md)"),
    Claim("fig4.f1_gain.localized", "§4.3, Fig 4b", "1.9x the F1 at matched bandwidth",
          "figure4.localized.f1_improvement", WithinFactor(1.9)),
    # §4.5, Figure 7: marginal multiply-adds vs event F1, MCs against DCs.
    Claim("fig7.accuracy_ratio.jackson", "§4.5, Fig 7a", "MCs up to 1.3x the best DC's F1",
          "figure7.jackson.accuracy_ratio", Range(1.0, 1.3), expected_miss=_DATA_LIMITED_DCS),
    Claim("fig7.accuracy_ratio.roadway", "§4.5, Fig 7b", "MCs up to 1.1x the best DC's F1",
          "figure7.roadway.accuracy_ratio", Range(1.0, 1.1)),
    Claim("fig7.cost_vs_representative_dc.jackson", "§4.5, Fig 7a",
          "a representative DC costs 23x an MC's multiply-adds",
          "figure7.jackson.marginal_cost_ratio_vs_representative_dc", WithinFactor(23)),
    Claim("fig7.cost_vs_representative_dc.roadway", "§4.5, Fig 7b",
          "a representative DC costs 11x an MC's multiply-adds",
          "figure7.roadway.marginal_cost_ratio_vs_representative_dc", WithinFactor(11),
          open_miss="one DC sweep serves both datasets, the paper took Roadway's own (open in ROADMAP.md)"),
    # Figure 3b: the datasets' event-frame fractions, from Table 3's data row.
    Claim("table3.event_fraction.jackson", "Fig 3b",
          f"{_event_fraction(PAPER_JACKSON):.3f} of Jackson's frames hold an event",
          "table3.0.generated_event_fraction", WithinFactor(_event_fraction(PAPER_JACKSON)),
          expected_miss=_SUBSTITUTE_EVENTS),
    Claim("table3.event_fraction.roadway", "Fig 3b",
          f"{_event_fraction(PAPER_ROADWAY):.3f} of Roadway's frames hold an event",
          "table3.1.generated_event_fraction", WithinFactor(_event_fraction(PAPER_ROADWAY)),
          expected_miss=_SUBSTITUTE_EVENTS),
)


def measured(report: Mapping[str, Any], field: str) -> float:
    """The value at a dotted ``field`` of a report; list items are indexed by number."""
    value: Any = report
    for part in field.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return float(value)


def score(report: Any) -> list[ClaimScore]:
    """Judge every claim against a report (a ``ReproductionReport`` or its JSON).

    A field the report lacks scores as NaN, which no predicate holds.
    """
    data = report if isinstance(report, Mapping) else vars(report)
    scores = []
    for claim in CLAIMS:
        try:
            value = measured(data, claim.field)
        except (KeyError, IndexError):
            value = math.nan
        if claim.predicate.holds(value):
            state = HELD
        else:
            state = EXPECTED_MISS if claim.expected_miss else MISSED
        margin = claim.predicate.margin(value)
        scores.append(ClaimScore(claim.id, claim.locus, claim.quoted, value, margin, state, claim.declared))
    return scores


def tally(states: list[str]) -> str:
    """``"9 held, 2 missed, 8 expected-miss"`` for a list of states."""
    counts = Counter(states)
    return ", ".join(f"{counts[state]} {state}" for state in (HELD, MISSED, EXPECTED_MISS))


def main(argv: list[str] | None = None) -> int:
    """Re-score a ``runner --json`` report; exit 1 if a claim left its declared state."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("report", type=Path, help="a report written by `runner --json`")
    args = parser.parse_args(argv)
    scores = score(json.loads(args.report.read_text(encoding="utf-8")))
    moved = [s for s in scores if s.state != s.declared]
    for s in moved:
        print(
            f"{s.id} ({s.locus}): declared {s.declared}, scored {s.state} "
            f"(paper: {s.quoted}; here {s.measured:.4g}, margin {s.margin:+.3g})"
        )
    print(f"{len(scores)} claims: {tally([s.state for s in scores])}; {len(moved)} off their declared state")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
