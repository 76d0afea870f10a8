"""Figure 6: per-frame execution-time breakdown (base DNN vs. microclassifiers).

For each of the three microclassifier architectures, the paper plots how the
per-frame processing time splits between the (constant) base-DNN pass and the
microclassifiers as their count grows from 1 to 50.  The reproduction
evaluates the calibrated throughput model's breakdown at paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.architectures import ARCHITECTURES
from repro.perf.throughput_model import ExecutionBreakdown, ThroughputModel

__all__ = ["Figure6Result", "run_figure6", "PAPER_BREAKDOWN_COUNTS"]

PAPER_BREAKDOWN_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 30, 35, 40, 45, 50]


@dataclass
class Figure6Result:
    """Execution breakdowns per architecture, keyed by classifier count."""

    breakdowns: dict[str, dict[int, ExecutionBreakdown]]

    def equivalent_mcs_to_base_dnn(self, architecture: str) -> float:
        """How many MCs cost as much CPU time as the base DNN (claims ``fig6.base_dnn_in_mcs.*``)."""
        per_count = self.breakdowns[architecture]
        one = per_count[min(per_count)]
        per_mc = one.classifiers_seconds / one.num_classifiers
        return one.base_dnn_seconds / per_mc if per_mc > 0 else float("inf")


def run_figure6(
    model: ThroughputModel | None = None,
    classifier_counts: list[int] | None = None,
    architectures: tuple[str, ...] = tuple(ARCHITECTURES),
) -> Figure6Result:
    """Compute the execution breakdown sweep for every architecture."""
    model = model or ThroughputModel()
    counts = classifier_counts or PAPER_BREAKDOWN_COUNTS
    breakdowns = {
        arch: {int(n): model.filterforward_breakdown(int(n), arch) for n in counts}
        for arch in architectures
    }
    return Figure6Result(breakdowns=breakdowns)
