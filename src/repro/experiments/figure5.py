"""Figure 5: filtering throughput versus number of concurrent classifiers.

The paper compares the frame rate of FilterForward's three microclassifier
architectures against NoScope-style discrete classifiers and multiple full
MobileNets as the number of concurrent classifiers grows from 1 to 50, on a
quad-core CPU at 1920x1080.  The reproduction evaluates the calibrated
analytic throughput model at paper scale (see
:mod:`repro.perf.throughput_model`); the wall-clock scaling of the NumPy
implementation itself is checked by the ``slow`` test
``test_figure5_measured_scaling_trend``.  The paper's headline values are the
``fig5.*`` claims of :mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.perf.throughput_model import ThroughputModel

__all__ = ["Figure5Result", "run_figure5", "summarize_figure5", "PAPER_CLASSIFIER_COUNTS"]

PAPER_CLASSIFIER_COUNTS = [1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50]


@dataclass
class Figure5Result:
    """Throughput series (frames per second) per filtering approach."""

    classifier_counts: list[int]
    series: dict[str, np.ndarray] = field(default_factory=dict)


def run_figure5() -> Figure5Result:
    """Evaluate the throughput model over the paper's classifier-count sweep."""
    series = ThroughputModel().sweep(PAPER_CLASSIFIER_COUNTS)
    return Figure5Result(classifier_counts=list(PAPER_CLASSIFIER_COUNTS), series=series)


def summarize_figure5(result: Figure5Result) -> dict[str, float]:
    """Headline numbers from Section 4.4.

    * ``break_even_classifiers`` — smallest count at which the fastest
      FilterForward architecture beats the DCs (claim ``fig5.break_even``);
    * ``speedup_at_20`` / ``speedup_at_50`` — best FilterForward throughput
      over DC throughput at 20 and 50 classifiers (``fig5.speedup_at_20`` /
      ``fig5.speedup_at_50``);
    * ``single_classifier_ratio_vs_dc`` / ``..._vs_mobilenet`` — the
      single-classifier slowdowns, over the FF architectures
      (``fig5.single_vs_dc`` / ``fig5.single_vs_mobilenet``);
    * ``mobilenet_oom_classifiers`` — where the MobileNet baseline runs out
      of memory (``fig5.mobilenet_oom``).
    """
    model = ThroughputModel()
    counts = np.asarray(result.classifier_counts)
    ff_series = {
        name: values
        for name, values in result.series.items()
        if name.startswith("filterforward_")
    }
    dc = result.series["discrete_classifiers"]
    mobilenets = result.series["multiple_mobilenets"]

    def at(n: int, series: np.ndarray) -> float:
        idx = int(np.argmin(np.abs(counts - n)))
        return float(series[idx])

    def best_ff(n: int) -> float:
        return max(at(n, values) for values in ff_series.values())

    architectures = [name.removeprefix("filterforward_") for name in ff_series]
    break_even = min(model.break_even_classifiers(arch) for arch in architectures)
    oom_counts = counts[np.isnan(mobilenets)]
    return {
        "break_even_classifiers": float(break_even),
        "speedup_at_20": best_ff(20) / at(20, dc),
        "speedup_at_50": best_ff(50) / at(50, dc),
        "single_classifier_ratio_vs_dc": best_ff(1) / at(1, dc),
        "single_classifier_ratio_vs_mobilenet": best_ff(1) / at(1, mobilenets),
        "mobilenet_oom_classifiers": float(oom_counts.min()) if oom_counts.size else float("inf"),
    }
