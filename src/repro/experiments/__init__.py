"""Experiment harnesses: one module per paper table/figure.

Each module exposes a ``run_*`` function that produces the rows or series the
paper reports, plus a ``summarize`` helper that extracts the headline numbers
(bandwidth reduction factors, break-even classifier counts, cost/accuracy
ratios).  ``repro.experiments.runner`` executes everything and renders a
combined report: ``python -m repro.experiments.runner`` prints it.
"""

from repro.experiments.common import ExperimentContext, TrainedClassifier
from repro.experiments.figure4 import Figure4Point, run_figure4, summarize_figure4
from repro.experiments.figure5 import run_figure5, summarize_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import Figure7Point, run_figure7, summarize_figure7
from repro.experiments.table3 import run_table3

__all__ = [
    "ExperimentContext",
    "Figure4Point",
    "Figure7Point",
    "TrainedClassifier",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_table3",
    "summarize_figure4",
    "summarize_figure5",
    "summarize_figure7",
]
