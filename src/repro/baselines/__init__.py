"""Baselines the paper compares FilterForward against.

* :mod:`repro.baselines.discrete_classifier` — NoScope-style *discrete
  classifiers* (DCs): cheap task-specific CNNs that operate on raw pixels
  instead of shared feature maps (Sections 4.4, 4.5, 5.2.1).

The other two baselines have one implementation each outside this package:
compress-everything is Figure 4's inline transcode-and-score sweep
(:mod:`repro.experiments.figure4`), and one full MobileNet per application
is :meth:`repro.perf.throughput_model.ThroughputModel.multiple_mobilenets_fps`
over :class:`repro.perf.memory_model.MemoryModel` (Figure 5).
"""

from repro.baselines.discrete_classifier import (
    DiscreteClassifier,
    DiscreteClassifierConfig,
    discrete_classifier_pareto_configs,
)

__all__ = [
    "DiscreteClassifier",
    "DiscreteClassifierConfig",
    "discrete_classifier_pareto_configs",
]
