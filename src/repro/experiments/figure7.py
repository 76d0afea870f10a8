"""Figure 7: marginal compute cost versus event F1 (microclassifiers vs. DCs).

The paper plots, for both datasets, the number of multiply-adds against the
event F1 score of the full-frame object detector MC, the localized binary
classifier MC, and a sweep of discrete classifiers.  MCs sit far to the left
(an order of magnitude cheaper marginally) at comparable or better accuracy.

Accuracy is measured on the scaled executable datasets; the multiply-add
x-axis is reported at the paper's full resolution
(``paper_scale_multiply_adds``) via the analytic cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.discrete_classifier import (
    DiscreteClassifierConfig,
    discrete_classifier_pareto_configs,
)
from repro.experiments.common import ExperimentContext, TrainedClassifier
from repro.perf.cost_model import CostModel

__all__ = ["Figure7Point", "Figure7Result", "run_figure7", "summarize_figure7"]


@dataclass(frozen=True)
class Figure7Point:
    """One classifier's cost/accuracy point."""

    name: str
    kind: str
    paper_scale_multiply_adds: int
    event_f1: float


@dataclass
class Figure7Result:
    """All points for one dataset/task."""

    dataset: str
    microclassifiers: list[Figure7Point]
    discrete_classifiers: list[Figure7Point]
    trained: dict[str, TrainedClassifier]


def _mc_point(
    trained: TrainedClassifier, architecture: str, cost_model: CostModel
) -> Figure7Point:
    return Figure7Point(
        name=trained.name,
        kind=trained.kind,
        paper_scale_multiply_adds=cost_model.mc_cost(architecture),
        event_f1=trained.breakdown.f1,
    )


def _dc_point(
    trained: TrainedClassifier, config: DiscreteClassifierConfig, cost_model: CostModel
) -> Figure7Point:
    return Figure7Point(
        name=trained.name,
        kind=trained.kind,
        paper_scale_multiply_adds=cost_model.dc_cost(config),
        event_f1=trained.breakdown.f1,
    )


def run_figure7(
    context: ExperimentContext,
    architectures: tuple[str, ...] = ("full_frame", "localized"),
    dc_configs: list[DiscreteClassifierConfig] | None = None,
) -> Figure7Result:
    """Train the MCs and the DC sweep on one dataset and collect their points.

    The paper uses spatial crops for the applicable MCs and for the Roadway
    dataset's DC only.
    """
    cost_model = CostModel(
        resolution=context.dataset.spec.paper_resolution,
        crop_fraction=1.0,
    )
    crop_dcs = context.dataset.spec.name == "roadway"
    if dc_configs is None:
        # Train a cheap / medium / expensive subset of the Pareto sweep.
        sweep = discrete_classifier_pareto_configs()
        dc_configs = [sweep[0], sweep[2], sweep[4]]

    trained: dict[str, TrainedClassifier] = {}
    mc_points: list[Figure7Point] = []
    for architecture in architectures:
        result = context.train_microclassifier(architecture)
        trained[result.name] = result
        mc_points.append(_mc_point(result, architecture, cost_model))

    dc_points: list[Figure7Point] = []
    for config in dc_configs:
        result = context.train_discrete_classifier(config, use_crop=crop_dcs)
        trained[result.name] = result
        dc_points.append(_dc_point(result, config, cost_model))

    return Figure7Result(
        dataset=context.dataset.spec.name,
        microclassifiers=mc_points,
        discrete_classifiers=dc_points,
        trained=trained,
    )


def summarize_figure7(result: Figure7Result) -> dict[str, float]:
    """Headline numbers from Section 4.5.

    * ``accuracy_ratio`` — best MC event F1 over best DC event F1
      (claims ``fig7.accuracy_ratio.*``);
    * ``marginal_cost_ratio_vs_best_dc`` — paper-scale multiply-adds of the
      most accurate DC over the best MC's;
    * ``marginal_cost_ratio_vs_representative_dc`` — multiply-adds of the
      most expensive trained DC (the paper's "representative example from the
      Pareto frontier") over the best MC's (claims
      ``fig7.cost_vs_representative_dc.*``).

    Every key is present; without an MC or a DC the values are NaN.
    """
    if not result.microclassifiers or not result.discrete_classifiers:
        return dict.fromkeys(
            ("accuracy_ratio", "marginal_cost_ratio_vs_best_dc",
             "marginal_cost_ratio_vs_representative_dc", "best_mc_f1", "best_dc_f1"),
            float("nan"),
        )
    best_mc = max(result.microclassifiers, key=lambda p: p.event_f1)
    best_dc = max(result.discrete_classifiers, key=lambda p: p.event_f1)
    representative_dc = max(result.discrete_classifiers, key=lambda p: p.paper_scale_multiply_adds)
    accuracy_ratio = best_mc.event_f1 / best_dc.event_f1 if best_dc.event_f1 > 0 else float("inf")
    mc_cost = max(best_mc.paper_scale_multiply_adds, 1)
    return {
        "accuracy_ratio": float(accuracy_ratio),
        "marginal_cost_ratio_vs_best_dc": float(best_dc.paper_scale_multiply_adds / mc_cost),
        "marginal_cost_ratio_vs_representative_dc": float(
            representative_dc.paper_scale_multiply_adds / mc_cost
        ),
        "best_mc_f1": float(best_mc.event_f1),
        "best_dc_f1": float(best_dc.event_f1),
    }
