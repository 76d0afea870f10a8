"""Run every reproduction experiment and render a combined report.

``python -m repro.experiments.runner`` prints every table and figure series
of the reproduction.  The ``quick`` preset keeps the executable datasets small
enough to finish in a few minutes on a laptop-class CPU; ``full`` uses larger
synthetic datasets for tighter statistics.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.experiments import claims
from repro.experiments.common import ExperimentContext
from repro.experiments.figure4 import run_figure4, summarize_figure4
from repro.experiments.figure5 import run_figure5, summarize_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7, summarize_figure7
from repro.experiments.table3 import run_table3
from repro.video.datasets import make_jackson_like, make_roadway_like

__all__ = ["ReproductionReport", "run_all", "render_report"]

# Dataset sizes per preset: frames per split and (width, height) per dataset.
_PRESETS = {
    "quick": {"num_frames": 480, "jackson_size": (160, 90), "roadway_size": (160, 68)},
    "full": {"num_frames": 600, "jackson_size": (240, 136), "roadway_size": (256, 108)},
}


@dataclass
class ReproductionReport:
    """All experiment outputs, their headline summaries and the paper scorecard."""

    preset: str
    table3: list[dict[str, Any]] = field(default_factory=list)
    figure4: dict[str, dict[str, float]] = field(default_factory=dict)
    figure5: dict[str, float] = field(default_factory=dict)
    figure6: dict[str, float] = field(default_factory=dict)
    figure7: dict[str, dict[str, float]] = field(default_factory=dict)
    claims: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> str:
        """Serialize the report for archival."""
        return json.dumps(asdict(self), indent=2, default=float)


def _make_contexts(preset: str, seed: int) -> tuple[ExperimentContext, ExperimentContext]:
    cfg = _PRESETS[preset]
    jw, jh = cfg["jackson_size"]
    rw, rh = cfg["roadway_size"]
    jackson = make_jackson_like(num_frames=cfg["num_frames"], width=jw, height=jh, seed=7 + seed)
    roadway = make_roadway_like(num_frames=cfg["num_frames"], width=rw, height=rh, seed=23 + seed)
    return (
        ExperimentContext(jackson, alpha=0.25, seed=seed),
        ExperimentContext(roadway, alpha=0.25, seed=seed),
    )


def run_all(preset: str = "quick", seed: int = 0) -> ReproductionReport:
    """Run Table 3 and Figures 4-7, summarize the headline numbers and score the claims."""
    if preset not in _PRESETS:
        raise ValueError(f"Unknown preset {preset!r}; expected one of {sorted(_PRESETS)}")
    report = ReproductionReport(preset=preset)

    def log(message: str) -> None:
        # Progress goes to stderr so that stdout carries only the report.
        print(message, file=sys.stderr, flush=True)

    log("[table3] generating datasets ...")
    jackson_ctx, roadway_ctx = _make_contexts(preset, seed)
    report.table3 = [asdict(row) for row in run_table3(jackson_ctx.dataset, roadway_ctx.dataset)]

    log("[figure5] throughput model sweep ...")
    figure5 = run_figure5()
    report.figure5 = summarize_figure5(figure5)

    log("[figure6] execution breakdown ...")
    figure6 = run_figure6()
    report.figure6 = {
        f"equivalent_mcs_{arch}": figure6.equivalent_mcs_to_base_dnn(arch)
        for arch in figure6.breakdowns
    }

    log("[figure7] cost vs accuracy on both tasks ...")
    figure7_results = {}
    for name, ctx in (("jackson", jackson_ctx), ("roadway", roadway_ctx)):
        result = run_figure7(ctx)
        figure7_results[name] = result
        report.figure7[name] = summarize_figure7(result)

    log("[figure4] bandwidth vs accuracy on the Roadway task ...")
    roadway_trained = figure7_results["roadway"].trained
    for architecture in ("full_frame", "localized"):
        trained = roadway_trained.get(f"roadway_{architecture}")
        result = run_figure4(roadway_ctx, architecture=architecture, trained=trained)
        report.figure4[architecture] = summarize_figure4(result)

    report.claims = [asdict(row) for row in claims.score(report)]
    return report


def render_report(report: ReproductionReport) -> str:
    """Human-readable summary of a reproduction run."""
    lines = [f"FilterForward reproduction report (preset={report.preset})", ""]
    lines.append("Table 3 — dataset details (paper vs generated):")
    for row in report.table3:
        lines.append(
            f"  {row['name']:<8s} frames {row['paper_frames']:>7d} -> {row['generated_frames']:>5d}  "
            f"event fraction {row['paper_event_fraction']:.3f} -> {row['generated_event_fraction']:.3f}  "
            f"events {row['paper_unique_events']:>4d} -> {row['generated_unique_events']:>3d}"
        )
    lines.append("")
    lines.append("Figure 5 — throughput scalability (analytic, paper scale):")
    for key, value in report.figure5.items():
        lines.append(f"  {key}: {value:.2f}")
    lines.append("")
    lines.append("Figure 6 — MCs equivalent to one base-DNN pass:")
    for key, value in report.figure6.items():
        lines.append(f"  {key}: {value:.1f}")
    lines.append("")
    lines.append("Figure 4 — bandwidth vs accuracy (Roadway, people-with-red):")
    for arch, summary in report.figure4.items():
        lines.append(
            f"  {arch:<12s} bandwidth reduction {summary['bandwidth_reduction']:.1f}x, "
            f"F1 improvement {summary['f1_improvement']:.2f}x "
            f"(FF F1 {summary['filterforward_f1']:.2f})"
        )
    lines.append("")
    lines.append("Figure 7 — marginal cost vs accuracy:")
    for name, summary in report.figure7.items():
        lines.append(
            f"  {name:<8s} accuracy ratio {summary['accuracy_ratio']:.2f}x, "
            f"marginal cost ratio vs representative DC "
            f"{summary['marginal_cost_ratio_vs_representative_dc']:.1f}x, "
            f"vs most accurate DC {summary['marginal_cost_ratio_vs_best_dc']:.2f}x"
        )
    lines.append("")
    lines.append(f"Paper scorecard — {claims.tally([row['state'] for row in report.claims])}:")
    for row in report.claims:
        flag = "" if row["state"] == row["declared"] else f"  (declared {row['declared']})"
        lines.append(
            f"  {row['id']:<40s} {row['state']:<13s} here {row['measured']:<8.4g} "
            f"margin {row['margin']:<+8.3g} paper ({row['locus']}): {row['quoted']}{flag}"
        )
    return "\n".join(lines)


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Run the FilterForward reproduction experiments")
    parser.add_argument("--preset", choices=sorted(_PRESETS), default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    args = parser.parse_args()
    report = run_all(preset=args.preset, seed=args.seed)
    print(report.to_json() if args.json else render_report(report))


if __name__ == "__main__":
    main()
