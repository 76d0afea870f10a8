"""The paper scorecard: predicates, the registry's coverage, and a planted regression.

The quick-shaped report runs every real summary function without training: Figures 4
and 7 summarize hand-built sweeps that read what the quick preset reads at seed 0.
"""

import json
import math
from dataclasses import asdict

import pytest

from repro.baselines.discrete_classifier import discrete_classifier_pareto_configs
from repro.experiments import claims, runner
from repro.experiments.claims import CLAIMS, Ordering, Range, WithinFactor, measured, score
from repro.experiments.figure4 import Figure4Point, Figure4Result, summarize_figure4
from repro.experiments.figure5 import run_figure5, summarize_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import Figure7Point, Figure7Result, summarize_figure7
from repro.experiments.table3 import run_table3
from repro.perf.cost_model import CostModel

# The paper's headline numbers: Fig 5 x6, Fig 6 x3, Fig 4 x4, Fig 7 x4, Table 3 x2.
HEADLINE_IDS = {
    *(f"fig5.{n}" for n in ("break_even", "speedup_at_20", "speedup_at_50", "mobilenet_oom")),
    *(f"fig5.single_vs_{n}" for n in ("dc", "mobilenet")),
    *(f"fig6.base_dnn_in_mcs.{arch}" for arch in ("full_frame", "localized", "windowed")),
    *(f"fig4.{n}.{arch}" for n in ("bandwidth_reduction", "f1_gain") for arch in ("full_frame", "localized")),
    *(f"fig7.{n}.{d}" for n in ("accuracy_ratio", "cost_vs_representative_dc") for d in ("jackson", "roadway")),
    *(f"table3.event_fraction.{d}" for d in ("jackson", "roadway")),
}

# FilterForward's F1, then the compress-everything sweep as bandwidths in units
# of FilterForward's and their F1s: 7.7x / 1.19x (Fig 4a) and 13.6x / 1.97x (Fig 4b).
FIGURE4_SWEEPS = {
    "full_frame": (0.515, (0.77, 2.4, 7.68, 24.0, 77.0), (0.434, 0.47, 0.50, 0.52, 0.53)),
    "localized": (0.865, (1.36, 4.3, 13.6, 43.0, 136.0), (0.44, 0.70, 0.84, 0.86, 0.87)),
}
# The localized MC's F1 and each trained DC's: dc_small is the most accurate.
FIGURE7_F1 = {
    "jackson": (0.656, {"dc_small": 0.403, "dc_large": 0.38, "dc_xxlarge": 0.35}),
    "roadway": (0.865, {"dc_small": 0.813, "dc_large": 0.79, "dc_xxlarge": 0.70}),
}


def figure4_sweep(architecture: str, reverse: bool = False) -> Figure4Result:
    ff_f1, bandwidths, f1s = FIGURE4_SWEEPS[architecture]
    f1s = f1s[::-1] if reverse else f1s

    def point(strategy, bandwidth, f1):
        return Figure4Point(strategy, architecture, bandwidth, bandwidth, bandwidth, f1)

    sweep = [point("compress_everything", b, f) for b, f in zip(bandwidths, f1s)]
    return Figure4Result(architecture, [point("filterforward", 1.0, ff_f1)], sweep)


def figure7_result(context) -> Figure7Result:
    spec = context.dataset.spec
    costs = CostModel(resolution=spec.paper_resolution)
    mc_f1, dc_f1 = FIGURE7_F1[spec.name]
    mc = Figure7Point("localized", "mc", costs.mc_cost("localized"), mc_f1)
    dcs = [
        Figure7Point(c.name, "dc", costs.dc_cost(c), dc_f1[c.name])
        for c in discrete_classifier_pareto_configs()
        if c.name in dc_f1
    ]
    return Figure7Result(spec.name, [mc], dcs, trained={})


@pytest.fixture(scope="module")
def quick_report() -> runner.ReproductionReport:
    jackson, roadway = runner._make_contexts("quick", seed=0)
    figure6 = run_figure6()
    report = runner.ReproductionReport(
        preset="quick",
        table3=[asdict(row) for row in run_table3(jackson.dataset, roadway.dataset)],
        figure4={arch: summarize_figure4(figure4_sweep(arch)) for arch in FIGURE4_SWEEPS},
        figure5=summarize_figure5(run_figure5()),
        figure6={f"equivalent_mcs_{a}": figure6.equivalent_mcs_to_base_dnn(a) for a in figure6.breakdowns},
        figure7={ctx.dataset.spec.name: summarize_figure7(figure7_result(ctx)) for ctx in (jackson, roadway)},
    )
    report.claims = [asdict(row) for row in score(report)]
    return report


@pytest.mark.parametrize(
    ("predicate", "inside", "outside"),
    [
        (Range(3, 4), 4.0, 4.01),
        (Range(3, 4), 3.0, 2.99),
        (WithinFactor(10.0), 12.5, 12.51),
        (WithinFactor(10.0), 8.0, 7.99),
        (WithinFactor(10.0), 8.0, 0.0),
        (Ordering(30), 30.01, 30.0),
    ],
)
def test_predicate_holds_up_to_its_boundary_and_not_past_it(predicate, inside, outside):
    assert predicate.holds(inside) and predicate.margin(inside) >= 0
    assert not predicate.holds(outside) and predicate.margin(outside) <= 0
    assert not predicate.holds(math.nan)


def test_the_registry_states_each_headline_once():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    assert set(ids) == HEADLINE_IDS
    assert all("ROADMAP.md" in c.open_miss for c in CLAIMS if c.open_miss)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_reads_a_quick_report_field_and_scores_its_declared_state(quick_report, claim):
    """Figures 5-6 and Table 3 are the real numbers here, so tier-1 scores their claims."""
    assert isinstance(measured(json.loads(quick_report.to_json()), claim.field), float)
    assert {row["id"]: row["state"] for row in quick_report.claims}[claim.id] == claim.declared


def test_the_report_renders_the_scorecard(quick_report):
    text = runner.render_report(quick_report)
    assert "Paper scorecard — 9 held, 2 missed, 8 expected-miss:" in text
    assert "fig5.break_even                          expected-miss here 5 " in text


def test_a_missing_field_scores_nan_and_misses():
    row = {row.id: row for row in score({"figure5": {}})}["fig5.speedup_at_20"]
    assert row.state == "missed" and math.isnan(row.margin)


def test_a_reversed_compress_everything_sweep_flips_figure4b(quick_report, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(quick_report.to_json())
    assert claims.main([str(good)]) == 0

    regressed = json.loads(quick_report.to_json())
    regressed["figure4"]["localized"] = summarize_figure4(figure4_sweep("localized", reverse=True))
    moved = {row.id: row.state for row in score(regressed) if row.state != row.declared}
    assert moved == {"fig4.bandwidth_reduction.localized": "missed", "fig4.f1_gain.localized": "missed"}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(regressed))
    capsys.readouterr()
    assert claims.main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "fig4.bandwidth_reduction.localized (§4.3, Fig 4b): declared held, scored missed" in out
    assert "2 off their declared state" in out
