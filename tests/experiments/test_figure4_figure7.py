"""Tests for the Figure 4 (bandwidth/accuracy) and Figure 7 (cost/accuracy) experiments.

These run the real experiment harness on a miniature dataset: the absolute
accuracies are not meaningful at this size, but the plumbing — training,
compression sweeps, cost accounting, summaries — is exercised end to end.
"""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import DiscreteClassifierConfig
from repro.core.training import TrainingConfig
from repro.experiments.common import ExperimentContext
from repro.experiments.figure4 import (
    default_bitrate_sweep,
    filterforward_upload_bitrate,
    run_figure4,
    summarize_figure4,
)
from repro.experiments.figure7 import Figure7Point, Figure7Result, run_figure7, summarize_figure7
from repro.experiments.runner import ReproductionReport, render_report
from repro.video.datasets import make_roadway_like

FAST_TRAINING = TrainingConfig(epochs=2.0, batch_size=16, learning_rate=2e-3, seed=0)


@pytest.fixture(scope="module")
def context():
    dataset = make_roadway_like(num_frames=120, width=96, height=40, seed=17)
    return ExperimentContext(dataset, alpha=0.125, seed=0)


@pytest.fixture(scope="module")
def trained_localized(context):
    return context.train_microclassifier("localized", training=FAST_TRAINING)


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, context, trained_localized):
        bitrates = default_bitrate_sweep(context, num_points=3)
        return run_figure4(
            context, architecture="localized", compress_bitrates=bitrates, trained=trained_localized
        )

    def test_produces_one_ff_point_and_a_compression_curve(self, result):
        assert len(result.filterforward) == 1
        assert len(result.compress_everything) == 3

    def test_compress_everything_bandwidth_tracks_bitrate(self, result):
        for point in result.compress_everything:
            assert point.average_bandwidth == pytest.approx(point.target_bitrate, rel=0.05)

    def test_filterforward_uses_less_bandwidth_than_full_upload(self, result):
        ff = result.filterforward[0]
        highest = max(result.compress_everything, key=lambda p: p.average_bandwidth)
        assert ff.average_bandwidth < highest.average_bandwidth

    def test_paper_equivalent_bandwidth_scales_by_area(self, result, context):
        ff = result.filterforward[0]
        spec = context.dataset.spec
        area_ratio = (spec.paper_resolution[0] * spec.paper_resolution[1]) / (
            spec.resolution[0] * spec.resolution[1]
        )
        assert ff.paper_equivalent_mbps == pytest.approx(
            ff.average_bandwidth * area_ratio / 1e6, rel=1e-6
        )

    def test_scores_are_valid(self, result):
        for point in result.filterforward + result.compress_everything:
            assert 0.0 <= point.event_f1 <= 1.0

    def test_summary_keys(self, result):
        summary = summarize_figure4(result)
        assert set(summary) >= {"bandwidth_reduction", "f1_improvement", "filterforward_f1"}
        assert summary["bandwidth_reduction"] > 0

    def test_bitrate_sweep_spans_paper_bpp_range(self, context):
        sweep = default_bitrate_sweep(context, num_points=5)
        spec = context.dataset.spec
        pixels_per_second = spec.resolution[0] * spec.resolution[1] * spec.frame_rate
        bpps = [b / pixels_per_second for b in sweep]
        assert min(bpps) == pytest.approx(0.004, rel=0.01)
        assert max(bpps) == pytest.approx(0.4, rel=0.01)

    def test_ff_upload_bitrate_translated_from_paper_scale(self, context):
        translated = filterforward_upload_bitrate(context, paper_bitrate=500_000)
        assert 0 < translated < 500_000


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self, context):
        dc_configs = [DiscreteClassifierConfig(name="dc_test", kernels=(16, 16), strides=(2, 2))]
        return run_figure7(context, architectures=("localized",), dc_configs=dc_configs)

    def test_points_for_each_classifier(self, result):
        assert len(result.microclassifiers) == 1
        assert len(result.discrete_classifiers) == 1
        assert result.dataset == "roadway"

    def test_costs_reported_at_both_scales(self, result):
        mc = result.microclassifiers[0]
        measured = result.trained[mc.name].classifier.multiply_adds()
        assert mc.paper_scale_multiply_adds > measured > 0

    def test_mc_paper_scale_cost_is_order_100M(self, result):
        mc = result.microclassifiers[0]
        assert 5e7 < mc.paper_scale_multiply_adds < 5e8

    def test_summary_keys_and_ranges(self, result):
        summary = summarize_figure7(result)
        assert summary["accuracy_ratio"] >= 0
        assert summary["marginal_cost_ratio_vs_best_dc"] > 0
        assert summary["marginal_cost_ratio_vs_representative_dc"] > 0
        assert 0 <= summary["best_mc_f1"] <= 1

    def test_trained_classifiers_recorded(self, result):
        assert "roadway_localized" in result.trained
        assert "dc_test" in result.trained


def test_a_figure7_without_classifiers_keeps_every_key_and_renders():
    point = Figure7Point("p", "mc", 1, event_f1=0.5)
    full = summarize_figure7(Figure7Result("roadway", [point], [point], trained={}))
    empty = summarize_figure7(Figure7Result("roadway", [], [], trained={}))
    assert list(empty) == list(full)
    assert np.isnan(list(empty.values())).all()
    text = render_report(ReproductionReport(preset="quick", figure7={"roadway": empty}))
    assert "roadway  accuracy ratio nanx" in text
