"""Tests for the Figure 5 (throughput) and Figure 6 (breakdown) experiments."""

import numpy as np
import pytest

from repro.experiments.figure5 import PAPER_CLASSIFIER_COUNTS, run_figure5, summarize_figure5
from repro.experiments.figure6 import run_figure6


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_sweep_covers_paper_counts(self, result):
        assert result.classifier_counts == PAPER_CLASSIFIER_COUNTS

    def test_rows_expose_every_series(self, result):
        rows = result.as_rows()
        assert len(rows) == len(PAPER_CLASSIFIER_COUNTS)
        assert {"filterforward_localized", "discrete_classifiers", "multiple_mobilenets"} <= set(rows[0])

    def test_filterforward_wins_at_scale(self, result):
        rows = {int(r["num_classifiers"]): r for r in result.as_rows()}
        assert rows[50]["filterforward_localized"] > rows[50]["discrete_classifiers"]
        assert rows[1]["filterforward_localized"] < rows[1]["discrete_classifiers"]

    def test_mobilenets_oom_marked_as_nan(self, result):
        rows = {int(r["num_classifiers"]): r for r in result.as_rows()}
        assert np.isnan(rows[50]["multiple_mobilenets"])
        assert not np.isnan(rows[30]["multiple_mobilenets"])

    def test_summary_reproduces_paper_shape(self, result):
        summary = summarize_figure5(result)
        assert 3 <= summary["break_even_classifiers"] <= 6
        assert 2.0 < summary["speedup_at_20"] < 6.0
        assert 4.0 < summary["speedup_at_50"] < 9.0
        assert 0.2 < summary["single_classifier_ratio_vs_dc"] < 0.6
        assert 0.8 < summary["single_classifier_ratio_vs_mobilenet"] < 1.0
        assert summary["mobilenet_oom_classifiers"] > 30

    def test_custom_counts(self):
        result = run_figure5(classifier_counts=[1, 2, 3])
        assert result.classifier_counts == [1, 2, 3]


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6()

    def test_all_architectures_present(self, result):
        assert set(result.breakdowns) == {"full_frame", "localized", "windowed"}

    def test_base_dnn_time_constant_across_counts(self, result):
        per_count = result.breakdowns["localized"]
        values = {b.base_dnn_seconds for b in per_count.values()}
        assert len(values) == 1

    def test_classifier_time_grows_with_count(self, result):
        per_count = result.breakdowns["localized"]
        assert per_count[50].classifiers_seconds > per_count[1].classifiers_seconds

    def test_base_dnn_equivalent_to_tens_of_mcs(self, result):
        """Paper: the base DNN's CPU time equals roughly 15-40 MCs."""
        for architecture in ("localized", "windowed", "full_frame"):
            equivalent = result.equivalent_mcs_to_base_dnn(architecture)
            assert 10 <= equivalent <= 55

    def test_base_dnn_dominates_at_low_classifier_counts(self, result):
        breakdown = result.breakdowns["localized"][1]
        assert breakdown.base_dnn_seconds > breakdown.classifiers_seconds
