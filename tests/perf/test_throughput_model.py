"""Tests for the analytic throughput model (Figures 5 and 6 trends)."""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import discrete_classifier_pareto_configs
from repro.perf.throughput_model import ThroughputModel, ThroughputModelConfig


@pytest.fixture(scope="module")
def model():
    return ThroughputModel()


class TestConfigValidation:
    def test_defaults_valid(self):
        ThroughputModelConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_dnn_ops_per_second": 0},
            {"classifier_ops_per_second": -1},
            {"fixed_overhead_seconds": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ThroughputModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_dnn_ops_per_second", float("nan")),
            ("base_dnn_ops_per_second", float("inf")),
            ("classifier_ops_per_second", float("nan")),
            ("classifier_ops_per_second", float("inf")),
            ("fixed_overhead_seconds", float("nan")),
            ("fixed_overhead_seconds", float("inf")),
            ("filterforward_overhead_seconds", float("nan")),
            ("per_classifier_overhead_seconds", float("inf")),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        # A NaN rate made filterforward_fps(1) return inf; a NaN overhead made
        # break_even_classifiers() try every count and return -1.
        with pytest.raises(ValueError, match="finite"):
            ThroughputModelConfig(**{field: value})


class TestFilterForwardScaling:
    def test_breakdown_components(self, model):
        breakdown = model.filterforward_breakdown(10, "localized")
        assert breakdown.total_seconds == pytest.approx(
            breakdown.base_dnn_seconds + breakdown.classifiers_seconds + breakdown.overhead_seconds
        )
        assert breakdown.fps == pytest.approx(1.0 / breakdown.total_seconds)

    def test_base_dnn_time_independent_of_classifier_count(self, model):
        one = model.filterforward_breakdown(1, "localized")
        fifty = model.filterforward_breakdown(50, "localized")
        assert one.base_dnn_seconds == fifty.base_dnn_seconds

    def test_base_dnn_takes_roughly_a_third_of_a_second(self, model):
        """Figure 6: the base DNN bar sits around 0.3 s per frame on the paper's CPU."""
        assert 0.2 < model.filterforward_breakdown(1).base_dnn_seconds < 0.45

    def test_classifier_time_grows_linearly(self, model):
        t10 = model.filterforward_breakdown(10, "localized").classifiers_seconds
        t20 = model.filterforward_breakdown(20, "localized").classifiers_seconds
        assert t20 == pytest.approx(2 * t10)

    def test_throughput_decreases_with_more_classifiers(self, model):
        fps = [model.filterforward_fps(n, "localized") for n in (1, 10, 25, 50)]
        assert all(a > b for a, b in zip(fps, fps[1:]))

    def test_windowed_is_slowest_architecture(self, model):
        assert model.filterforward_fps(20, "windowed") < model.filterforward_fps(20, "localized")
        assert model.filterforward_fps(20, "localized") < model.filterforward_fps(20, "full_frame")

    def test_invalid_count(self, model):
        with pytest.raises(ValueError):
            model.filterforward_fps(0)


class TestPaperTrends:
    def test_single_classifier_dcs_are_faster(self, model):
        """The model side of claim ``fig5.single_vs_dc``."""
        ratio = model.filterforward_fps(1, "localized") / model.discrete_classifier_fps(1)
        assert 0.2 < ratio < 0.6

    def test_single_classifier_mobilenet_slightly_faster(self, model):
        ratio = model.filterforward_fps(1, "localized") / model.multiple_mobilenets_fps(1)
        assert 0.8 < ratio < 1.0

    def test_break_even_at_a_handful_of_classifiers(self, model):
        """The model side of claim ``fig5.break_even``."""
        break_even = min(
            model.break_even_classifiers(arch) for arch in ("full_frame", "localized")
        )
        assert 3 <= break_even <= 6

    def test_large_speedup_at_fifty_classifiers(self, model):
        """The model side of claim ``fig5.speedup_at_50``."""
        best = max(
            model.filterforward_fps(50, arch) / model.discrete_classifier_fps(50)
            for arch in ("full_frame", "localized", "windowed")
        )
        assert 4.0 < best < 9.0

    def test_mobilenets_never_overtake_filterforward_beyond_two(self, model):
        for n in (2, 5, 10, 20, 30):
            assert model.filterforward_fps(n, "full_frame") > model.multiple_mobilenets_fps(n)

    def test_mobilenets_out_of_memory_past_thirty(self, model):
        assert not np.isnan(model.multiple_mobilenets_fps(30))
        assert np.isnan(model.multiple_mobilenets_fps(31))

    def test_dc_series_runs_the_sweeps_most_expensive_dc(self, model):
        """Figure 5's DC is the sweep's representative one, the rule Figure 7 applies."""
        sweep = discrete_classifier_pareto_configs()
        representative = max(sweep, key=model.cost_model.dc_cost)
        assert representative.name == "dc_xxlarge"
        cfg = model.config
        seconds = model.cost_model.dc_cost(representative) / cfg.classifier_ops_per_second
        for n in (1, 7):
            total = cfg.fixed_overhead_seconds + n * (seconds + cfg.per_classifier_overhead_seconds)
            assert model.discrete_classifier_fps(n) == 1.0 / total

    def test_sweep_contains_all_series(self, model):
        series = model.sweep([1, 10, 50])
        assert list(series) == [
            "num_classifiers",
            "filterforward_full_frame",
            "filterforward_windowed",
            "filterforward_localized",
            "discrete_classifiers",
            "multiple_mobilenets",
        ]
        assert all(len(values) == 3 for values in series.values())

    def test_base_dnn_equivalent_to_tens_of_mcs(self, model):
        """The model side of claims ``fig6.base_dnn_in_mcs.*``."""
        breakdown = model.filterforward_breakdown(1, "localized")
        equivalent = breakdown.base_dnn_seconds / breakdown.classifiers_seconds
        assert 10 <= equivalent <= 55


class TestMultipleMobileNets:
    """One full MobileNet per application (Figure 5's baseline series)."""

    def test_one_instance_costs_one_base_dnn_pass(self, model):
        cfg = model.config
        expected = (
            cfg.fixed_overhead_seconds
            + model.cost_model.base_dnn_cost() / cfg.base_dnn_ops_per_second
            + cfg.per_classifier_overhead_seconds
        )
        assert 1.0 / model.multiple_mobilenets_fps(1) == pytest.approx(expected)

    def test_time_per_frame_scales_linearly(self, model):
        overhead = model.config.fixed_overhead_seconds
        one = 1.0 / model.multiple_mobilenets_fps(1) - overhead
        ten = 1.0 / model.multiple_mobilenets_fps(10) - overhead
        assert ten == pytest.approx(10 * one)

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_count_rejected(self, model, count):
        with pytest.raises(ValueError, match="num_classifiers"):
            model.multiple_mobilenets_fps(count)

    def test_sweep_series_is_nan_past_memory_limit(self, model):
        series = model.sweep([10, 30, 31, 50])["multiple_mobilenets"]
        assert np.isfinite(series[:2]).all()
        assert np.isnan(series[2:]).all()
