"""Tests for the Figure 5 (throughput) and Figure 6 (breakdown) experiments."""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import DiscreteClassifier, DiscreteClassifierConfig
from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.experiments.figure5 import PAPER_CLASSIFIER_COUNTS, run_figure5
from repro.experiments.figure6 import PAPER_BREAKDOWN_COUNTS, run_figure6
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor
from repro.metrics.throughput import measure_throughput


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_sweep_covers_paper_counts(self, result):
        assert result.classifier_counts == PAPER_CLASSIFIER_COUNTS

    def test_series_cover_every_approach_and_count(self, result):
        assert {"filterforward_localized", "discrete_classifiers", "multiple_mobilenets"} <= set(result.series)
        assert all(len(values) == len(PAPER_CLASSIFIER_COUNTS) for values in result.series.values())

    def test_filterforward_wins_at_scale(self, result):
        ff, dc = result.series["filterforward_localized"], result.series["discrete_classifiers"]
        at = {n: i for i, n in enumerate(result.classifier_counts)}
        assert ff[at[50]] > dc[at[50]]
        assert ff[at[1]] < dc[at[1]]

    def test_mobilenets_oom_marked_as_nan(self, result):
        mobilenets = dict(zip(result.classifier_counts, result.series["multiple_mobilenets"]))
        assert np.isnan(mobilenets[50])
        assert not np.isnan(mobilenets[30])


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6()

    def test_all_architectures_present(self, result):
        assert set(result.breakdowns) == {"full_frame", "localized", "windowed"}
        assert all(list(per_count) == PAPER_BREAKDOWN_COUNTS for per_count in result.breakdowns.values())

    def test_base_dnn_time_constant_across_counts(self, result):
        per_count = result.breakdowns["localized"]
        values = {b.base_dnn_seconds for b in per_count.values()}
        assert len(values) == 1

    def test_classifier_time_grows_with_count(self, result):
        per_count = result.breakdowns["localized"]
        assert per_count[50].classifiers_seconds > per_count[1].classifiers_seconds

    def test_base_dnn_dominates_at_low_classifier_counts(self, result):
        breakdown = result.breakdowns["localized"][1]
        assert breakdown.base_dnn_seconds > breakdown.classifiers_seconds


@pytest.mark.slow
def test_figure5_measured_scaling_trend():
    """Measure real NumPy throughput of FF vs DCs at 1 and 8 classifiers.

    The absolute frame rates are not comparable to the paper's optimized
    C++ stacks; the *relative* degradation with classifier count is what the
    assertion checks (FilterForward's marginal cost per extra classifier is
    far smaller than a discrete classifier's).
    """
    frame_shape = (72, 128, 3)
    layer = "conv3_2/sep"
    rng = np.random.default_rng(0)
    base = build_mobilenet_like(frame_shape, alpha=0.25, rng=rng)
    extractor = FeatureExtractor(base, [layer], cache_size=2)
    layer_shape = extractor.layer_shape(layer)
    mcs = [
        build_microclassifier(
            "localized", MicroClassifierConfig(f"mc{i}", layer), layer_shape, rng=rng
        )
        for i in range(8)
    ]
    dc = DiscreteClassifier(DiscreteClassifierConfig(kernels=(32, 64, 64), strides=(2, 2, 1)))
    dc.build(frame_shape, rng=rng)
    frames = [rng.random(frame_shape).astype(np.float32) for _ in range(4)]

    def filterforward_pass(num_mcs: int):
        def run(i: int) -> None:
            maps = extractor.extract_pixels(frames[i % len(frames)])[layer][None]
            for mc in mcs[:num_mcs]:
                mc.predict_proba_batch(maps)

        return run

    def discrete_pass(num_dcs: int):
        def run(i: int) -> None:
            pixels = frames[i % len(frames)][None, ...]
            for _ in range(num_dcs):
                dc.predict_proba_batch(pixels)

        return run

    def warm_fps(run) -> float:
        # One discarded call first: a 4-frame measurement that starts cold
        # (first touch of the kernels and their pages) lost the comparison
        # about one run in five on a busy host.
        return measure_throughput(run, num_frames=4, warmup_frames=1).fps

    def measure_all():
        return {
            "ff_1": warm_fps(filterforward_pass(1)),
            "ff_8": warm_fps(filterforward_pass(8)),
            "dc_1": warm_fps(discrete_pass(1)),
            "dc_8": warm_fps(discrete_pass(8)),
        }

    measure_all()  # one discarded warm-up round
    fps = measure_all()
    ff_degradation = fps["ff_1"] / fps["ff_8"]
    dc_degradation = fps["dc_1"] / fps["dc_8"]
    assert ff_degradation < dc_degradation
