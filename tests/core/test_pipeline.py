"""Tests for the end-to-end FilterForward pipeline over one whole stream."""

import numpy as np
import pytest

from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.pipeline import PipelineConfig
from repro.core.streaming import StreamingPipeline
from repro.features.extractor import FeatureExtractor


def make_mc(extractor, name, architecture="localized", layer="conv4_2/sep", crop=None, threshold=0.5):
    cfg = MicroClassifierConfig(name, layer, crop=crop, threshold=threshold, upload_bitrate=50_000)
    shape = extractor.cropped_layer_shape(layer, crop, (32, 48))
    return build_microclassifier(architecture, cfg, shape)


@pytest.fixture
def pipeline(tiny_extractor):
    mcs = [
        make_mc(tiny_extractor, "mc_localized"),
        make_mc(tiny_extractor, "mc_full_frame", architecture="full_frame", layer="conv5_6/sep"),
        make_mc(tiny_extractor, "mc_windowed", architecture="windowed"),
    ]
    return StreamingPipeline(tiny_extractor, mcs, PipelineConfig(batch_size=4), frame_rate=15.0)


class TestConstruction:
    def test_requires_at_least_one_mc(self, tiny_extractor):
        with pytest.raises(ValueError):
            StreamingPipeline(tiny_extractor, [])

    def test_rejects_duplicate_names(self, tiny_extractor):
        mcs = [make_mc(tiny_extractor, "same"), make_mc(tiny_extractor, "same")]
        with pytest.raises(ValueError, match="Duplicate"):
            StreamingPipeline(tiny_extractor, mcs)

    def test_rejects_untapped_layer(self, tiny_base_dnn):
        extractor = FeatureExtractor(tiny_base_dnn, ["conv5_6/sep"])
        mc = make_mc(
            FeatureExtractor(tiny_base_dnn, ["conv4_2/sep"]), "mc", layer="conv4_2/sep"
        )
        with pytest.raises(ValueError, match="does not tap"):
            StreamingPipeline(extractor, [mc])

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            PipelineConfig(batch_size=0)


class TestFeatureCollection:
    def test_base_dnn_runs_once_per_frame(
        self, pipeline, tiny_pipeline_stream, tiny_extractor, base_dnn_passes
    ):
        # Three MCs share one base-DNN pass per pushed frame.
        passes = base_dnn_passes(tiny_extractor.base_dnn)
        for frame in tiny_pipeline_stream:
            pipeline.push(frame)
        assert passes == [1] * len(tiny_pipeline_stream)


class TestProcessStream:
    def test_result_structure(self, pipeline, tiny_pipeline_stream):
        result = pipeline.process_stream(tiny_pipeline_stream)
        assert result.num_frames == 12
        assert set(result.per_mc) == {"mc_localized", "mc_full_frame", "mc_windowed"}
        for mc_result in result.per_mc.values():
            assert mc_result.probabilities.shape == (12,)
            assert mc_result.smoothed.shape == (12,)
            assert np.all((mc_result.probabilities >= 0) & (mc_result.probabilities <= 1))

    def test_thresholds_control_matches(self, tiny_extractor, tiny_pipeline_stream):
        accept_all = make_mc(tiny_extractor, "accept", threshold=0.01)
        reject_all = make_mc(tiny_extractor, "reject", threshold=0.99)
        pipeline = StreamingPipeline(tiny_extractor, [accept_all, reject_all], frame_rate=15.0)
        result = pipeline.process_stream(tiny_pipeline_stream)
        assert result.per_mc["accept"].num_matched_frames == 12
        assert result.per_mc["reject"].num_matched_frames == 0
        assert result.per_mc["reject"].encoded is None
        assert result.per_mc["reject"].average_bandwidth == 0.0

    def test_upload_accounting(self, tiny_extractor, tiny_pipeline_stream):
        accept_all = make_mc(tiny_extractor, "accept", threshold=0.01)
        pipeline = StreamingPipeline(tiny_extractor, [accept_all], frame_rate=15.0)
        result = pipeline.process_stream(tiny_pipeline_stream)
        assert result.upload_fraction == 1.0
        assert result.total_uploaded_bits > 0
        # Uploading everything at 50 kb/s costs ~50 kb/s on average.
        assert result.average_uplink_bandwidth == pytest.approx(50_000, rel=0.1)

    def test_frames_annotated_with_events(self, tiny_extractor, tiny_pipeline_stream):
        accept_all = make_mc(tiny_extractor, "accept", threshold=0.01)
        pipeline = StreamingPipeline(tiny_extractor, [accept_all], frame_rate=15.0)
        result = pipeline.process_stream(tiny_pipeline_stream)
        assert len(result.per_mc["accept"].events) == 1
        event_id = result.per_mc["accept"].events[0].event_id
        assert tiny_pipeline_stream[5].event_memberships() == {"accept": event_id}

    def test_events_match_smoothed_runs(self, pipeline, tiny_pipeline_stream):
        result = pipeline.process_stream(tiny_pipeline_stream)
        for mc_result in result.per_mc.values():
            covered = np.zeros(12, dtype=np.int8)
            for event in mc_result.events:
                covered[event.start : event.end] = 1
            np.testing.assert_array_equal(covered, mc_result.smoothed)

    def test_multiply_adds_accounting(self, pipeline, tiny_pipeline_stream, tiny_extractor):
        result = pipeline.process_stream(tiny_pipeline_stream)
        assert result.base_dnn_multiply_adds_per_frame == tiny_extractor.multiply_adds_per_frame()
        assert set(result.mc_multiply_adds_per_frame) == {
            "mc_localized",
            "mc_full_frame",
            "mc_windowed",
        }
        assert all(cost > 0 for cost in result.mc_multiply_adds_per_frame.values())
