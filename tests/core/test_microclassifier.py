"""Tests for the microclassifier configuration and base API."""

import numpy as np
import pytest

from repro.core.architectures import FullFrameObjectDetectorMC, build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.pipeline import mc_input_feature_map
from repro.core.training import score_classifier
from repro.features.extractor import FeatureMapCrop
from repro.video.codec import H264Simulator
from repro.video.frame import Frame


class TestMicroClassifierConfig:
    def test_valid_config(self):
        cfg = MicroClassifierConfig("dogs", "conv4_2/sep")
        assert cfg.threshold == 0.5
        assert cfg.crop is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"upload_bitrate": 0.0},
            {"upload_bitrate": float("nan")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        base = dict(name="mc", input_layer="conv4_2/sep")
        base.update(kwargs)
        with pytest.raises(ValueError):
            MicroClassifierConfig(**base)

    @pytest.mark.parametrize("bitrate", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_upload_bitrate_rejected(self, bitrate):
        """An infinite bitrate would make a session upload infinitely many bits."""
        with pytest.raises(ValueError, match="upload_bitrate must be positive and finite"):
            MicroClassifierConfig("mc", "conv4_2/sep", upload_bitrate=bitrate)

    def test_config_is_frozen(self):
        cfg = MicroClassifierConfig("mc", "conv4_2/sep")
        with pytest.raises(AttributeError):
            cfg.threshold = 0.9  # type: ignore[misc]


class TestMicroClassifierWithExtractor:
    def test_build_uses_cropped_shape(self, tiny_extractor):
        crop = FeatureMapCrop(0, 16, 48, 32)
        cfg = MicroClassifierConfig("mc", "conv4_2/sep", crop=crop)
        mc = build_microclassifier(
            "localized", cfg, tiny_extractor.cropped_layer_shape("conv4_2/sep", crop, (32, 48))
        )
        assert mc.input_shape == tiny_extractor.cropped_layer_shape("conv4_2/sep", crop, (32, 48))


CROP = FeatureMapCrop(0, 16, 48, 32)


def random_frame(rng, index=0):
    return Frame(index, rng.random((32, 48, 3)).astype(np.float32))


def localized_mc(extractor, crop=None):
    cfg = MicroClassifierConfig("mc", "conv4_2/sep", crop=crop)
    return build_microclassifier(
        "localized", cfg, extractor.cropped_layer_shape("conv4_2/sep", crop, (32, 48))
    )


class TestScoringThroughExtractor:
    """A frame goes pixels -> tapped (cropped) feature map -> MC probability."""

    @pytest.mark.parametrize("crop", [None, CROP], ids=["full", "cropped"])
    def test_feature_map_scores_end_to_end(self, tiny_extractor, rng, crop):
        mc = localized_mc(tiny_extractor, crop)
        feature_map = tiny_extractor.feature_map(random_frame(rng), mc.input_layer, mc.crop)
        assert feature_map.shape == mc.input_shape
        [probability] = mc.predict_proba_batch(feature_map[None])
        assert 0.0 <= probability <= 1.0

    @pytest.mark.parametrize("crop", [None, CROP], ids=["full", "cropped"])
    def test_pipeline_input_map_equals_extractor_feature_map(self, tiny_extractor, rng, crop):
        mc = localized_mc(tiny_extractor, crop)
        frame = random_frame(rng)
        from_pipeline = mc_input_feature_map(mc, frame, tiny_extractor.extract(frame))
        np.testing.assert_array_equal(
            from_pipeline, tiny_extractor.feature_map(frame, mc.input_layer, mc.crop)
        )

    def test_build_on_deepest_tap(self, tiny_extractor):
        mc = FullFrameObjectDetectorMC(MicroClassifierConfig("mc", "conv5_6/sep"))
        mc.build(tiny_extractor.layer_shape("conv5_6/sep"), np.random.default_rng(0))
        assert mc.built
        assert mc.input_shape == tiny_extractor.layer_shape("conv5_6/sep")

    def test_stacked_batch_equals_single_scores(self, tiny_extractor, rng):
        mc = localized_mc(tiny_extractor)
        maps = [
            tiny_extractor.feature_map(random_frame(rng, i), mc.input_layer) for i in range(3)
        ]
        batch = mc.predict_proba_batch(np.stack(maps, axis=0))
        assert batch.shape == (3,)
        singles = [mc.predict_proba_batch(m[None])[0] for m in maps]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_heavy_compression_changes_probabilities(self, tiny_extractor, tiny_pipeline_stream):
        """Figure 4's compress-everything path scores the same MC on transcoded frames."""
        mc = localized_mc(tiny_extractor)

        def scores(frames):
            maps = [
                mc_input_feature_map(mc, f, tiny_extractor.extract_pixels(f.pixels))
                for f in frames
            ]
            return score_classifier(mc, np.stack(maps, axis=0))

        degraded, _ = H264Simulator().transcode_stream(tiny_pipeline_stream, 2_000)
        original = scores(list(tiny_pipeline_stream))
        assert original.shape == (len(tiny_pipeline_stream),)
        assert not np.allclose(original, scores(degraded))
