"""Tests for the FilterForward feature extractor."""

import numpy as np
import pytest

from repro.features.extractor import FeatureExtractor, FeatureMapCrop
from repro.video.frame import Frame


class TestFeatureMapCrop:
    def test_rejects_empty_rectangles(self):
        with pytest.raises(ValueError):
            FeatureMapCrop(10, 10, 10, 20)
        with pytest.raises(ValueError):
            FeatureMapCrop(-1, 0, 5, 5)

    @pytest.mark.parametrize(
        "corners",
        [
            (float("nan"), 0, 10, 10),
            (0, 0, float("inf"), 10),
            (0, 0, 10, float("nan")),
            (0, -float("inf"), 10, 10),
        ],
    )
    def test_rejects_non_finite_coordinates(self, corners):
        """Such a crop would only fail later, in ``to_feature_coords``'s int conversion."""
        with pytest.raises(ValueError, match="Crop coordinates must be finite"):
            FeatureMapCrop(*corners)

    def test_rescaling_to_feature_coordinates(self):
        crop = FeatureMapCrop(0, 540, 1920, 1080)  # bottom half of a 1080p frame
        y0, y1, x0, x1 = crop.to_feature_coords((1080, 1920), (68, 120))
        assert x0 == 0 and x1 == 120
        assert y0 == 34 and y1 == 68

    def test_rescaled_crop_never_empty(self):
        crop = FeatureMapCrop(10, 10, 12, 12)  # tiny pixel crop
        y0, y1, x0, x1 = crop.to_feature_coords((1080, 1920), (4, 4))
        assert y1 > y0 and x1 > x0

    def test_rescaled_crop_clamped_to_bounds(self):
        crop = FeatureMapCrop(0, 0, 1920, 1080)
        y0, y1, x0, x1 = crop.to_feature_coords((1080, 1920), (9, 15))
        assert (y0, y1, x0, x1) == (0, 9, 0, 15)


class TestFeatureExtractor:
    def test_requires_known_tap_layers(self, tiny_base_dnn):
        with pytest.raises(KeyError):
            FeatureExtractor(tiny_base_dnn, ["not_a_layer"])
        with pytest.raises(ValueError):
            FeatureExtractor(tiny_base_dnn, [])

    def test_extract_returns_requested_layers(self, tiny_extractor, rng):
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        activations = tiny_extractor.extract(frame)
        assert set(activations) == {"conv4_2/sep", "conv5_6/sep"}
        assert activations["conv4_2/sep"].shape == tiny_extractor.layer_shape("conv4_2/sep")

    def test_extraction_is_cached_per_frame(self, tiny_extractor, rng, base_dnn_passes):
        frame = Frame(3, rng.random((32, 48, 3)).astype(np.float32))
        passes = base_dnn_passes(tiny_extractor.base_dnn)
        tiny_extractor.extract(frame)
        tiny_extractor.extract(frame)
        assert passes == [1]

    def test_cache_eviction(self, tiny_base_dnn, rng, base_dnn_passes):
        extractor = FeatureExtractor(tiny_base_dnn, ["conv4_2/sep"], cache_size=2)
        passes = base_dnn_passes(tiny_base_dnn)
        frames = [Frame(i, rng.random((32, 48, 3)).astype(np.float32)) for i in range(3)]
        for frame in frames:
            extractor.extract(frame)
        assert len(passes) == 3
        extractor.extract(frames[0])  # evicted, so recomputed
        assert len(passes) == 4

    def test_reset_cache(self, tiny_extractor, rng, base_dnn_passes):
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        passes = base_dnn_passes(tiny_extractor.base_dnn)
        tiny_extractor.extract(frame)
        tiny_extractor.reset_cache()
        tiny_extractor.extract(frame)
        assert len(passes) == 2

    def test_extract_pixels_bypasses_cache(self, tiny_extractor, rng, base_dnn_passes):
        """Figure 4 scores degraded frames this way, so they never shadow the originals."""
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        passes = base_dnn_passes(tiny_extractor.base_dnn)
        original = tiny_extractor.extract(frame)["conv4_2/sep"].copy()
        tiny_extractor.extract_pixels(np.zeros((32, 48, 3), dtype=np.float32))
        assert tiny_extractor.is_cached(0)
        np.testing.assert_array_equal(tiny_extractor.extract(frame)["conv4_2/sep"], original)
        assert passes == [1, 1]

    def test_feature_map_with_crop_reduces_spatial_extent(self, tiny_extractor, rng):
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        full = tiny_extractor.feature_map(frame, "conv4_2/sep")
        cropped = tiny_extractor.feature_map(
            frame, "conv4_2/sep", FeatureMapCrop(0, 16, 48, 32)
        )
        assert cropped.shape[0] < full.shape[0]
        assert cropped.shape[1] == full.shape[1]
        assert cropped.shape[2] == full.shape[2]

    def test_feature_map_requires_tapped_layer(self, tiny_extractor, rng):
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        with pytest.raises(KeyError):
            tiny_extractor.feature_map(frame, "conv2_1/sep")

    def test_cropped_layer_shape_matches_actual_crop(self, tiny_extractor, rng):
        crop = FeatureMapCrop(0, 16, 48, 32)
        frame = Frame(0, rng.random((32, 48, 3)).astype(np.float32))
        expected = tiny_extractor.cropped_layer_shape("conv4_2/sep", crop, (32, 48))
        actual = tiny_extractor.feature_map(frame, "conv4_2/sep", crop).shape
        assert tuple(actual) == expected

    def test_multiply_adds_per_frame_matches_base_dnn(self, tiny_extractor, tiny_base_dnn):
        assert tiny_extractor.multiply_adds_per_frame() == tiny_base_dnn.multiply_adds()

    def test_invalid_cache_size(self, tiny_base_dnn):
        with pytest.raises(ValueError):
            FeatureExtractor(tiny_base_dnn, ["conv4_2/sep"], cache_size=0)

    def test_same_pixels_give_same_features(self, tiny_extractor, rng):
        pixels = rng.random((32, 48, 3)).astype(np.float32)
        a = tiny_extractor.extract_pixels(pixels)
        b = tiny_extractor.extract_pixels(pixels)
        np.testing.assert_array_equal(a["conv5_6/sep"], b["conv5_6/sep"])

    def test_base_dnn_stops_at_the_deepest_tap(
        self, tiny_extractor, tiny_base_dnn, rng, monkeypatch
    ):
        """Nothing consumes the head output, so layers past the last tap do not run."""
        pixels = rng.random((32, 48, 3))
        ran = []

        def recording(layer):
            def forward(x, training=False):
                ran.append(layer.name)
                return type(layer).forward(layer, x, training=training)

            return forward

        with monkeypatch.context() as patch:
            for layer in tiny_base_dnn.layers:
                patch.setattr(layer, "forward", recording(layer))
            taps = tiny_extractor.extract_pixels(pixels)
        names = tiny_base_dnn.layer_names()
        assert ran == names[: names.index("conv5_6/sep") + 1]
        assert len(ran) < len(names)
        _, reference = tiny_base_dnn.forward_with_taps(pixels[None], tiny_extractor.tap_layers)
        for name, activation in taps.items():
            assert activation.tobytes() == reference[name][0].tobytes()
