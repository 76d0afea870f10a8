"""Tests for the MobileNet-style base DNN."""

import numpy as np
import pytest

from repro.features.base_dnn import (
    MOBILENET_BLOCKS,
    build_mobilenet_like,
    mobilenet_graph,
    mobilenet_layer_shapes,
    mobilenet_multiply_adds,
)


class TestArchitecture:
    def test_contains_paper_tap_layers(self, tiny_base_dnn):
        names = tiny_base_dnn.layer_names()
        assert "conv4_2/sep" in names
        assert "conv5_6/sep" in names

    def test_block_structure(self, tiny_base_dnn):
        names = tiny_base_dnn.layer_names()
        for block_name, _, _ in MOBILENET_BLOCKS:
            assert f"{block_name}/dw" in names
            assert f"{block_name}/sep/pw" in names
            assert f"{block_name}/sep" in names

    def test_spatial_reduction_factors(self, tiny_base_dnn):
        shapes = tiny_base_dnn.layer_output_shapes()
        # Input is 32x48; conv4_2 is at 1/16, conv5_6 at 1/32 (ceil rounding).
        assert shapes["conv4_2/sep"][:2] == (2, 3)
        assert shapes["conv5_6/sep"][:2] == (1, 2)

    def test_alpha_scales_channel_counts(self):
        thin = build_mobilenet_like((32, 32, 3), alpha=0.125)
        wide = build_mobilenet_like((32, 32, 3), alpha=0.5)
        thin_channels = thin.layer_output_shapes()["conv4_2/sep"][2]
        wide_channels = wide.layer_output_shapes()["conv4_2/sep"][2]
        assert wide_channels == 4 * thin_channels

    def test_forward_produces_finite_activations(self, tiny_base_dnn, rng):
        out = tiny_base_dnn.forward(rng.random((2, 32, 48, 3)))
        assert np.isfinite(out).all()

    def test_invalid_input_shape(self):
        with pytest.raises(ValueError):
            build_mobilenet_like((32, 32), alpha=0.25)
        with pytest.raises(ValueError):
            build_mobilenet_like((32, 32, 1), alpha=0.25)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            build_mobilenet_like((32, 32, 3), alpha=0.0)

    def test_graph_is_unbuilt_and_builds_to_the_same_weights(self):
        built = build_mobilenet_like((32, 48, 3), alpha=0.125)
        graph = mobilenet_graph(alpha=0.125)
        assert not graph.built and graph.parameters() == []
        assert graph.layer_names() == built.layer_names()
        graph.build((32, 48, 3), np.random.default_rng(0))
        for a, b in zip(graph.parameters(), built.parameters(), strict=True):
            np.testing.assert_array_equal(a.value, b.value)


class TestLayerShapes:
    def test_paper_scale_feature_map_dimensions(self):
        """At 1920x1080, the tap layers have the channel counts quoted in Figure 2."""
        shapes = mobilenet_layer_shapes((1920, 1080), alpha=1.0)
        h42, w42, c42 = shapes["conv4_2/sep"]
        h56, w56, c56 = shapes["conv5_6/sep"]
        assert c42 == 512 and c56 == 1024
        assert w42 == 120 and w56 == 60
        # Heights are 67/33 in the paper (floor rounding) vs 68/34 here (ceil).
        assert h42 in (67, 68) and h56 in (33, 34)

    def test_keys_are_conv1_then_every_block_tap_in_network_order(self):
        shapes = mobilenet_layer_shapes((1920, 1080), alpha=1.0)
        assert list(shapes) == ["conv1", *(f"{block}/sep" for block, _, _ in MOBILENET_BLOCKS)]
        assert shapes["conv1"] == (540, 960, 32)

    def test_shapes_agree_with_built_model(self, tiny_base_dnn):
        analytic = mobilenet_layer_shapes((48, 32), alpha=0.125)
        built = tiny_base_dnn.layer_output_shapes()
        for layer in ("conv2_2/sep", "conv4_2/sep", "conv5_6/sep"):
            assert analytic[layer] == built[layer]


class TestCost:
    def test_full_scale_cost_is_tens_of_gigamadds(self):
        """MobileNet at 1080p is ~41x its 224x224 cost (~0.57 GMadd), i.e. >20 GMadds."""
        full = mobilenet_multiply_adds((1920, 1080), alpha=1.0)
        small = mobilenet_multiply_adds((224, 224), alpha=1.0)
        assert 15e9 < full < 40e9
        assert 0.4e9 < small < 0.8e9
        assert full / small == pytest.approx(1920 * 1080 / (224 * 224), rel=0.15)

    def test_analytic_cost_matches_built_model(self, tiny_base_dnn):
        assert mobilenet_multiply_adds((48, 32), alpha=0.125) == tiny_base_dnn.multiply_adds()

    def test_cost_is_the_graph_cost(self):
        graph = mobilenet_graph(alpha=1.0)
        assert mobilenet_multiply_adds((1920, 1080)) == graph.multiply_adds((1080, 1920, 3))

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_non_positive_alpha_rejected_like_the_built_model(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            mobilenet_multiply_adds((1920, 1080), alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            mobilenet_layer_shapes((1920, 1080), alpha=alpha)

    def test_cost_scales_with_alpha(self):
        thin = mobilenet_multiply_adds((256, 144), alpha=0.25)
        full = mobilenet_multiply_adds((256, 144), alpha=1.0)
        assert full > 5 * thin
