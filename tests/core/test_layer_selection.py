"""Tests for the layer-selection heuristic (paper Section 3.4)."""

import pytest

from repro.core.layer_selection import select_input_layer
from repro.features.base_dnn import mobilenet_layer_shapes


class TestSelectInputLayer:
    def test_paper_example_pedestrians_at_1080p(self):
        """40-pixel pedestrians at 1080p should select a layer with 20:1-50:1 reduction."""
        shapes = mobilenet_layer_shapes((1920, 1080), alpha=1.0)
        candidates = {k: shapes[k] for k in ("conv2_2/sep", "conv3_2/sep", "conv4_2/sep", "conv5_6/sep")}
        layer = select_input_layer(1080, 40, candidates)
        assert 20 <= 1080 / candidates[layer][0] <= 50
        assert layer in ("conv4_2/sep", "conv5_6/sep")

    def test_widened_window_recovers_paper_layer_choice(self):
        """A window whose bottom edge sits below 16:1 reproduces the paper's conv4_2 pick.

        The window scales with the object: for a 30-pixel object it spans 15:1-37.5:1.
        """
        shapes = mobilenet_layer_shapes((1920, 1080), alpha=1.0)
        candidates = {k: shapes[k] for k in ("conv2_2/sep", "conv3_2/sep", "conv4_2/sep", "conv5_6/sep")}
        assert select_input_layer(1080, 30, candidates) == "conv4_2/sep"

    def test_small_objects_pick_shallow_layer(self):
        shapes = mobilenet_layer_shapes((256, 144), alpha=0.25)
        candidates = {k: shapes[k] for k in ("conv2_1/sep", "conv2_2/sep", "conv3_2/sep", "conv4_2/sep")}
        assert select_input_layer(144, 6, candidates) in ("conv2_1/sep", "conv2_2/sep")

    def test_large_objects_pick_deeper_layer(self):
        shapes = mobilenet_layer_shapes((1920, 1080), alpha=1.0)
        candidates = {k: shapes[k] for k in ("conv2_2/sep", "conv3_2/sep", "conv4_2/sep", "conv5_6/sep")}
        small = select_input_layer(1080, 20, candidates)
        large = select_input_layer(1080, 60, candidates)
        assert candidates[large][0] <= candidates[small][0]  # a larger reduction

    def test_falls_back_to_closest_reduction(self):
        # Only one very shallow candidate: nothing matches the window, so it is returned.
        assert select_input_layer(1080, 40, {"conv1": (540, 960, 32)}) == "conv1"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            select_input_layer(0, 40, {"x": (1, 1, 1)})
        with pytest.raises(ValueError):
            select_input_layer(1080, 0, {"x": (1, 1, 1)})
        with pytest.raises(ValueError):
            select_input_layer(1080, 40, {})
