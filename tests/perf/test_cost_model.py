"""Tests for the paper-scale cost model.

The integers below are the multiply-adds behind Figures 5-7 and the fleet's
resolution-scaled service times; a change to how costs are derived must not
move any of them.
"""

import numpy as np
import pytest

from repro.baselines.discrete_classifier import (
    DiscreteClassifier,
    DiscreteClassifierConfig,
    discrete_classifier_pareto_configs,
)
from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.perf.cost_model import CostModel

TAPS = {"full_frame": "conv5_6/sep", "localized": "conv4_2/sep", "windowed": "conv4_2/sep"}
FLEET_RESOLUTIONS = [(32, 32), (48, 32), (64, 48), (80, 48), (96, 64)]
FLEET_ALPHA = 0.125
REPRESENTATIVE_DC = DiscreteClassifierConfig(name="rep", kernels=(32, 64, 64), strides=(2, 2, 1))
DC_CONFIGS = [*discrete_classifier_pareto_configs(), REPRESENTATIVE_DC, DiscreteClassifierConfig()]


class TestPinnedPaperNumbers:
    def test_1080p(self):
        model = CostModel(resolution=(1920, 1080))
        assert model.base_dnn_cost() == 23_573_575_680
        assert {arch: model.mc_cost(arch) for arch in TAPS} == {
            "full_frame": 69_000_960,
            "localized": 118_842_440,
            "windowed": 541_563_080,
        }
        assert {c.name: model.dc_cost(c) for c in discrete_classifier_pareto_configs()} == {
            "dc_small": 93_312_032,
            "dc_medium": 406_425_632,
            "dc_large": 779_673_632,
            "dc_xlarge": 1_857_945_632,
            "dc_xxlarge": 2_305_843_232,
        }

    def test_roadway(self):
        model = CostModel(resolution=(2048, 850))
        assert model.base_dnn_cost() == 19_931_299_840
        assert model.mc_cost("localized") == 100_666_568
        assert CostModel(resolution=(2048, 850), crop_fraction=0.59).mc_cost("localized") == (
            59_654_344
        )


class TestCostModelEqualsBuiltModels:
    """The cost model's answer is what the executable model reports once built."""

    @pytest.mark.parametrize("resolution", FLEET_RESOLUTIONS)
    @pytest.mark.parametrize("architecture", sorted(TAPS))
    def test_mc_cost(self, resolution, architecture):
        model = CostModel(resolution=resolution, alpha=FLEET_ALPHA)
        shape = model.layer_shapes()[TAPS[architecture]]
        config = MicroClassifierConfig(name="mc", input_layer=TAPS[architecture])
        mc = build_microclassifier(architecture, config, shape)
        assert model.mc_cost(architecture) == mc.multiply_adds()

    @pytest.mark.parametrize("resolution", FLEET_RESOLUTIONS)
    @pytest.mark.parametrize("config", DC_CONFIGS, ids=lambda c: c.name)
    def test_dc_cost(self, resolution, config):
        width, height = resolution
        dc = DiscreteClassifier(config)
        dc.build((height, width, 3), rng=np.random.default_rng(0))
        assert CostModel(resolution=resolution, alpha=FLEET_ALPHA).dc_cost(config) == (
            dc.multiply_adds()
        )


class TestCostModel:
    @pytest.fixture(scope="class")
    def model(self):
        return CostModel(resolution=(1920, 1080))

    def test_full_frame_cost_is_dominated_by_its_first_1x1_conv(self, model):
        h, w, c = model.layer_shapes()["conv5_6/sep"]
        first_layer = h * w * c * 32
        assert first_layer < model.mc_cost("full_frame") < 1.2 * first_layer

    def test_localized_cost_is_around_1e8(self, model):
        assert 80e6 < model.mc_cost("localized") < 200e6  # Figure 7's MCs sit near 10^8

    def test_windowed_cost_exceeds_localized(self, model):
        assert model.mc_cost("windowed") > model.mc_cost("localized")

    def test_mc_cost_scales_with_feature_map_area(self, model):
        assert model.mc_cost("localized") > 2 * CostModel(resolution=(960, 540)).mc_cost("localized")

    def test_base_dnn_dwarfs_microclassifiers(self, model):
        """The base DNN costs ~2 orders of magnitude more than one MC (Figures 5-6)."""
        for architecture in TAPS:
            assert model.base_dnn_cost() > 20 * model.mc_cost(architecture)

    def test_mc_costs_much_lower_than_representative_dc(self, model):
        dc_cost = model.dc_cost(REPRESENTATIVE_DC)
        assert dc_cost > 5 * model.mc_cost("localized")
        assert dc_cost > 10 * model.mc_cost("full_frame")

    def test_unknown_architecture_rejected(self, model):
        with pytest.raises(ValueError):
            model.mc_cost("resnet")

    def test_crop_fraction_reduces_mc_cost(self):
        full = CostModel(resolution=(2048, 850), crop_fraction=1.0)
        cropped = CostModel(resolution=(2048, 850), crop_fraction=0.59)
        assert cropped.mc_cost("localized") < full.mc_cost("localized")
        # The base DNN always processes the full frame; cropping is MC-local.
        assert cropped.base_dnn_cost() == full.base_dnn_cost()

    def test_layer_shapes_exposed(self, model):
        shapes = model.layer_shapes()
        assert shapes["conv4_2/sep"][2] == 512
        assert shapes["conv5_6/sep"][2] == 1024

    def test_layer_shapes_are_the_callers_own(self, model):
        model.layer_shapes()["conv4_2/sep"] = (1, 1, 1)
        assert model.layer_shapes()["conv4_2/sep"] == (68, 120, 512)


class TestValidation:
    """The analytic path rejects what the executable path rejects."""

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_non_positive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            CostModel(alpha=alpha).base_dnn_cost()
        with pytest.raises(ValueError, match="alpha"):
            CostModel(alpha=alpha).mc_cost("localized")

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_is_checked_at_construction(self, alpha):
        # Not at the first query (a NaN failed there in an int conversion).
        with pytest.raises(ValueError, match="alpha"):
            CostModel(alpha=alpha)

    @pytest.mark.parametrize("resolution", [(float("nan"), 10), (10, float("inf"))])
    def test_non_finite_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            CostModel(resolution=resolution)

    @pytest.mark.parametrize("crop_fraction", [0.0, -0.5, 3.0])
    def test_crop_fraction_outside_unit_interval(self, crop_fraction):
        with pytest.raises(ValueError, match="crop_fraction"):
            CostModel(crop_fraction=crop_fraction)

    @pytest.mark.parametrize("resolution", [(0, 1080), (1920, -1), (1920,)])
    def test_non_positive_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            CostModel(resolution=resolution)
