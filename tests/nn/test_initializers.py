"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.nn.initializers import (
    Constant,
    GlorotUniform,
    HeNormal,
    Initializer,
)


class TestConstant:
    def test_fills_with_value(self):
        out = Constant(3.5)((2, 3), np.random.default_rng(0))
        assert out.shape == (2, 3)
        assert np.all(out == 3.5)

    def test_default_is_zero(self):
        assert np.all(Constant()((4,), np.random.default_rng(0)) == 0.0)


class TestGlorotUniform:
    def test_respects_limit(self):
        shape = (50, 80)
        out = GlorotUniform()(shape, np.random.default_rng(0))
        limit = np.sqrt(6.0 / (50 + 80))
        assert out.shape == shape
        assert np.all(np.abs(out) <= limit)

    def test_conv_kernel_fan_includes_receptive_field(self):
        out = GlorotUniform()((3, 3, 8, 16), np.random.default_rng(0))
        limit = np.sqrt(6.0 / (9 * 8 + 9 * 16))
        assert np.all(np.abs(out) <= limit)

    def test_deterministic_given_seed(self):
        a = GlorotUniform()((10, 10), np.random.default_rng(7))
        b = GlorotUniform()((10, 10), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestHeNormal:
    def test_std_scales_with_fan_in(self):
        rng = np.random.default_rng(0)
        out = HeNormal()((2000, 50), rng)
        expected_std = np.sqrt(2.0 / 2000)
        assert out.std() == pytest.approx(expected_std, rel=0.1)

    def test_mean_near_zero(self):
        out = HeNormal()((100, 100), np.random.default_rng(1))
        assert abs(out.mean()) < 0.01



INITIALIZERS = [Constant(0.25), GlorotUniform(), HeNormal()]
INITIALIZER_IDS = ["constant", "glorot_uniform", "he_normal"]


class TestInitializerContract:
    @pytest.mark.parametrize("init", INITIALIZERS, ids=INITIALIZER_IDS)
    @pytest.mark.parametrize("shape", [(4,), (3, 5), (3, 3, 2, 4)], ids=["bias", "dense", "conv"])
    def test_shape_and_dtype(self, init, shape):
        out = init(shape, np.random.default_rng(0))
        assert out.shape == shape
        assert out.dtype == np.float64

    @pytest.mark.parametrize("init", INITIALIZERS, ids=INITIALIZER_IDS)
    def test_same_seed_same_draw(self, init):
        a = init((6, 4), np.random.default_rng(11))
        b = init((6, 4), np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "shape, fans",
        [((7,), (7, 7)), ((3, 5), (3, 5)), ((3, 3, 2, 4), (18, 36))],
        ids=["bias", "dense", "conv"],
    )
    def test_fan_in_out(self, shape, fans):
        assert Initializer._fan_in_out(shape) == fans

    def test_he_normal_conv_fan_in_includes_receptive_field(self):
        out = HeNormal()((3, 3, 200, 8), np.random.default_rng(0))
        assert out.std() == pytest.approx(np.sqrt(2.0 / (9 * 200)), rel=0.1)
