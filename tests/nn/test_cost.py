"""Tests for the analytic multiply-add formulas (paper Section 4.5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.cost import (
    conv_multiply_adds,
    dense_multiply_adds,
    separable_conv_multiply_adds,
)
from repro.nn.layers import Conv2D, Dense, SeparableConv2D


class TestPaperFormulas:
    def test_dense_formula(self):
        # N * H * W * M
        assert dense_multiply_adds(7, 120, 512, 200) == 200 * 7 * 120 * 512

    def test_conv_formula(self):
        # H/S * W/S * M * K^2 * F
        assert conv_multiply_adds(33, 60, 1024, kernel=1, filters=32) == 33 * 60 * 1024 * 1 * 32

    def test_conv_formula_with_stride(self):
        assert conv_multiply_adds(66, 120, 16, kernel=3, filters=8, stride=2) == 33 * 60 * 16 * 9 * 8

    def test_separable_formula(self):
        # H/S * W/S * M * (K^2 + F)
        assert separable_conv_multiply_adds(67, 120, 512, kernel=3, filters=16) == 67 * 120 * 512 * (9 + 16)

    def test_separable_cheaper_than_standard(self):
        standard = conv_multiply_adds(32, 32, 64, kernel=3, filters=64)
        separable = separable_conv_multiply_adds(32, 32, 64, kernel=3, filters=64)
        assert separable < standard / 7  # roughly K^2*F / (K^2+F) ~ 7.9x here

    @pytest.mark.parametrize("func", [dense_multiply_adds])
    def test_rejects_non_positive_dense(self, func):
        with pytest.raises(ValueError):
            func(0, 10, 10, 10)

    def test_rejects_non_positive_conv(self):
        with pytest.raises(ValueError):
            conv_multiply_adds(10, 10, 10, kernel=0, filters=4)

    @given(
        h=st.integers(1, 64),
        w=st.integers(1, 64),
        m=st.integers(1, 64),
        k=st.integers(1, 5),
        f=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_formulas_are_positive_and_monotone_in_filters(self, h, w, m, k, f):
        base = conv_multiply_adds(h, w, m, kernel=k, filters=f)
        more = conv_multiply_adds(h, w, m, kernel=k, filters=f + 1)
        assert base > 0
        assert more > base


class TestLayerAgreement:
    """Layer.multiply_adds must agree with the standalone formulas."""

    def test_conv_layer_agrees(self):
        layer = Conv2D(8, 3, stride=2)
        layer.build((20, 30, 4), np.random.default_rng(0))
        assert layer.multiply_adds((20, 30, 4)) == conv_multiply_adds(20, 30, 4, 3, 8, stride=2)

    def test_separable_layer_agrees(self):
        layer = SeparableConv2D(8, 3)
        layer.build((20, 30, 4), np.random.default_rng(0))
        assert layer.multiply_adds((20, 30, 4)) == separable_conv_multiply_adds(20, 30, 4, 3, 8)

    def test_dense_layer_agrees(self):
        layer = Dense(16)
        layer.build((5, 6, 7), np.random.default_rng(0))
        assert layer.multiply_adds((5, 6, 7)) == dense_multiply_adds(5, 6, 7, 16)
