"""Batch-vs-loop equivalence of the batched inference path (exact, not allclose).

The cross-camera batched scorer is only admissible because
:mod:`repro.nn.batched` produces *exactly* the bits the per-sample ``N=1``
forward produces — BLAS is free to pick different kernels by matrix size, so
this property is enforced by construction (per-sample-chunked GEMM) and
pinned here with ``np.array_equal`` over a 24-seed randomized sweep across
every layer family the base DNN and microclassifiers use.
"""

import numpy as np
import pytest

from repro.features.base_dnn import build_mobilenet_like
from repro.nn.batched import (
    batched_conv2d_forward,
    batched_dense_forward,
    batched_forward,
    batched_forward_with_taps,
    batched_layer_forward,
)
from repro.nn.im2col import im2col
from repro.nn.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAveragePool,
    GlobalMaxPool,
    MaxPool2D,
    SeparableConv2D,
)

SEEDS = range(24)


def random_input(rng, max_batch=9):
    n = int(rng.integers(2, max_batch + 1))
    h = int(rng.integers(6, 13))
    w = int(rng.integers(6, 13))
    c = int(rng.integers(1, 5))
    return rng.standard_normal((n, h, w, c))


def per_sample_forward(layer, x):
    """The reference: one N=1 forward per sample, concatenated."""
    return np.concatenate(
        [layer.forward(x[i : i + 1], training=False) for i in range(x.shape[0])], axis=0
    )


def random_layers(rng, channels):
    """One instance of every layer family, with randomized hyperparameters."""
    kernel = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = str(rng.choice(["same", "valid"]))
    filters = int(rng.integers(1, 7))
    return [
        Conv2D(filters, kernel, stride=stride, padding=padding),
        Conv2D(filters, 1, stride=1, padding="same"),  # the pointwise fast path
        DepthwiseConv2D(3, stride=stride, padding=padding),
        SeparableConv2D(filters, 3, stride=stride, padding="same"),
        MaxPool2D(2),
        GlobalMaxPool(),
        GlobalAveragePool(),
        Dense(int(rng.integers(1, 5))),
    ]


class TestLayerSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_layer_family_is_batch_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = random_input(rng)
        for layer in random_layers(rng, x.shape[3]):
            layer.build(x.shape[1:], rng)
            batched = batched_layer_forward(layer, x)
            looped = per_sample_forward(layer, x)
            assert batched.shape == looped.shape, layer.name
            assert np.array_equal(batched, looped), (
                f"{layer.name} batched forward is not bit-identical to the "
                f"per-sample loop at seed {seed}"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_and_dense_direct_entrypoints(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = random_input(rng, max_batch=5)
        conv = Conv2D(int(rng.integers(1, 5)), 3, stride=1, padding="same")
        conv.build(x.shape[1:], rng)
        assert np.array_equal(batched_conv2d_forward(conv, x), per_sample_forward(conv, x))
        dense = Dense(3)
        dense.build(x.shape[1:], rng)
        assert np.array_equal(batched_dense_forward(dense, x), per_sample_forward(dense, x))


class TestPointwiseLowering:
    """A 1x1 stride-1 ``Conv2D.forward`` skips im2col and keeps im2col's bits."""

    @staticmethod
    def im2col_lowered(conv, x):
        cols, (out_h, out_w), _ = im2col(x, conv.kernel_size, conv.stride, conv.padding)
        out = cols @ conv.kernel.value.reshape(x.shape[3], conv.filters) + conv.bias.value
        return out.reshape(x.shape[0], out_h, out_w, conv.filters)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_bytes_equal_im2col_lowering(self, seed, padding):
        rng = np.random.default_rng(seed)
        feature_map = rng.standard_normal((1, 14, 18, 24))
        inputs = {
            "contiguous": feature_map,
            "crop view": feature_map[:, 2:9, 3:15, :],
            "channel-strided view": feature_map[..., ::2],
            "batch": rng.standard_normal((5, 7, 6, 24)),
        }
        assert not inputs["crop view"].flags.c_contiguous
        for label, x in inputs.items():
            conv = Conv2D(int(rng.integers(1, 33)), 1, padding=padding)
            conv.build(x.shape[1:], rng)
            conv.bias.value[...] = rng.standard_normal(conv.filters)
            out = conv.forward(x, training=False)
            assert out.tobytes() == self.im2col_lowered(conv, x).tobytes(), label
            assert out.tobytes() == conv.forward(x, training=True).tobytes(), label

    def test_inference_forward_leaves_no_backward_state(self):
        conv = Conv2D(3, 1)
        conv.build((4, 4, 2), np.random.default_rng(0))
        conv.forward(np.ones((1, 4, 4, 2)))
        with pytest.raises(RuntimeError, match="before forward"):
            conv.backward(np.ones((1, 4, 4, 3)))


class TestModelEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_base_dnn_taps_are_batch_exact(self, seed):
        rng = np.random.default_rng(seed)
        model = build_mobilenet_like((32, 32, 3), alpha=0.125, rng=rng)
        taps = ["conv2_2/sep", "conv3_2/sep"]
        x = rng.random((6, 32, 32, 3))
        batched = batched_forward_with_taps(model, x, taps)
        for i in range(x.shape[0]):
            _, reference = model.forward_with_taps(x[i : i + 1], taps)
            for name in taps:
                assert np.array_equal(batched[name][i], reference[name][0]), name

    def test_full_forward_matches_per_sample(self):
        rng = np.random.default_rng(7)
        model = build_mobilenet_like((16, 16, 3), alpha=0.25, rng=rng)
        x = rng.random((4, 16, 16, 3))
        batched = batched_forward(model, x)
        looped = np.concatenate([model.forward(x[i : i + 1]) for i in range(4)], axis=0)
        assert np.array_equal(batched, looped)

    def test_stop_at_last_tap_skips_nothing_observable(self):
        rng = np.random.default_rng(11)
        model = build_mobilenet_like((16, 16, 3), alpha=0.25, rng=rng)
        x = rng.random((3, 16, 16, 3))
        early = batched_forward_with_taps(model, x, ["conv2_2/sep"])
        full = batched_forward_with_taps(model, x, ["conv2_2/sep"], stop_at_last_tap=False)
        assert np.array_equal(early["conv2_2/sep"], full["conv2_2/sep"])


class TestErrors:
    def test_unbuilt_conv_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            batched_conv2d_forward(Conv2D(2, 3), np.zeros((2, 8, 8, 3)))

    def test_unbuilt_dense_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            batched_dense_forward(Dense(2), np.zeros((2, 8)))

    def test_empty_taps_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(ValueError, match="at least one tap"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), [])

    def test_unknown_tap_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(KeyError, match="nope"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), ["nope"])
