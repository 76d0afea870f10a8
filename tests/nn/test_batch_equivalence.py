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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.base_dnn import build_mobilenet_like
from repro.nn.batched import (
    banked_forward,
    banked_layer_forward,
    batched_forward_with_taps,
    batched_layer_forward,
)
from repro.nn.im2col import im2col
from repro.nn.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalMaxPool,
    MaxPool2D,
    ReLU,
    ReLU6,
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
    filters = int(rng.integers(1, 7))
    return [
        Conv2D(filters, kernel, stride=stride),
        Conv2D(filters, 1, stride=1),  # the pointwise fast path
        DepthwiseConv2D(3, stride=stride),
        SeparableConv2D(filters, 3, stride=stride),
        MaxPool2D(),
        GlobalMaxPool(),
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
        conv = Conv2D(int(rng.integers(1, 5)), 3, stride=1)
        conv.build(x.shape[1:], rng)
        assert np.array_equal(batched_layer_forward(conv, x), per_sample_forward(conv, x))
        dense = Dense(3)
        dense.build(x.shape[1:], rng)
        assert np.array_equal(batched_layer_forward(dense, x), per_sample_forward(dense, x))


class TestPointwiseLowering:
    """A 1x1 stride-1 ``Conv2D.forward`` skips im2col and keeps im2col's bits."""

    @staticmethod
    def im2col_lowered(conv, x):
        cols, (out_h, out_w), _ = im2col(x, conv.kernel_size, conv.stride, conv.padding)
        out = cols @ conv.kernel.value.reshape(x.shape[3], conv.filters) + conv.bias.value
        return out.reshape(x.shape[0], out_h, out_w, conv.filters)

    @pytest.mark.parametrize("seed", range(8))
    def test_bytes_equal_im2col_lowering(self, seed):
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
            conv = Conv2D(int(rng.integers(1, 33)), 1)
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


def build_bank(make_layer, members, input_shape, rng):
    """``members`` layers of one shape, each with its own weights and a non-zero bias."""
    layers = []
    for _ in range(members):
        layer = make_layer()
        layer.build(input_shape, rng)
        for parameter in layer.parameters():
            parameter.value[...] = rng.standard_normal(parameter.value.shape)
        layers.append(layer)
    return layers


def assert_bank_rows_equal_solo(layers, x, shared, label=""):
    """Member ``i``'s rows of the bank are the bytes of its own ``forward``."""
    m = len(layers)
    n = x.shape[0] if shared else x.shape[0] // m
    out = banked_layer_forward(layers, x, shared)
    assert out.shape[0] == m * n, label
    for i, layer in enumerate(layers):
        own_input = x if shared else x[i * n : (i + 1) * n]
        solo = layer.forward(own_input, training=False)
        assert out[i * n : (i + 1) * n].tobytes() == solo.tobytes(), (label, i)


bank_shapes = dict(
    members=st.integers(1, 6),
    frames=st.integers(1, 4),
    shared=st.booleans(),
    crop_view=st.booleans(),
    seed=st.integers(0, 2**16),
)


def bank_input(rng, members, frames, shared, crop_view, channels=5):
    """The members' common input, or their stacked member-major activations."""
    x = rng.standard_normal((frames if shared else members * frames, 9, 10, channels))
    return x[:, 1:8, 2:9, :] if crop_view else x


class TestBankedLayers:
    """One input, many models: every member's bank rows are its solo forward's bytes."""

    @given(kernel=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]),
           filters=st.integers(1, 7), **bank_shapes)
    @settings(max_examples=60, deadline=None)
    def test_conv_bank(self, kernel, stride, filters, members, frames, shared, crop_view, seed):
        rng = np.random.default_rng(seed)
        x = bank_input(rng, members, frames, shared, crop_view)
        make_layer = lambda: Conv2D(filters, kernel, stride)  # noqa: E731
        layers = build_bank(make_layer, members, x.shape[1:], rng)
        assert_bank_rows_equal_solo(layers, x, shared)

    @given(stride=st.sampled_from([1, 2]), channels=st.integers(1, 9), **bank_shapes)
    @settings(max_examples=60, deadline=None)
    def test_depthwise_bank(self, stride, channels, members, frames, shared, crop_view, seed):
        """The depthwise ``einsum`` runs per member, written into a stacked output."""
        rng = np.random.default_rng(seed)
        x = bank_input(rng, members, frames, shared, crop_view, channels)
        layers = build_bank(lambda: DepthwiseConv2D(3, stride), members, x.shape[1:], rng)
        assert_bank_rows_equal_solo(layers, x, shared)

    @given(stride=st.sampled_from([1, 2]), filters=st.integers(1, 7), **bank_shapes)
    @settings(max_examples=40, deadline=None)
    def test_separable_bank(self, stride, filters, members, frames, shared, crop_view, seed):
        rng = np.random.default_rng(seed)
        x = bank_input(rng, members, frames, shared, crop_view)
        layers = build_bank(lambda: SeparableConv2D(filters, 3, stride), members, x.shape[1:], rng)
        assert_bank_rows_equal_solo(layers, x, shared)

    @given(units=st.sampled_from([1, 3, 200]), **bank_shapes)
    @settings(max_examples=40, deadline=None)
    def test_dense_bank(self, units, members, frames, shared, crop_view, seed):
        """One GEMV (``frames`` = 1) or GEMM per member, never re-associated."""
        rng = np.random.default_rng(seed)
        x = bank_input(rng, members, frames, shared, crop_view)
        layers = build_bank(lambda: Dense(units), members, x.shape[1:], rng)
        assert_bank_rows_equal_solo(layers, x, shared)

    @given(**bank_shapes)
    @settings(max_examples=25, deadline=None)
    def test_parameter_free_layers_run_once_over_the_stack(
        self, members, frames, shared, crop_view, seed
    ):
        rng = np.random.default_rng(seed)
        x = bank_input(rng, members, frames, shared, crop_view)
        for make_layer in (ReLU, ReLU6, MaxPool2D, GlobalMaxPool):
            layers = build_bank(make_layer, members, x.shape[1:], rng)
            assert_bank_rows_equal_solo(layers, x, shared, type(layers[0]).__name__)

    @given(members=st.integers(1, 6), frames=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_whole_stacks_as_one_bank(self, members, frames, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((frames, 8, 9, 4))[:, 1:7, :, :]

        def stack():
            return [SeparableConv2D(6, 3, 2), ReLU(), Conv2D(3, 1), ReLU6(), Dense(5), Dense(1)]

        stacks, shape = [stack() for _ in range(members)], x.shape[1:]
        for position in range(len(stacks[0])):
            for layers in stacks:
                layers[position].build(shape, rng)
                for parameter in layers[position].parameters():
                    parameter.value[...] = rng.standard_normal(parameter.value.shape)
            shape = stacks[0][position].output_shape(shape)
        out = banked_forward(stacks, x)
        for i, layers in enumerate(stacks):
            solo = x
            for layer in layers:
                solo = layer.forward(solo, training=False)
            assert out[i * frames : (i + 1) * frames].tobytes() == solo.tobytes(), i

    def test_weights_are_read_at_call_time_and_never_copied(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 6, 6, 4))
        layers = build_bank(lambda: Conv2D(3, 3), 3, x.shape[1:], rng)
        before = banked_layer_forward(layers, x, True)
        # load_state_dict rebinds ``value``; an optimizer step writes in place.
        layers[1].kernel.value = rng.standard_normal(layers[1].kernel.value.shape)
        layers[2].bias.value[...] = 7.0
        after = banked_layer_forward(layers, x, True)
        assert after[:2].tobytes() == before[:2].tobytes()
        assert_bank_rows_equal_solo(layers, x, True)
        assert after[2:].tobytes() != before[2:].tobytes()

    def test_mismatched_stacks_and_unbuilt_members_raise(self):
        x = np.zeros((1, 6, 6, 2))
        with pytest.raises(ValueError):
            banked_forward([[ReLU()], [ReLU(), ReLU()]], x)
        with pytest.raises(RuntimeError, match="before build"):
            banked_layer_forward([Conv2D(2, 3), Conv2D(2, 3)], x, True)
        with pytest.raises(RuntimeError, match="before build"):
            banked_layer_forward([Dense(2)], x, True)  # a bank of one is the layer's own forward


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
        last = model.layers[-1].name  # conv6/sep: every layer runs
        batched = batched_forward_with_taps(model, x, [last])[last]
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
            batched_layer_forward(Conv2D(2, 3), np.zeros((2, 8, 8, 3)))

    def test_unbuilt_dense_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            batched_layer_forward(Dense(2), np.zeros((2, 8)))

    def test_empty_taps_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(ValueError, match="at least one tap"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), [])

    def test_unknown_tap_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(KeyError, match="nope"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), ["nope"])
