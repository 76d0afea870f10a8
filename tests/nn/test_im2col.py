"""Tests for the im2col / col2im lowering used by all convolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, im2col, pad_same


class TestConvOutputSize:
    def test_same_padding_stride_one_preserves_size(self):
        assert conv_output_size(17, 3, 1, "same") == 17

    def test_same_padding_stride_two_rounds_up(self):
        assert conv_output_size(17, 3, 2, "same") == 9

    def test_valid_padding_shrinks_by_kernel(self):
        assert conv_output_size(17, 3, 1, "valid") == 15

    def test_valid_padding_with_stride(self):
        assert conv_output_size(16, 4, 4, "valid") == 4

    def test_unknown_padding_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(8, 3, 1, "reflect")

    @given(
        size=st.integers(min_value=1, max_value=64),
        kernel=st.integers(min_value=1, max_value=5),
        stride=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_output_matches_ceil_division(self, size, kernel, stride):
        assert conv_output_size(size, kernel, stride, "same") == -(-size // stride)


class TestPadSame:
    def test_no_padding_needed_returns_same_array(self):
        x = np.ones((1, 4, 4, 1))
        assert pad_same(x, (1, 1), (1, 1)) is x

    def test_3x3_stride1_pads_one_on_each_side(self):
        x = np.ones((1, 4, 5, 2))
        padded = pad_same(x, (3, 3), (1, 1))
        assert padded.shape == (1, 6, 7, 2)
        assert padded[:, 0, :, :].sum() == 0
        assert padded[:, -1, :, :].sum() == 0

    def test_padding_preserves_interior_values(self):
        rng = np.random.default_rng(0)
        x = rng.random((2, 5, 5, 3))
        padded = pad_same(x, (3, 3), (1, 1))
        np.testing.assert_array_equal(padded[:, 1:-1, 1:-1, :], x)

    @given(
        shape=st.tuples(
            st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)
        ),
        kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        dtype=st.sampled_from([np.float64, np.uint8]),
        crop_view=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_pad_reference_bytes(self, shape, kernel, stride, dtype, crop_view, seed):
        """``pad_same`` is ``np.pad`` without ``np.pad``'s per-call overhead."""
        n, h, w, c = shape
        x = (np.random.default_rng(seed).random((n, h + 2, w + 2, c)) * 255).astype(dtype)
        # Microclassifier inputs are non-contiguous crops of a feature map.
        x = x[:, 1:-1, 1:-1, :] if crop_view else x[:, 1:-1, 1:-1, :].copy()
        amounts = []
        for size, k, s in zip(shape[1:3], kernel, stride):
            total = max((-(-size // s) - 1) * s + k - size, 0)
            amounts.append((total // 2, total - total // 2))
        reference = np.pad(x, ((0, 0), *amounts, (0, 0)), mode="constant")
        padded = pad_same(x, kernel, stride)
        assert padded.dtype == reference.dtype and padded.shape == reference.shape
        assert padded.tobytes() == reference.tobytes()
        if reference.shape == x.shape:
            assert padded is x


class TestIm2Col:
    def test_columns_shape(self):
        x = np.arange(2 * 6 * 8 * 3, dtype=float).reshape(2, 6, 8, 3)
        cols, (oh, ow), padded = im2col(x, (3, 3), (1, 1), "same")
        assert (oh, ow) == (6, 8)
        assert cols.shape == (2 * 6 * 8, 3 * 3 * 3)
        assert padded == (2, 8, 10, 3)

    def test_1x1_kernel_is_reshape(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 4, 5, 2))
        cols, (oh, ow), _ = im2col(x, (1, 1), (1, 1), "same")
        assert (oh, ow) == (4, 5)
        np.testing.assert_allclose(cols, x.reshape(-1, 2))

    def test_valid_window_contents(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        cols, (oh, ow), _ = im2col(x, (2, 2), (2, 2), "valid")
        assert (oh, ow) == (2, 2)
        np.testing.assert_array_equal(cols[0].ravel(), [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[3].ravel(), [10, 11, 14, 15])

    def test_kernel_too_large_for_valid_raises(self):
        x = np.zeros((1, 2, 2, 1))
        with pytest.raises(ValueError):
            im2col(x, (3, 3), (1, 1), "valid")

    def test_channels_kept_contiguous_per_position(self):
        x = np.zeros((1, 3, 3, 2))
        x[0, 1, 1, 0] = 7.0
        x[0, 1, 1, 1] = 9.0
        cols, _, _ = im2col(x, (1, 1), (1, 1), "same")
        center = cols[4]
        np.testing.assert_array_equal(center, [7.0, 9.0])


class TestWindowView:
    """``im2col`` builds its sliding-window view with the ``ndarray`` constructor when the
    (padded) input is C-contiguous and falls back to ``as_strided`` for views; same bytes."""

    @staticmethod
    def reference(x, kernel, stride, padding):
        """Window by window, with plain slicing."""
        (kh, kw), (sh, sw) = kernel, stride
        if padding == "same":
            x = pad_same(x, kernel, stride)
        n, h, w, c = x.shape
        out_h, out_w = (h - kh) // sh + 1, (w - kw) // sw + 1
        rows = [
            x[b, i * sh : i * sh + kh, j * sw : j * sw + kw, :].reshape(-1)
            for b in range(n)
            for i in range(out_h)
            for j in range(out_w)
        ]
        return np.stack(rows), (out_h, out_w)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3), (1, 1)])
    def test_bytes_equal_for_contiguous_input_and_views(self, kernel, stride, padding):
        feature_map = np.random.default_rng(5).standard_normal((2, 11, 13, 6))
        inputs = {
            "contiguous": feature_map,
            "crop view": feature_map[:, 2:9, 3:12, :],
            "channel-strided view": feature_map[..., ::2],
        }
        assert not inputs["crop view"].flags.c_contiguous
        for label, x in inputs.items():
            cols, out_size, _ = im2col(x, kernel, stride, padding)
            expected, expected_size = self.reference(x, kernel, stride, padding)
            assert out_size == expected_size, label
            assert cols.flags.c_contiguous, label
            assert cols.tobytes() == expected.tobytes(), label

    def test_as_strided_fallback_serves_only_non_contiguous_input(self, monkeypatch):
        """'valid' padding on a crop view lowers the view itself: the one as_strided caller."""
        calls = []
        real = np.lib.stride_tricks.as_strided

        def counting(*args, **kwargs):
            calls.append(args[0].flags.c_contiguous)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.lib.stride_tricks, "as_strided", counting)
        feature_map = np.random.default_rng(6).random((1, 8, 9, 4))
        im2col(feature_map, (3, 3), (1, 1), "same")  # padded copy: contiguous
        im2col(feature_map, (3, 3), (1, 1), "valid")  # contiguous as given
        im2col(feature_map[:, 1:7, 2:8, :], (3, 3), (1, 1), "same")  # the pad is a fresh copy
        assert calls == []
        crop = feature_map[:, 1:7, 2:8, :]
        cols, _, _ = im2col(crop, (3, 3), (2, 2), "valid")
        assert calls == [False]
        assert cols.tobytes() == self.reference(crop, (3, 3), (2, 2), "valid")[0].tobytes()

    def test_read_only_and_empty_batches_lower_like_any_other(self):
        x = np.random.default_rng(7).random((2, 5, 5, 3))
        frozen = x.copy()
        frozen.flags.writeable = False
        assert im2col(frozen, (3, 3), (1, 1), "valid")[0].tobytes() == im2col(
            x, (3, 3), (1, 1), "valid"
        )[0].tobytes()
        assert im2col(x[:0], (3, 3), (1, 1), "valid")[0].shape == (0, 27)

    @given(size=st.integers(1, 4096), kernel=st.integers(1, 7), stride=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_integer_ceil_division_matches_np_ceil(self, size, kernel, stride):
        assert conv_output_size(size, kernel, stride, "same") == int(np.ceil(size / stride))
        padded = pad_same(np.zeros((1, size, 1, 1)), (kernel, 1), (stride, 1))
        out = int(np.ceil(size / stride))
        assert padded.shape[1] == size + max((out - 1) * stride + kernel - size, 0)


class TestCol2Im:
    def test_adjoint_property(self):
        """col2im must be the exact adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        rng = np.random.default_rng(2)
        x = rng.random((2, 5, 6, 3))
        for padding in ("same", "valid"):
            for stride in ((1, 1), (2, 2)):
                cols, out_size, padded_shape = im2col(x, (3, 3), stride, padding)
                y = rng.random(cols.shape)
                lhs = float((cols * y).sum())
                back = col2im(y, padded_shape, (3, 3), stride, out_size, (5, 6), padding)
                rhs = float((x * back).sum())
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_gradient_shape_matches_input(self):
        x = np.ones((1, 7, 9, 2))
        cols, out_size, padded_shape = im2col(x, (3, 3), (2, 2), "same")
        grad = col2im(np.ones_like(cols), padded_shape, (3, 3), (2, 2), out_size, (7, 9), "same")
        assert grad.shape == x.shape

    def test_overlapping_windows_accumulate(self):
        x = np.zeros((1, 3, 3, 1))
        cols, out_size, padded_shape = im2col(x, (3, 3), (1, 1), "same")
        grad = col2im(np.ones_like(cols), padded_shape, (3, 3), (1, 1), out_size, (3, 3), "same")
        # The centre pixel is covered by all 9 windows.
        assert grad[0, 1, 1, 0] == pytest.approx(9.0)
        # A corner pixel is covered by only 4 windows.
        assert grad[0, 0, 0, 0] == pytest.approx(4.0)
