"""im2col / col2im helpers for vectorized convolutions.

Convolutions are implemented by lowering the input into a matrix of sliding
windows (``im2col``) so the convolution itself becomes a single BLAS matrix
multiply.  This keeps all heavy lifting inside NumPy's compiled kernels, per
the project's "vectorize, don't loop" rule.

All tensors use the NHWC layout ``(batch, height, width, channels)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pad_same", "im2col", "conv_columns", "col2im", "conv_output_size"]


def conv_output_size(size: int, kernel: int, stride: int, padding: str) -> int:
    """Spatial output size of a convolution along one dimension.

    ``same`` padding rounds up (TensorFlow semantics); ``valid`` uses only
    fully-covered windows.
    """
    if padding == "same":
        return -(-size // stride)
    if padding == "valid":
        return (size - kernel) // stride + 1
    raise ValueError(f"Unknown padding {padding!r}; expected 'same' or 'valid'")


def _same_pad_amount(size: int, kernel: int, stride: int) -> tuple[int, int]:
    """Total (before, after) padding for 'same' output size along one dim."""
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    return before, total - before


def pad_same(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]) -> np.ndarray:
    """Zero-pad an NHWC tensor so a strided convolution yields 'same' size."""
    ph = _same_pad_amount(x.shape[1], kernel[0], stride[0])
    pw = _same_pad_amount(x.shape[2], kernel[1], stride[1])
    if ph == (0, 0) and pw == (0, 0):
        return x
    n, h, w, c = x.shape
    padded = np.zeros((n, h + sum(ph), w + sum(pw), c), dtype=x.dtype)
    padded[:, ph[0] : ph[0] + h, pw[0] : pw[0] + w, :] = x
    return padded


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: str,
) -> tuple[np.ndarray, tuple[int, int], tuple[int, int, int, int]]:
    """Lower an NHWC tensor into sliding-window columns.

    Returns
    -------
    cols:
        Array of shape ``(batch * out_h * out_w, kh * kw * channels)``.
    out_size:
        ``(out_h, out_w)``.
    padded_shape:
        Shape of the padded input, needed by :func:`col2im`.
    """
    kh, kw = kernel
    sh, sw = stride
    if padding == "same":
        x = pad_same(x, kernel, stride)
    n, h, w, c = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"Kernel {kernel} with stride {stride} does not fit input of spatial "
            f"size {(h, w)} under {padding!r} padding"
        )
    # Strided view over sliding windows: (n, out_h, out_w, kh, kw, c).
    s = x.strides
    shape = (n, out_h, out_w, kh, kw, c)
    strides = (s[0], s[1] * sh, s[2] * sw, s[1], s[2], s[3])
    if x.flags.c_contiguous:  # the constructor skips as_strided's Python-level wrapper
        windows = np.ndarray(shape, x.dtype, x, 0, strides)
    else:
        windows = np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)
    cols = windows.reshape(n * out_h * out_w, kh * kw * c)
    return np.ascontiguousarray(cols), (out_h, out_w), (n, h, w, c)


def conv_columns(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: str,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Inference-time lowering of a convolution to ``(cols, out_size)``.

    A pointwise (1x1, stride-1) kernel's column matrix *is* the channel-
    flattened input, so the window copy is skipped; ``cols`` is C-contiguous
    either way, as BLAS picks kernels by layout and the bits must not move.
    """
    if kernel == (1, 1) and stride == (1, 1):
        n, h, w, c = x.shape
        return np.ascontiguousarray(x.reshape(n * h * w, c)), (h, w)
    cols, out_size, _ = im2col(x, kernel, stride, padding)
    return cols, out_size


def col2im(
    cols: np.ndarray,
    padded_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
    out_size: tuple[int, int],
    original_spatial: tuple[int, int],
    padding: str,
) -> np.ndarray:
    """Scatter-add column gradients back into an NHWC input gradient.

    This is the adjoint of :func:`im2col` and is used by the convolution
    backward pass.
    """
    kh, kw = kernel
    sh, sw = stride
    n, h, w, c = padded_shape
    out_h, out_w = out_size
    grad = np.zeros((n, h, w, c), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, kh, kw, c)
    # Scatter each kernel offset in one vectorized slice-add.
    for i in range(kh):
        h_end = i + sh * out_h
        for j in range(kw):
            w_end = j + sw * out_w
            grad[:, i:h_end:sh, j:w_end:sw, :] += cols[:, :, :, i, j, :]
    if padding == "same":
        oh, ow = original_spatial
        ph = _same_pad_amount(oh, kh, sh)
        pw = _same_pad_amount(ow, kw, sw)
        grad = grad[:, ph[0] : ph[0] + oh, pw[0] : pw[0] + ow, :]
    return grad
