"""Bit-exact batched inference over :mod:`repro.nn` layers.

The fleet's cross-camera batching (:mod:`repro.core.batched`) stacks many
cameras' frames into one ``(N, H, W, C)`` tensor and runs the shared base
DNN once.  That is only admissible if the batched forward produces *exactly*
the bits the per-camera ``N=1`` forward would have produced — probabilities
feed thresholds, thresholds feed events, events feed upload accounting, and
a one-ULP drift anywhere breaks the golden control trace.

A naive "stack and GEMM" does not satisfy that: BLAS chooses different
kernels and blocking (and thread partitions) by matrix size, so
``(N*P, K) @ (K, F)`` can differ in the last bits from the per-sample
``(P, K) @ (K, F)`` calls.  This module therefore batches *everything except
the GEMM row extents*:

* one lowering over the whole stacked batch (one strided copy instead of N),
  whose rows are positionally identical to the per-sample lowerings —
  :func:`repro.nn.im2col.conv_columns`, which ``Conv2D.forward(training=False)``
  calls too, so pointwise convolutions skip the window copy on both paths;
* the convolution GEMM computed in **per-sample row blocks** — each block is
  the same ``(P, K) @ (K, F)`` problem, on the same contiguous row layout,
  the per-sample path hands BLAS, so each sample's output bits are identical
  by construction;
* bias add, activations, depthwise ``einsum``, pooling, and reshapes fully
  batched (all per-sample-independent, order-stable element operations).

:func:`batched_forward_with_taps` additionally stops at the deepest tapped
layer: the base DNN's untapped tail (half the network when tapping
``conv2_2/sep``) contributes nothing to any subscriber and is skipped.

Training is deliberately *not* routed through this module — the training
paths keep their historical single-GEMM batches (changing them would perturb
every trained weight downstream).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.im2col import conv_columns
from repro.nn.layers import Conv2D, Dense, Layer, SeparableConv2D
from repro.nn.model import Sequential

__all__ = [
    "batched_conv2d_forward",
    "batched_dense_forward",
    "batched_layer_forward",
    "batched_forward",
    "batched_forward_with_taps",
]


def _chunked_gemm(rows: np.ndarray, weights: np.ndarray, samples: int) -> np.ndarray:
    """``rows @ weights`` computed in ``samples`` equal contiguous row blocks.

    Each block sees the exact GEMM problem (shape, contiguous layout) the
    per-sample forward pass would submit, so each sample's rows of the result
    are bit-identical to an ``N=1`` call regardless of how BLAS specializes
    by size.
    """
    per_sample = rows.shape[0] // samples
    out = np.empty((rows.shape[0], weights.shape[1]), dtype=np.result_type(rows, weights))
    for i in range(samples):
        start = i * per_sample
        np.matmul(rows[start : start + per_sample], weights, out=out[start : start + per_sample])
    return out


def batched_conv2d_forward(layer: Conv2D, x: np.ndarray) -> np.ndarray:
    """Inference forward of one :class:`Conv2D` over a stacked batch.

    Bit-identical per sample to ``layer.forward(x[i:i+1])``: the same
    :func:`~repro.nn.im2col.conv_columns` lowering, the GEMM chunked per sample.
    """
    if not layer.built:
        raise RuntimeError(f"Layer {layer.name} used before build()")
    n = x.shape[0]
    cols, out_size = conv_columns(x, layer.kernel_size, layer.stride, layer.padding)
    out = _chunked_gemm(cols, layer.kernel.value.reshape(-1, layer.filters), n)
    if layer.use_bias:
        out += layer.bias.value
    return out.reshape(n, *out_size, layer.filters)


def batched_dense_forward(layer: Dense, x: np.ndarray) -> np.ndarray:
    """Inference forward of one :class:`Dense` over a stacked batch.

    Each sample flattens to a single GEMM row, so the per-sample block here
    is a one-row matmul — identical to what ``predict_proba`` submits.
    """
    if not layer.built:
        raise RuntimeError(f"Layer {layer.name} used before build()")
    flat = np.ascontiguousarray(x.reshape(x.shape[0], -1))
    out = _chunked_gemm(flat, layer.kernel.value, x.shape[0])
    if layer.use_bias:
        out += layer.bias.value
    return out


def batched_layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Batch-exact inference forward of any single layer.

    Conv/separable/dense layers route through the chunked-GEMM paths; every
    other layer's ``forward`` is already per-sample-stable over a batch
    (elementwise activations, per-window pooling, depthwise ``einsum``) and
    is called directly in inference mode.
    """
    if isinstance(layer, SeparableConv2D):
        return batched_conv2d_forward(
            layer.pointwise, batched_layer_forward(layer.depthwise, x)
        )
    if isinstance(layer, Conv2D):
        return batched_conv2d_forward(layer, x)
    if isinstance(layer, Dense):
        return batched_dense_forward(layer, x)
    return layer.forward(x, training=False)


def batched_forward(model: Sequential, x: np.ndarray) -> np.ndarray:
    """Batch-exact inference pass through a whole :class:`Sequential`."""
    return model._run_tapped(x, (), False, batched_layer_forward)[0]


def batched_forward_with_taps(
    model: Sequential,
    x: np.ndarray,
    taps: Sequence[str],
    stop_at_last_tap: bool = True,
) -> Mapping[str, np.ndarray]:
    """Batch-exact forward collecting named-layer activations.

    The counterpart of :meth:`Sequential.forward_with_taps` for the batched
    inference path.  With ``stop_at_last_tap`` (the default) execution ends
    at the deepest tapped layer — layers past the last subscriber cannot
    change any tapped activation, so the untapped tail is skipped.

    Returns the activations dict only; callers of the batched path never
    consume the head output.
    """
    if not taps:
        raise ValueError("batched_forward_with_taps requires at least one tap")
    return model._run_tapped(x, taps, stop_at_last_tap, batched_layer_forward)[1]
