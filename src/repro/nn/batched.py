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

A *bank* (:func:`banked_layer_forward`) is the same doctrine turned to "one
input, many models": ``M`` same-shaped layers with private weights share one
lowering and each runs the very GEMM (or depthwise ``einsum``) its own forward
would.  A batch is just a bank of samples that all hold one layer's weights.

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

from repro.nn.im2col import conv_columns, im2col
from repro.nn.layers import Conv2D, Dense, DepthwiseConv2D, Layer, SeparableConv2D
from repro.nn.model import Sequential

__all__ = [
    "batched_layer_forward",
    "banked_layer_forward",
    "banked_forward",
    "batched_forward_with_taps",
]


def _chunked_gemm(rows: np.ndarray, weights: Sequence[np.ndarray], shared: bool) -> np.ndarray:
    """``rows @ weights[i]`` for each of ``len(weights)`` equal contiguous row blocks ``i``.

    Each block sees the exact GEMM problem (shape, contiguous layout) the
    per-sample / per-member forward pass would submit, so each block of the
    ``(blocks, rows, F)`` result is bit-identical to that call regardless of
    how BLAS specializes by size.  With ``shared`` every block multiplies the
    same ``rows`` (a bank's common input).
    """
    blocks = rows[None] if shared else rows.reshape(len(weights), -1, rows.shape[1])
    shape = (len(weights), blocks.shape[1], weights[0].shape[1])
    out = np.empty(shape, dtype=np.result_type(rows, weights[0]))
    for i, matrix in enumerate(weights):
        np.matmul(blocks[0 if shared else i], matrix, out=out[i])
    return out


def banked_layer_forward(layers: Sequence[Layer], x: np.ndarray, shared: bool) -> np.ndarray:
    """One inference step of a bank of ``M`` same-shaped layers.

    ``x`` is the members' common ``(n, ...)`` input when ``shared``, else their
    stacked ``(M * n, ...)`` activations, member-major; the result is always
    stacked.  ``x`` is lowered once, every member multiplies its own weights
    (read now, never copied), and the bias add and every parameter-free layer
    run once over the stack.  Widening one GEMM across members would move bits.
    """
    first, m = layers[0], len(layers)
    if m == 1:  # a bank of one is the layer's own forward: a fleet camera pays nothing extra
        return first.forward(x, training=False)
    if isinstance(first, SeparableConv2D):
        mid = banked_layer_forward([layer.depthwise for layer in layers], x, shared)
        return banked_layer_forward([layer.pointwise for layer in layers], mid, False)
    if not isinstance(first, (Conv2D, DepthwiseConv2D, Dense)):
        out = first.forward(x, training=False)
        return np.tile(out, (m,) + (1,) * (out.ndim - 1)) if shared else out
    if not first.built:
        raise RuntimeError(f"Layer {first.name} used before build()")
    if isinstance(first, Dense):
        flat, out_size = np.ascontiguousarray(x.reshape(x.shape[0], -1)), ()
        out = _chunked_gemm(flat, [layer.kernel.value for layer in layers], shared)
    elif isinstance(first, Conv2D):
        cols, out_size = conv_columns(x, first.kernel_size, first.stride, first.padding)
        kernels = [layer.kernel.value.reshape(-1, layer.filters) for layer in layers]
        out = _chunked_gemm(cols, kernels, shared)
    else:
        cols, out_size, _ = im2col(x, first.kernel_size, first.stride, first.padding)
        taps, c = first.kernel_size[0] * first.kernel_size[1], x.shape[3]
        windows = cols.reshape(1 if shared else m, -1, taps, c)
        out = np.empty((m, windows.shape[1], c))
        for i, layer in enumerate(layers):  # per member: a stacked einsum is not proven bit-safe
            kernel = layer.kernel.value.reshape(taps, c)
            np.einsum("nkc,kc->nc", windows[0 if shared else i], kernel, out=out[i])
    if first.bias is not None:
        out += np.array([layer.bias.value for layer in layers])[:, None, :]
    return out.reshape(-1, *out_size, out.shape[-1])


def banked_forward(stacks: Sequence[Sequence[Layer]], x: np.ndarray, shared: bool = True):
    """Inference of ``M`` same-architecture layer stacks (``model.layers``) as one bank.

    Rows ``[i * n, (i + 1) * n)`` of the stacked result are bit-identical to
    member ``i``'s own ``Sequential.forward`` of the common (``shared``) input
    ``x``, or of its own slice of a stacked member-major ``x``.
    """
    for layers in zip(*stacks, strict=True):
        x, shared = banked_layer_forward(layers, x, shared), False
    return x


def batched_layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Batch-exact inference forward of any single layer.

    Conv/separable/dense layers route through the chunked-GEMM paths; every
    other layer's ``forward`` is already per-sample-stable over a batch
    (elementwise activations, per-window pooling, depthwise ``einsum``) and
    is called directly in inference mode.
    """
    if isinstance(layer, SeparableConv2D):
        return batched_layer_forward(layer.pointwise, batched_layer_forward(layer.depthwise, x))
    if isinstance(layer, (Conv2D, Dense)):
        return banked_layer_forward([layer] * x.shape[0], x, False)
    return layer.forward(x, training=False)


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
