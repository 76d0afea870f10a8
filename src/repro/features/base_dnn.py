"""The MobileNet-style base DNN.

The paper uses 32-bit MobileNet (Howard et al., 2017) trained on ImageNet as
the shared feature extractor, tapping activations from two layers:

* ``conv4_2/sep`` — a middle layer at 1/16 spatial scale with 512 channels
  (input to the localized and windowed-localized microclassifiers), and
* ``conv5_6/sep`` — the penultimate convolutional layer at 1/32 spatial scale
  with 1024 channels (input to the full-frame object detector).

This module builds the same architecture in the :mod:`repro.nn` framework.
Two knobs keep the executable experiments tractable while preserving the
paper-scale cost analysis:

* ``alpha`` (width multiplier) scales every channel count; the executable
  pipeline defaults to a thin network, while the analytic cost model uses
  ``alpha=1.0`` (:data:`FULL_SCALE_ALPHA`).
* Batch-norm layers are folded away (inference-time folding is standard),
  so each block is depthwise conv -> ReLU -> pointwise conv -> ReLU.

Layer naming follows the Caffe MobileNet the paper cites, so the tap
``conv4_2/sep`` is the post-activation output of that block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.layers import Conv2D, DepthwiseConv2D, ReLU
from repro.nn.model import Sequential

__all__ = [
    "MOBILENET_BLOCKS",
    "FULL_SCALE_ALPHA",
    "build_mobilenet_like",
    "mobilenet_graph",
    "mobilenet_layer_shapes",
    "mobilenet_multiply_adds",
]

# (block name, stride, output channels at alpha=1.0) for every separable block
# of MobileNet v1, after the initial full convolution.
MOBILENET_BLOCKS: list[tuple[str, int, int]] = [
    ("conv2_1", 1, 64),
    ("conv2_2", 2, 128),
    ("conv3_1", 1, 128),
    ("conv3_2", 2, 256),
    ("conv4_1", 1, 256),
    ("conv4_2", 2, 512),
    ("conv5_1", 1, 512),
    ("conv5_2", 1, 512),
    ("conv5_3", 1, 512),
    ("conv5_4", 1, 512),
    ("conv5_5", 1, 512),
    ("conv5_6", 2, 1024),
    ("conv6", 1, 1024),
]

# The paper's two tap points.
TAP_MIDDLE = "conv4_2/sep"
TAP_PENULTIMATE = "conv5_6/sep"

FULL_SCALE_ALPHA = 1.0
_FIRST_CONV_CHANNELS = 32


def _scaled(channels: int, alpha: float) -> int:
    """Apply the width multiplier, keeping at least 4 channels."""
    return max(4, int(round(channels * alpha)))


def mobilenet_graph(alpha: float = 0.25) -> Sequential:
    """The MobileNet-style layer graph, unbuilt: layers, no weights.

    Shape and multiply-add queries (``layer_output_shapes(input_shape)``,
    ``multiply_adds(input_shape)``) work on it at any input size, 1920x1080
    included; :func:`build_mobilenet_like` allocates its weights.  ``alpha``
    is as in :func:`build_mobilenet_like`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    layers = [
        Conv2D(_scaled(_FIRST_CONV_CHANNELS, alpha), 3, stride=2, name="conv1"),
        ReLU(name="conv1/relu"),
    ]
    for block_name, stride, channels in MOBILENET_BLOCKS:
        out_channels = _scaled(channels, alpha)
        layers.extend(
            [
                DepthwiseConv2D(3, stride=stride, name=f"{block_name}/dw"),
                ReLU(name=f"{block_name}/dw/relu"),
                Conv2D(out_channels, 1, stride=1, name=f"{block_name}/sep/pw"),
                ReLU(name=f"{block_name}/sep"),
            ]
        )
    return Sequential(layers, name=f"mobilenet_alpha{alpha}")


def build_mobilenet_like(
    input_shape: tuple[int, int, int],
    alpha: float = 0.25,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """Build a MobileNet-style base DNN.

    Parameters
    ----------
    input_shape:
        Per-frame input shape ``(height, width, 3)``.  FilterForward feeds
        full-resolution frames here (not 224x224 crops).
    alpha:
        Width multiplier applied to every channel count.  The network ends
        at ``conv6/sep``: the FilterForward feature extractor never needs an
        ImageNet classification head.
    rng:
        Weight-initialization generator (seeded 0 by default).

    Returns
    -------
    Sequential
        Built model whose separable blocks expose post-activation taps named
        ``<block>/sep`` (e.g. ``conv4_2/sep``).
    """
    if len(input_shape) != 3 or input_shape[2] != 3:
        raise ValueError(f"input_shape must be (H, W, 3); got {input_shape}")
    model = mobilenet_graph(alpha)
    model.build(input_shape, rng or np.random.default_rng(0))
    return model


@lru_cache(maxsize=4096)
def _frame_query(
    resolution: tuple[int, int], alpha: float
) -> tuple[int, tuple[tuple[str, tuple[int, ...]], ...]]:
    """One pass over a ``(width, height)`` frame: its multiply-adds and its tap shapes."""
    width, height = resolution
    graph = mobilenet_graph(alpha)
    input_shape = (height, width, 3)
    taps = tuple(
        (name, shape)
        for name, shape in graph.layer_output_shapes(input_shape).items()
        if name == "conv1" or name.endswith("/sep")
    )
    return graph.multiply_adds(input_shape), taps


def mobilenet_layer_shapes(
    input_resolution: tuple[int, int], alpha: float = FULL_SCALE_ALPHA
) -> dict[str, tuple[int, int, int]]:
    """Output shapes ``(H, W, C)`` of ``conv1`` and every ``<block>/sep``, in network order.

    ``input_resolution`` is ``(width, height)`` in pixels (the paper's
    convention).  Read off :func:`mobilenet_graph` without building any
    weights, so it serves paper-scale reasoning (e.g. 1920x1080 ->
    ``conv4_2/sep`` of 68x120x512) and the layer selection heuristic.
    """
    return dict(_frame_query(tuple(input_resolution), alpha)[1])


def mobilenet_multiply_adds(
    input_resolution: tuple[int, int], alpha: float = FULL_SCALE_ALPHA
) -> int:
    """Multiply-adds of one base-DNN forward pass (no head) over a ``(width, height)`` frame.

    Read off :func:`mobilenet_graph` without building any weights, so it can
    be evaluated at full 1920x1080 scale cheaply.
    """
    return _frame_query(tuple(input_resolution), alpha)[0]
