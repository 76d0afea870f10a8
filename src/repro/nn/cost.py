"""The paper's per-layer multiply-add formulas.

These are exactly the formulas quoted in Section 4.5 of the paper:

* fully-connected layer over an ``H x W x M`` feature map with ``N`` units:
  ``N * H * W * M``
* convolutional layer with ``F`` filters of size ``K x K`` and stride ``S``:
  ``H/S * W/S * M * K^2 * F``
* separable ("factored") convolutional layer with the same parameters:
  ``H/S * W/S * M * (K^2 + F)``

They are the independent reference that each layer's ``multiply_adds`` is
tested against; costs themselves are read off the layer graphs
(:meth:`repro.nn.model.Sequential.multiply_adds`).
"""

from __future__ import annotations

__all__ = [
    "dense_multiply_adds",
    "conv_multiply_adds",
    "separable_conv_multiply_adds",
]


def dense_multiply_adds(height: int, width: int, depth: int, units: int) -> int:
    """Multiply-adds of a fully-connected layer over an ``H x W x M`` map."""
    _validate(height=height, width=width, depth=depth, units=units)
    return int(units) * int(height) * int(width) * int(depth)


def conv_multiply_adds(
    height: int, width: int, depth: int, kernel: int, filters: int, stride: int = 1
) -> int:
    """Multiply-adds of a standard convolution (paper formula)."""
    _validate(height=height, width=width, depth=depth, kernel=kernel, filters=filters, stride=stride)
    out_h = -(-int(height) // int(stride))
    out_w = -(-int(width) // int(stride))
    return out_h * out_w * int(depth) * int(kernel) ** 2 * int(filters)


def separable_conv_multiply_adds(
    height: int, width: int, depth: int, kernel: int, filters: int, stride: int = 1
) -> int:
    """Multiply-adds of a depthwise-separable convolution (paper formula)."""
    _validate(height=height, width=width, depth=depth, kernel=kernel, filters=filters, stride=stride)
    out_h = -(-int(height) // int(stride))
    out_w = -(-int(width) // int(stride))
    return out_h * out_w * int(depth) * (int(kernel) ** 2 + int(filters))


def _validate(**named_values: int) -> None:
    for name, value in named_values.items():
        if int(value) <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
