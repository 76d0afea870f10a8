"""Base-DNN layer selection heuristic (paper Section 3.4).

Choosing which base-DNN layer feeds a microclassifier trades spatial
localization against semantic depth.  The paper's hand-tuned heuristic is to
match the layer's cumulative spatial reduction to the typical pixel size of
the target object class: for 40-pixel pedestrians in a 1080p frame, they
pick "the first layer at which a roughly 20:1-50:1 spatial reduction has
occurred" — i.e. a reduction between half and ~1.25x the object height, so
an object maps to roughly one to two feature-map cells.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["select_input_layer"]

# The acceptable reduction window, as multiples of the object height: the
# paper's 20:1-50:1 rule for a 40-pixel object.
_LOWER_FACTOR = 0.5
_UPPER_FACTOR = 1.25


def select_input_layer(
    frame_height: int,
    object_height: int,
    layer_shapes: Mapping[str, tuple[int, int, int]],
) -> str:
    """Pick the base-DNN layer whose spatial reduction suits an object size.

    Parameters
    ----------
    frame_height:
        Input frame height in pixels.
    object_height:
        Typical height of the target object class in pixels (e.g. 40 for
        pedestrians at 1080p).
    layer_shapes:
        Mapping from candidate layer name to its ``(H, W, C)`` output shape,
        e.g. from :func:`repro.features.base_dnn.mobilenet_layer_shapes` or
        ``Sequential.layer_output_shapes()``.  Iteration order should be
        network order (dicts preserve insertion order).

    Returns
    -------
    str
        The name of the first layer whose reduction lies between 0.5x and 1.25x
        ``object_height``; if none does, the layer whose reduction is
        closest to ``object_height``.
    """
    if frame_height <= 0 or object_height <= 0:
        raise ValueError("frame_height and object_height must be positive")
    if not layer_shapes:
        raise ValueError("layer_shapes must be non-empty")
    lower = _LOWER_FACTOR * object_height
    upper = _UPPER_FACTOR * object_height

    best: str | None = None
    best_distance = float("inf")
    for layer, shape in layer_shapes.items():
        feat_height = shape[0]
        if feat_height <= 0:
            continue
        reduction = frame_height / feat_height
        if lower <= reduction <= upper:
            return layer
        distance = abs(reduction - object_height)
        if distance < best_distance:
            best, best_distance = layer, distance
    assert best is not None  # layer_shapes is non-empty
    return best
