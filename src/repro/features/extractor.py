"""The FilterForward feature extractor.

The feature extractor evaluates the base DNN once per frame and serves its
intermediate activations ("feature maps") to every installed microclassifier
(paper Section 3.1).  Microclassifiers may pull from any named layer and may
optionally crop a rectangular region of the feature map — cropping features
instead of raw pixels is what lets many MCs with different regions of
interest share one base-DNN pass (Section 3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.model import Sequential
from repro.video.frame import Frame

__all__ = ["FeatureMapCrop", "FeatureExtractor"]


@dataclass(frozen=True)
class FeatureMapCrop:
    """A rectangular crop expressed in *pixel* coordinates.

    The crop is specified against the original frame (``(x0, y0, x1, y1)``,
    end-exclusive) and rescaled to each feature map's spatial grid when
    applied, exactly as the paper does ("the coordinates are rescaled based
    on the dimensions of the feature maps", Section 4.1).
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        corners = (self.x0, self.y0, self.x1, self.y1)
        if not all(math.isfinite(v) for v in corners):  # a NaN fails it too
            raise ValueError(f"Crop coordinates must be finite: {corners}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"Empty crop rectangle: {corners}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("Crop coordinates must be non-negative")

    def to_feature_coords(
        self, frame_size: tuple[int, int], feature_size: tuple[int, int]
    ) -> tuple[int, int, int, int]:
        """Rescale the pixel crop to feature-map coordinates.

        Parameters
        ----------
        frame_size:
            ``(height, width)`` of the original frame in pixels.
        feature_size:
            ``(height, width)`` of the feature map.

        Returns
        -------
        (y0, y1, x0, x1) in feature-map cells, guaranteed non-empty.
        """
        frame_h, frame_w = frame_size
        feat_h, feat_w = feature_size
        y0 = int(np.floor(self.y0 / frame_h * feat_h))
        y1 = int(np.ceil(self.y1 / frame_h * feat_h))
        x0 = int(np.floor(self.x0 / frame_w * feat_w))
        x1 = int(np.ceil(self.x1 / frame_w * feat_w))
        y0, x0 = max(0, y0), max(0, x0)
        y1, x1 = min(feat_h, max(y1, y0 + 1)), min(feat_w, max(x1, x0 + 1))
        return (y0, y1, x0, x1)


class FeatureExtractor:
    """Runs the base DNN once per frame and serves per-layer feature maps.

    Parameters
    ----------
    base_dnn:
        A built :class:`~repro.nn.model.Sequential` (typically from
        :func:`repro.features.base_dnn.build_mobilenet_like`).
    tap_layers:
        The layer names whose activations should be captured.  Only layers a
        microclassifier actually consumes need to be tapped.
    cache_size:
        Number of most-recent frames whose feature maps are kept in memory.
        The windowed microclassifier needs a window of consecutive frames.
    """

    def __init__(
        self,
        base_dnn: Sequential,
        tap_layers: Sequence[str],
        cache_size: int = 16,
    ) -> None:
        if not tap_layers:
            raise ValueError("FeatureExtractor requires at least one tap layer")
        unknown = set(tap_layers) - set(base_dnn.layer_names())
        if unknown:
            raise KeyError(f"Tap layer(s) not in base DNN: {sorted(unknown)}")
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.base_dnn = base_dnn
        self.tap_layers = list(dict.fromkeys(tap_layers))
        self.cache_size = int(cache_size)
        self._cache: dict[int, dict[str, np.ndarray]] = {}
        self._cache_order: list[int] = []

    # -- execution ---------------------------------------------------------
    def extract_pixels(self, pixels: np.ndarray) -> dict[str, np.ndarray]:
        """Run the base DNN on one frame's pixels and return tapped activations.

        ``pixels`` is ``(H, W, 3)`` and must match the spatial size the base
        DNN was built for; returned activations are per-sample (leading batch
        dimension removed).
        """
        expected = self.base_dnn.input_shape
        pixels = np.asarray(pixels, dtype=np.float64)
        if expected is not None and tuple(pixels.shape) != tuple(expected):
            raise ValueError(
                f"Frame pixels have shape {pixels.shape}, but the base DNN was built "
                f"for {tuple(expected)}"
            )
        batch = pixels[None, ...]
        _, activations = self.base_dnn.forward_with_taps(
            batch, self.tap_layers, stop_at_last_tap=True
        )
        return {name: act[0] for name, act in activations.items()}

    def extract(self, frame: Frame) -> dict[str, np.ndarray]:
        """Feature maps for ``frame``, using the per-frame cache."""
        cached = self._cache.get(frame.index)
        if cached is not None:
            return cached
        activations = self.extract_pixels(frame.pixels)
        self._insert(frame.index, activations)
        return activations

    def is_cached(self, frame_index: int) -> bool:
        """Whether ``frame_index``'s feature maps are in the per-frame cache."""
        return frame_index in self._cache

    def prime(self, frame_index: int, activations: dict[str, np.ndarray]) -> None:
        """Install precomputed activations for ``frame_index`` into the cache.

        This is the fan-out half of cross-camera batched inference
        (:class:`repro.core.batched.BatchedScorer`): the base DNN ran once
        over a stacked batch, and each camera's slice of the tapped
        activations is handed to its extractor here — usually as a *view*
        into the batch tensor, so no copy happens between the shared forward
        pass and the microclassifier that consumes it.  A subsequent
        :meth:`extract` for the same frame is a cache hit and never re-runs
        the base DNN.  Priming a frame that is already cached is a no-op.

        ``activations`` must cover every tapped layer; the priming side is
        responsible for having computed them with the bit-exact batched
        forward (:func:`repro.nn.batched.batched_forward_with_taps`).
        """
        if frame_index in self._cache:
            return
        missing = set(self.tap_layers) - set(activations)
        if missing:
            raise KeyError(f"Primed activations missing tapped layer(s) {sorted(missing)}")
        self._insert(frame_index, dict(activations))

    def _insert(self, frame_index: int, activations: dict[str, np.ndarray]) -> None:
        self._cache[frame_index] = activations
        self._cache_order.append(frame_index)
        while len(self._cache_order) > self.cache_size:
            evicted = self._cache_order.pop(0)
            self._cache.pop(evicted, None)

    def feature_map(
        self,
        frame: Frame,
        layer: str,
        crop: FeatureMapCrop | None = None,
    ) -> np.ndarray:
        """The (optionally cropped) feature map of ``layer`` for ``frame``."""
        if layer not in self.tap_layers:
            raise KeyError(
                f"Layer {layer!r} is not tapped by this extractor (taps: {self.tap_layers})"
            )
        activation = self.extract(frame)[layer]
        if crop is None:
            return activation
        y0, y1, x0, x1 = crop.to_feature_coords(
            (frame.height, frame.width), activation.shape[:2]
        )
        return activation[y0:y1, x0:x1, :]

    # -- introspection -----------------------------------------------------
    def layer_shape(self, layer: str) -> tuple[int, int, int]:
        """Per-sample output shape of a tapped layer."""
        shapes = self.base_dnn.layer_output_shapes()
        if layer not in shapes:
            raise KeyError(f"Unknown layer {layer!r}")
        return shapes[layer]

    def cropped_layer_shape(
        self, layer: str, crop: FeatureMapCrop | None, frame_size: tuple[int, int]
    ) -> tuple[int, int, int]:
        """Shape of ``layer``'s feature map after applying ``crop``."""
        shape = self.layer_shape(layer)
        if crop is None:
            return shape
        y0, y1, x0, x1 = crop.to_feature_coords(frame_size, shape[:2])
        return (y1 - y0, x1 - x0, shape[2])

    def multiply_adds_per_frame(self) -> int:
        """Analytic multiply-adds of one base-DNN pass at the built input size."""
        return self.base_dnn.multiply_adds()

    def reset_cache(self) -> None:
        """Drop all cached feature maps."""
        self._cache.clear()
        self._cache_order.clear()
