"""Multiply-add cost model at paper-scale resolutions.

Every cost is read off the layer graph the runtime builds: the MobileNet base
DNN of :func:`~repro.features.base_dnn.mobilenet_graph`, the microclassifiers
of :mod:`repro.core.architectures` and
:class:`~repro.baselines.discrete_classifier.DiscreteClassifier`.  A graph
answers shape and multiply-add queries before any weight is allocated, so the
full 1920x1080 / 2048x850 inputs cost nothing to evaluate.
:class:`CostModel` asks them for one camera resolution and caches the answers.

Reference feature-map shapes for a 1920x1080 frame (Figure 2 rounds the
heights down, to 33 and 67):

* ``conv5_6/sep`` (full-frame object detector input): ``34 x 60 x 1024``
* ``conv4_2/sep`` (localized / windowed input):       ``68 x 120 x 512``
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.baselines.discrete_classifier import DiscreteClassifier, DiscreteClassifierConfig
from repro.core.architectures import ARCHITECTURES
from repro.core.microclassifier import MicroClassifierConfig
from repro.features.base_dnn import mobilenet_layer_shapes, mobilenet_multiply_adds

__all__ = ["CostModel"]

# The base-DNN layer each architecture consumes (Figure 2).
_MC_TAPS = {"full_frame": "conv5_6/sep", "localized": "conv4_2/sep", "windowed": "conv4_2/sep"}


@dataclass(frozen=True)
class CostModel:
    """Per-component multiply-add costs for one camera resolution.

    Parameters
    ----------
    resolution:
        ``(width, height)`` of the camera stream in pixels.
    alpha:
        Base-DNN width multiplier (1.0 reproduces the paper's MobileNet).
    crop_fraction:
        Fraction in ``(0, 1]`` of the feature-map *area* retained by the
        microclassifiers' optional spatial crop (1.0 = no crop).  Cropping
        reduces MC cost proportionally (Section 3.2).
    """

    resolution: tuple[int, int] = (1920, 1080)
    alpha: float = 1.0
    crop_fraction: float = 1.0

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it.
        if len(self.resolution) != 2 or not all(0 < side < math.inf for side in self.resolution):
            raise ValueError(
                f"resolution must be a positive, finite (width, height); got {self.resolution}"
            )
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite; got {self.alpha}")
        if not 0.0 < self.crop_fraction <= 1.0:
            raise ValueError(f"crop_fraction must be in (0, 1]; got {self.crop_fraction}")
        object.__setattr__(self, "resolution", tuple(self.resolution))

    def layer_shapes(self) -> dict[str, tuple[int, int, int]]:
        """Base-DNN feature-map shapes at this resolution."""
        return mobilenet_layer_shapes(self.resolution, alpha=self.alpha)

    def base_dnn_cost(self) -> int:
        """Multiply-adds of one base-DNN (feature extractor) pass."""
        return mobilenet_multiply_adds(self.resolution, alpha=self.alpha)

    def mc_cost(self, architecture: str) -> int:
        """Marginal multiply-adds of one microclassifier of ``architecture`` (Figure 2's sizes)."""
        return _query_mc(self, architecture.lower())

    def dc_cost(self, config: DiscreteClassifierConfig) -> int:
        """Total multiply-adds of one discrete classifier at this resolution."""
        return _query_dc(self.resolution, config)


@lru_cache(maxsize=4096)
def _query_mc(model: CostModel, architecture: str) -> int:
    if architecture not in ARCHITECTURES:
        raise ValueError(
            f"Unknown architecture {architecture!r}; expected one of {sorted(ARCHITECTURES)}"
        )
    tap = _MC_TAPS[architecture]
    h, w, c = model.layer_shapes()[tap]
    if model.crop_fraction < 1.0:
        # The paper's crops are horizontal bands, so the crop reduces height.
        h = max(1, int(round(h * model.crop_fraction)))
    mc = ARCHITECTURES[architecture](MicroClassifierConfig(name=architecture, input_layer=tap))
    return mc.multiply_adds((h, w, c))


@lru_cache(maxsize=4096)
def _query_dc(resolution: tuple[int, int], config: DiscreteClassifierConfig) -> int:
    width, height = resolution
    return DiscreteClassifier(config).multiply_adds((height, width, 3))
