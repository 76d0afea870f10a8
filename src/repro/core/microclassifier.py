"""The microclassifier API.

A microclassifier (MC) is a lightweight binary classification network that
takes base-DNN feature maps as input and outputs the probability that a
frame is relevant to one application (paper Section 3.2).  To deploy an MC,
the application developer supplies:

* the network weights and architecture,
* the name of the base-DNN layer to use as input, and
* optionally a rectangular crop of that layer's feature map.

This module defines the configuration and the abstract base class; the three
concrete architectures from Figure 2 live in :mod:`repro.core.architectures`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.features.extractor import FeatureMapCrop
from repro.nn.layers import Parameter

__all__ = ["MicroClassifierConfig", "MicroClassifier"]


@dataclass(frozen=True)
class MicroClassifierConfig:
    """Deployment configuration of one microclassifier.

    Attributes
    ----------
    name:
        Unique name; used as the event namespace in frame metadata.
    input_layer:
        Base-DNN layer whose activations this MC consumes
        (e.g. ``"conv4_2/sep"``).
    crop:
        Optional rectangular crop of the feature map, expressed in pixel
        coordinates of the original frame (rescaled per feature map).
    threshold:
        Probability above which a frame is declared relevant.
    upload_bitrate:
        Target H.264 bitrate (bits/second) for re-encoding this MC's matched
        frames before upload.
    """

    name: str
    input_layer: str
    crop: FeatureMapCrop | None = None
    threshold: float = 0.5
    upload_bitrate: float = 500_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("MicroClassifier name must be non-empty")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if not 0 < self.upload_bitrate < float("inf"):  # written so that a NaN fails it
            raise ValueError("upload_bitrate must be positive and finite")


class MicroClassifier(ABC):
    """Base class for microclassifiers.

    Subclasses build an internal model over the (cropped) feature-map shape
    and implement batched probability prediction.  A microclassifier's
    *marginal* cost — the multiply-adds it adds on top of the shared base
    DNN — is exposed via :meth:`multiply_adds`, which is what Figures 5-7
    compare.
    """

    def __init__(self, config: MicroClassifierConfig) -> None:
        self.config = config
        self.built = False
        self.input_shape: tuple[int, int, int] | None = None

    @property
    def name(self) -> str:
        """The microclassifier's deployment name."""
        return self.config.name

    @property
    def input_layer(self) -> str:
        """Base-DNN layer this MC consumes."""
        return self.config.input_layer

    @property
    def crop(self) -> FeatureMapCrop | None:
        """Optional feature-map crop."""
        return self.config.crop

    # -- construction ------------------------------------------------------
    @abstractmethod
    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        """Build the internal model for a (cropped) feature map of ``input_shape``."""

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(f"MicroClassifier {self.name!r} used before build()")

    # -- inference ---------------------------------------------------------
    def bank_key(self) -> tuple:
        """What MCs must share to be scored as one bank: concrete class, tap, crop and built
        input shape (an architecture's layer sizes are fixed, so these pin every weight's shape)."""
        return (type(self), self.input_layer, self.crop, self.input_shape)

    @abstractmethod
    def predict_proba_batch(
        self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] | None = None
    ) -> np.ndarray:
        """Relevance probabilities for a batch of feature maps ``(N, H, W, C)``.

        With ``peers`` (the rest of this MC's bank, possibly empty) the input is lowered
        once and one ``(N,)`` row per member, ``self`` first, bit-identical to its own call.
        """

    # -- training support --------------------------------------------------
    @abstractmethod
    def forward_logits(self, feature_maps: np.ndarray, training: bool) -> np.ndarray:
        """Raw logits ``(N, 1)`` for a batch (training-mode caches gradients)."""

    @abstractmethod
    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the logits."""

    @abstractmethod
    def parameters(self) -> list[Parameter]:
        """All trainable parameters."""

    # -- cost accounting ---------------------------------------------------
    @abstractmethod
    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        """Marginal multiply-adds this MC spends per frame (excludes base DNN).

        ``input_shape`` defaults to the built one; any shape can be asked, built or not.
        """

    def num_parameters(self) -> int:
        """Total scalar weights in this MC."""
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, layer={self.input_layer!r}, "
            f"crop={self.crop is not None})"
        )
