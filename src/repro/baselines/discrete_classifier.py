"""NoScope-style discrete classifiers (DCs).

A discrete classifier is a small task-specific CNN that maps *raw pixels*
directly to a binary relevance decision.  It is cheaper than a full
general-purpose DNN but, unlike a microclassifier, it cannot share any
computation with other applications: every DC repeats the full
pixels-to-decision translation.

The paper constructs DCs "with between 100 million and 2.5 billion
multiply-adds, varying the number of convolutional layers (2-4), the number
of kernels (16-64), the stride length (1-3), the number of pooling layers
(0-2), and the type of convolutions (standard or separable)", with kernel
size fixed to 3 (Section 4.4).  :func:`discrete_classifier_pareto_configs`
reproduces that sweep over the layer count, kernels, strides and convolution
type; every entry has one pooling layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Parameter,
    ReLU,
    SeparableConv2D,
)
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.model import Sequential

__all__ = [
    "DiscreteClassifierConfig",
    "DiscreteClassifier",
    "discrete_classifier_pareto_configs",
]

_SIGMOID = SigmoidBinaryCrossEntropy._sigmoid


@dataclass(frozen=True)
class DiscreteClassifierConfig:
    """Architecture knobs of one discrete classifier.

    ``kernels`` gives the filter count of each convolutional layer (its
    length is the number of conv layers); ``strides`` must match in length.
    ``separable`` switches every convolution to a depthwise-separable one.
    What every entry of the sweep shares is fixed: 3x3 kernels, one 2x2
    max-pool after the first convolution and a 32-unit FC layer.
    """

    name: str = "dc"
    kernels: tuple[int, ...] = (32, 32)
    strides: tuple[int, ...] = (2, 2)
    separable: bool = False
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 2 <= len(self.kernels) <= 4:
            raise ValueError("DCs use between 2 and 4 convolutional layers")
        if len(self.strides) != len(self.kernels):
            raise ValueError("strides must have the same length as kernels")
        if any(k < 16 or k > 64 for k in self.kernels):
            raise ValueError("kernel counts must be within [16, 64]")
        if any(s < 1 or s > 3 for s in self.strides):
            raise ValueError("strides must be within [1, 3]")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")


class DiscreteClassifier:
    """A pixel-level binary classifier (the NoScope-style baseline)."""

    def __init__(self, config: DiscreteClassifierConfig) -> None:
        self.config = config
        self.input_shape: tuple[int, int, int] | None = None
        self.built = False
        name = config.name
        conv_cls = SeparableConv2D if config.separable else Conv2D
        layers = []
        for i, (filters, stride) in enumerate(zip(config.kernels, config.strides)):
            layers.append(conv_cls(filters, 3, stride=stride, name=f"{name}/conv{i}"))
            layers.append(ReLU(name=f"{name}/relu{i}"))
            if i == 0:
                layers.append(MaxPool2D(name=f"{name}/pool{i}"))
        layers.extend(
            [
                Flatten(name=f"{name}/flatten"),
                Dense(32, name=f"{name}/fc1"),
                ReLU(name=f"{name}/fc_relu"),
                Dense(1, name=f"{name}/fc2"),
            ]
        )
        self.model = Sequential(layers, name=name)

    @property
    def name(self) -> str:
        """Configured classifier name."""
        return self.config.name

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator | None = None) -> None:
        """Allocate the weights for raw-pixel inputs of ``input_shape`` (H, W, 3)."""
        self.model.build(input_shape, rng or np.random.default_rng(0))
        self.input_shape = tuple(input_shape)
        self.built = True

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(f"DiscreteClassifier {self.name!r} used before build()")

    # -- inference -----------------------------------------------------------
    def forward_logits(self, pixels: np.ndarray, training: bool) -> np.ndarray:
        """Raw logits ``(N, 1)`` for a batch of pixel frames ``(N, H, W, 3)``."""
        self._require_built()
        return self.model.forward(np.asarray(pixels, dtype=np.float64), training=training)

    def predict_proba_batch(self, pixels: np.ndarray) -> np.ndarray:
        """Relevance probabilities for a batch of frames."""
        return _SIGMOID(self.forward_logits(pixels, training=False)[:, 0])

    # -- training support ------------------------------------------------------
    def backward(self, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the logits."""
        self._require_built()
        self.model.backward(grad_logits)

    def parameters(self) -> list[Parameter]:
        """All trainable parameters."""
        return self.model.parameters()

    # -- cost accounting ---------------------------------------------------------
    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        """Multiply-adds for one frame — the DC's *total* cost (nothing is shared).

        ``input_shape`` defaults to the built one; any shape can be asked, built or not.
        """
        return self.model.multiply_adds(input_shape)


def discrete_classifier_pareto_configs() -> list[DiscreteClassifierConfig]:
    """The DC sweep used to trace the cost/accuracy Pareto frontier (Figure 7).

    Configurations range from cheap (2 strided separable convolutions,
    ~90M multiply-adds at 1080p) to expensive (3 standard convolutions,
    ~2.3B multiply-adds at 1080p), spanning the paper's 100M-2.5B range.
    """
    return [
        DiscreteClassifierConfig(name="dc_small", kernels=(16, 32), strides=(2, 2), separable=True),
        DiscreteClassifierConfig(name="dc_medium", kernels=(16, 32), strides=(2, 2)),
        DiscreteClassifierConfig(name="dc_large", kernels=(32, 32), strides=(2, 2)),
        DiscreteClassifierConfig(name="dc_xlarge", kernels=(32, 48, 64), strides=(2, 2, 1)),
        DiscreteClassifierConfig(name="dc_xxlarge", kernels=(32, 64, 64), strides=(2, 2, 1)),
    ]
