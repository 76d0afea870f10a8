"""Loss functions for training microclassifiers and discrete classifiers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.nn.layers import sigmoid

__all__ = [
    "Loss",
    "BinaryCrossEntropy",
    "SigmoidBinaryCrossEntropy",
]

_EPS = 1e-12


class Loss(ABC):
    """A differentiable scalar loss over a batch of predictions."""

    @abstractmethod
    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""

    @abstractmethod
    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to ``predictions``."""

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


def _align(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(predictions.shape)
    return predictions, targets


class BinaryCrossEntropy(Loss):
    """Binary cross-entropy on probabilities in (0, 1).

    Supports per-class weighting to compensate for the heavy class imbalance
    in surveillance video (interesting events are rare).
    """

    def __init__(self, positive_weight: float = 1.0) -> None:
        if positive_weight <= 0:
            raise ValueError("positive_weight must be positive")
        self.positive_weight = float(positive_weight)

    def _weights(self, targets: np.ndarray) -> np.ndarray:
        return np.where(targets > 0.5, self.positive_weight, 1.0)

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        predictions, targets = _align(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        w = self._weights(targets)
        losses = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
        return float(np.mean(w * losses))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        predictions, targets = _align(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        w = self._weights(targets)
        grad = w * (p - targets) / (p * (1.0 - p))
        return grad / predictions.size


class SigmoidBinaryCrossEntropy(Loss):
    """Numerically stable BCE computed directly on logits.

    Prefer this over stacking :class:`~repro.nn.layers.Sigmoid` +
    :class:`BinaryCrossEntropy` when training: the combined gradient
    ``sigmoid(z) - y`` avoids saturation.
    """

    def __init__(self, positive_weight: float = 1.0) -> None:
        if positive_weight <= 0:
            raise ValueError("positive_weight must be positive")
        self.positive_weight = float(positive_weight)

    _sigmoid = staticmethod(sigmoid)

    def _weights(self, targets: np.ndarray) -> np.ndarray:
        return np.where(targets > 0.5, self.positive_weight, 1.0)

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logits, targets = _align(logits, targets)
        # log(1 + exp(-|z|)) + max(z, 0) - z*y is the standard stable form.
        losses = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        return float(np.mean(self._weights(targets) * losses))

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        logits, targets = _align(logits, targets)
        grad = self._weights(targets) * (self._sigmoid(logits) - targets)
        return grad / logits.size
