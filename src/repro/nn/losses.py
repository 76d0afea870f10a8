"""Binary cross-entropy for training microclassifiers and discrete classifiers.

The trainer runs :class:`SigmoidBinaryCrossEntropy` on logits;
:class:`BinaryCrossEntropy` on probabilities is kept as its reference.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import sigmoid

__all__ = [
    "BinaryCrossEntropy",
    "SigmoidBinaryCrossEntropy",
]

_EPS = 1e-12


def _align(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(predictions.shape)
    return predictions, targets


class BinaryCrossEntropy:
    """Binary cross-entropy on probabilities in (0, 1)."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        predictions, targets = _align(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        losses = -(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p))
        return float(np.mean(losses))

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to ``predictions``."""
        predictions, targets = _align(predictions, targets)
        p = np.clip(predictions, _EPS, 1.0 - _EPS)
        grad = (p - targets) / (p * (1.0 - p))
        return grad / predictions.size


class SigmoidBinaryCrossEntropy:
    """Numerically stable BCE computed directly on logits.

    Prefer this over :class:`BinaryCrossEntropy` of ``sigmoid(z)`` when
    training: the combined gradient ``sigmoid(z) - y`` avoids saturation.
    """

    _sigmoid = staticmethod(sigmoid)

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        """Mean loss over the batch."""
        logits, targets = _align(logits, targets)
        # log(1 + exp(-|z|)) + max(z, 0) - z*y is the standard stable form.
        losses = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
        return float(np.mean(losses))

    def backward(self, logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss with respect to ``logits``."""
        logits, targets = _align(logits, targets)
        grad = self._sigmoid(logits) - targets
        return grad / logits.size
