"""Weight initializers.

Initializers are deterministic given a :class:`numpy.random.Generator`,
which keeps every experiment in the repository reproducible end to end.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "Initializer",
    "Constant",
    "GlorotUniform",
    "HeNormal",
]


class Initializer(ABC):
    """Base class for weight initializers."""

    @abstractmethod
    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Return an array of ``shape`` drawn from this initializer."""

    @staticmethod
    def _fan_in_out(shape: Sequence[int]) -> tuple[int, int]:
        """Compute (fan_in, fan_out) for dense and convolutional kernels.

        Dense kernels are ``(in, out)``.  Convolution kernels are
        ``(kh, kw, in, out)``; the receptive field multiplies both fans.
        """
        shape = tuple(int(s) for s in shape)
        if len(shape) == 1:
            return shape[0], shape[0]
        if len(shape) == 2:
            return shape[0], shape[1]
        receptive = int(np.prod(shape[:-2]))
        return receptive * shape[-2], receptive * shape[-1]


class Constant(Initializer):
    """Fill with a constant value (used for biases)."""

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, self.value, dtype=np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Constant({self.value})"


class GlorotUniform(Initializer):
    """Glorot/Xavier uniform initializer, suited to sigmoid/linear outputs."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, fan_out = self._fan_in_out(shape)
        limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
        return rng.uniform(-limit, limit, size=shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "GlorotUniform()"


class HeNormal(Initializer):
    """He normal initializer, suited to ReLU-family activations."""

    def __call__(self, shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        fan_in, _ = self._fan_in_out(shape)
        std = np.sqrt(2.0 / max(fan_in, 1))
        return rng.normal(0.0, std, size=shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "HeNormal()"
