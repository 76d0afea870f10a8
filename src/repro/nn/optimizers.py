"""The one optimizer the trainer runs: Adam."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["Adam"]

# Kingma & Ba's defaults; every training run in this repository uses them.
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class Adam:
    """Adam optimizer (Kingma & Ba, 2015): applies accumulated gradients in place."""

    def __init__(self, learning_rate: float = 1e-3) -> None:
        if not learning_rate > 0:  # written so that a NaN fails it
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    @staticmethod
    def zero_grad(parameters: Iterable[Parameter]) -> None:
        """Clear accumulated gradients."""
        for p in parameters:
            p.zero_grad()

    def step(self, parameters: Iterable[Parameter]) -> None:
        """Update each parameter in place from its ``grad`` field."""
        self._t += 1
        lr_t = self.learning_rate * (np.sqrt(1.0 - _BETA2**self._t) / (1.0 - _BETA1**self._t))
        for p in parameters:
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.value)
                v = np.zeros_like(p.value)
            m = _BETA1 * m + (1.0 - _BETA1) * p.grad
            v = _BETA2 * v + (1.0 - _BETA2) * (p.grad**2)
            self._m[id(p)] = m
            self._v[id(p)] = v
            p.value -= lr_t * m / (np.sqrt(v) + _EPSILON)
