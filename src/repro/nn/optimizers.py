"""Gradient-descent optimizers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(ABC):
    """Base class: applies accumulated gradients to a set of parameters."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    @abstractmethod
    def step(self, parameters: Iterable[Parameter]) -> None:
        """Update each parameter in place from its ``grad`` field."""

    @staticmethod
    def zero_grad(parameters: Iterable[Parameter]) -> None:
        """Clear accumulated gradients."""
        for p in parameters:
            p.zero_grad()


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(self, parameters: Iterable[Parameter]) -> None:
        for p in parameters:
            p.value -= self.learning_rate * p.grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, parameters: Iterable[Parameter]) -> None:
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta2**self._t) / (1.0 - self.beta1**self._t)
        )
        for p in parameters:
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.value)
                v = np.zeros_like(p.value)
            m = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v = self.beta2 * v + (1.0 - self.beta2) * (p.grad**2)
            self._m[id(p)] = m
            self._v[id(p)] = v
            p.value -= lr_t * m / (np.sqrt(v) + self.epsilon)
