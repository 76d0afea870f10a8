"""The :class:`Sequential` model container.

``Sequential`` chains layers, supports training-mode forward/backward
passes, reports analytic multiply-add costs, and exposes *named-layer taps*:
``forward_with_taps`` returns the activations of requested intermediate
layers.  Taps are how the FilterForward feature extractor serves base-DNN
activations (e.g. ``conv4_2/sep``) to microclassifiers.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.nn.layers import Layer, Parameter

__all__ = ["Sequential", "count_parameters"]


def count_parameters(parameters: Iterable[Parameter]) -> int:
    """Total number of scalar weights across ``parameters``."""
    return sum(p.size for p in parameters)


class Sequential:
    """A linear stack of layers.

    Parameters
    ----------
    layers:
        Layers applied in order.  Layer names must be unique; they are used
        for tap lookup and weight serialization.
    input_shape:
        Per-sample input shape (H, W, C) or (features,).  If given, the model
        is built immediately.
    rng:
        Random generator used to initialize weights (a fresh default
        generator seeded with 0 is used if omitted).
    name:
        Optional model name, used in error messages and serialization.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: tuple[int, ...] | None = None,
        rng: np.random.Generator | None = None,
        name: str = "sequential",
    ) -> None:
        self.layers: list[Layer] = list(layers)
        self.name = name
        names = [layer.name for layer in self.layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"Duplicate layer names in model {name!r}: {sorted(duplicates)}")
        self.input_shape: tuple[int, ...] | None = None
        self.built = False
        if input_shape is not None:
            self.build(input_shape, rng or np.random.default_rng(0))

    # -- construction ------------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        """Build every layer, threading shapes through the stack."""
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            layer.build(shape, rng)
            shape = layer.output_shape(shape)
        self.output_shape_ = shape
        self.built = True

    def _require_built(self) -> None:
        if not self.built:
            raise RuntimeError(f"Model {self.name!r} used before build()")

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers on a batch of inputs."""
        self._require_built()
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def _run_tapped(
        self,
        x: np.ndarray,
        taps: Sequence[str],
        stop_at_last_tap: bool,
        step: Callable[[Layer, np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Thread ``x`` through ``step(layer, x)`` and collect the tapped outputs.

        ``stop_at_last_tap`` ends the pass at the deepest tap: nothing past it is tapped.
        """
        self._require_built()
        wanted = set(taps)
        names = [layer.name for layer in self.layers]
        unknown = wanted - set(names)
        if unknown:
            raise KeyError(f"Unknown tap layer(s) {sorted(unknown)} in model {self.name!r}")
        layers = self.layers
        if stop_at_last_tap:
            if not wanted:
                raise ValueError("stop_at_last_tap requires at least one tap")
            layers = layers[: max(i for i, name in enumerate(names) if name in wanted) + 1]
        activations: dict[str, np.ndarray] = {}
        out = x
        for layer in layers:
            out = step(layer, out)
            if layer.name in wanted:
                activations[layer.name] = out
        return out, activations

    def forward_with_taps(
        self,
        x: np.ndarray,
        taps: Sequence[str],
        training: bool = False,
        stop_at_last_tap: bool = False,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Forward pass that also returns the activations of named layers.

        Parameters
        ----------
        x:
            Batch of inputs.
        taps:
            Layer names whose outputs should be captured.
        stop_at_last_tap:
            Skip the layers past the deepest tap; ``output`` is then its activation.

        Returns
        -------
        (output, activations):
            Final output and a dict mapping each tap name to its activation.
        """
        return self._run_tapped(
            x, taps, stop_at_last_tap, lambda layer, out: layer.forward(out, training=training)
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through all layers (requires a prior training-mode forward)."""
        self._require_built()
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- introspection -----------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters, in layer order."""
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def num_parameters(self) -> int:
        """Total scalar weight count."""
        return count_parameters(self.parameters())

    def layer_names(self) -> list[str]:
        """Names of all layers, in order."""
        return [layer.name for layer in self.layers]

    # The shape queries below need no weights: an unbuilt model answers them for
    # any ``input_shape``, a built one defaults to the shape it was built with.
    def _query_shape(self, input_shape: tuple[int, ...] | None) -> tuple[int, ...]:
        shape = tuple(input_shape) if input_shape is not None else self.input_shape
        if shape is None:
            raise RuntimeError("Provide input_shape or build the model first")
        return shape

    def layer_output_shapes(
        self, input_shape: tuple[int, ...] | None = None
    ) -> dict[str, tuple[int, ...]]:
        """Per-sample output shape of every layer, keyed by layer name."""
        shape = self._query_shape(input_shape)
        shapes: dict[str, tuple[int, ...]] = {}
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes[layer.name] = shape
        return shapes

    def multiply_adds(self, input_shape: tuple[int, ...] | None = None) -> int:
        """Total analytic multiply-adds for one sample."""
        return sum(self.per_layer_multiply_adds(input_shape).values())

    def per_layer_multiply_adds(
        self, input_shape: tuple[int, ...] | None = None
    ) -> dict[str, int]:
        """Per-layer analytic multiply-adds for one sample, keyed by layer name."""
        shape = self._query_shape(input_shape)
        costs: dict[str, int] = {}
        for layer in self.layers:
            costs[layer.name] = int(layer.multiply_adds(shape))
            shape = layer.output_shape(shape)
        return costs

    def state_dict(self) -> dict[str, np.ndarray]:
        """Weights keyed by parameter name (for serialization)."""
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`state_dict`."""
        params = {p.name: p for p in self.parameters()}
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"Missing weights for parameters: {sorted(missing)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"Shape mismatch for {name!r}: expected {param.value.shape}, "
                    f"got {value.shape}"
                )
            param.value = value.copy()
            param.zero_grad()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sequential(name={self.name!r}, layers={len(self.layers)})"
