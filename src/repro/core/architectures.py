"""The three microclassifier architectures from Figure 2 of the paper.

* :class:`FullFrameObjectDetectorMC` (Figure 2a) — a sliding-window-style
  detector: a stack of 1x1 convolutions applied at every feature-map
  location, aggregated with a max over the grid of logits ("looking for
  >= 1 objects"), then a sigmoid.
* :class:`LocalizedBinaryClassifierMC` (Figure 2b) — two separable
  convolutions and a fully-connected layer over a spatially cropped feature
  map; suited to prominent objects within a localized region.
* :class:`WindowedLocalizedBinaryClassifierMC` (Figure 2c) — extends the
  localized classifier with temporal context: a shared 1x1 convolution
  reduces each frame's feature map, a window of ``W`` reduced maps is
  depthwise-concatenated, and a small CNN predicts whether the centre frame
  is interesting.  The 1x1 reductions are computed once per frame and
  buffered, so the marginal per-frame cost stays low.

The layer sizes are the figure's and fixed: every microclassifier of one
architecture has the same layers, whatever its tap, crop or input shape.  Each
constructor lays out the layer graph, so :meth:`multiply_adds` answers for any
input shape (the paper-scale cost model asks at 1920x1080); ``build``
allocates the weights for the actual (possibly width-scaled) input shape.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.microclassifier import MicroClassifier, MicroClassifierConfig
from repro.nn.batched import banked_forward, banked_layer_forward
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalMaxPool,
    Parameter,
    ReLU,
    ReLU6,
    SeparableConv2D,
)
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.model import Sequential

__all__ = [
    "ARCHITECTURES",
    "FullFrameObjectDetectorMC",
    "LocalizedBinaryClassifierMC",
    "WindowedLocalizedBinaryClassifierMC",
    "build_microclassifier",
]

_SIGMOID = SigmoidBinaryCrossEntropy._sigmoid

# Figure 2's layer sizes.
_FULL_FRAME_HIDDEN_FILTERS, _FULL_FRAME_HIDDEN_LAYERS = 32, 2  # 2a
_LOCALIZED_SEPARABLE_FILTERS, _FC_UNITS = (16, 32), 200  # 2b; the FC width is 2c's too
_REDUCE_FILTERS, _WINDOWED_CONV_FILTERS = 32, 32  # 2c (its window is the class's)


class _SequentialMC(MicroClassifier):
    """An architecture whose whole network is one :class:`Sequential` (Figures 2a and 2b).

    The constructor lays out ``model``, unbuilt; :meth:`build` allocates its weights.
    """

    model: Sequential

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        self.model.build(input_shape, rng)
        self.input_shape = tuple(input_shape)
        self.built = True

    def forward_logits(self, feature_maps: np.ndarray, training: bool) -> np.ndarray:
        self._require_built()
        return self.model.forward(feature_maps, training=training)

    def _predict(self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] | None):
        self._require_built()
        stacks = [mc.model.layers for mc in (self, *(peers or ()))]
        logits = banked_forward(stacks, np.asarray(feature_maps, dtype=np.float64))
        rows = _SIGMOID(logits.reshape(len(stacks), -1))  # one sigmoid for the bank
        return rows[0] if peers is None else rows

    def backward(self, grad_logits: np.ndarray) -> None:
        self._require_built()
        self.model.backward(grad_logits)

    def parameters(self) -> list[Parameter]:
        return self.model.parameters()

    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        return self.model.multiply_adds(input_shape)


class FullFrameObjectDetectorMC(_SequentialMC):
    """Figure 2a: 1x1-convolution template matcher + max over logits.

    The figure applies a ReLU after the final single-filter convolution; we
    keep that layer linear so the frame logit can take both signs, which the
    sigmoid needs for calibrated training.  This does not change the
    architecture's cost.
    """

    def __init__(self, config: MicroClassifierConfig) -> None:
        super().__init__(config)
        layers = []
        for i in range(_FULL_FRAME_HIDDEN_LAYERS):
            layers.append(Conv2D(_FULL_FRAME_HIDDEN_FILTERS, 1, name=f"{self.name}/conv1x1_{i}"))
            layers.append(ReLU(name=f"{self.name}/relu_{i}"))
        layers.append(Conv2D(1, 1, name=f"{self.name}/logit_conv"))
        layers.append(GlobalMaxPool(name=f"{self.name}/max"))
        self.model = Sequential(layers, name=self.name)

    def predict_proba_batch(
        self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] | None = None
    ) -> np.ndarray:
        return self._predict(feature_maps, peers)


class LocalizedBinaryClassifierMC(_SequentialMC):
    """Figure 2b: two separable convolutions + a 200-unit FC head."""

    def __init__(self, config: MicroClassifierConfig) -> None:
        super().__init__(config)
        first, second = _LOCALIZED_SEPARABLE_FILTERS
        layers = [
            SeparableConv2D(first, 3, stride=1, name=f"{self.name}/sepconv1"),
            ReLU(name=f"{self.name}/relu1"),
            SeparableConv2D(second, 3, stride=2, name=f"{self.name}/sepconv2"),
            ReLU(name=f"{self.name}/relu2"),
            Flatten(name=f"{self.name}/flatten"),
            Dense(_FC_UNITS, name=f"{self.name}/fc1"),
            ReLU6(name=f"{self.name}/relu6"),
            Dense(1, name=f"{self.name}/fc2"),
        ]
        self.model = Sequential(layers, name=self.name)

    def predict_proba_batch(
        self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] | None = None
    ) -> np.ndarray:
        return self._predict(feature_maps, peers)


class WindowedLocalizedBinaryClassifierMC(MicroClassifier):
    """Figure 2c: temporal-window classifier with buffered 1x1 reductions.

    Per frame, a shared 1x1 convolution reduces the feature map to 32
    channels; the reductions for a symmetric window of :attr:`window` frames
    centred on frame *F* are concatenated depthwise and a small CNN + FC head
    classifies *F*.  The per-frame reductions are buffered and reused across
    overlapping windows (the paper's optimization), so the marginal per-frame
    cost is one reduction plus one head evaluation.
    """

    window = 5  # Figure 2c's frames, centred on the one classified

    def __init__(self, config: MicroClassifierConfig) -> None:
        super().__init__(config)
        self.reduce = Conv2D(_REDUCE_FILTERS, 1, name=f"{self.name}/reduce1x1")
        self.reduce_relu = ReLU(name=f"{self.name}/reduce_relu")
        self.head = Sequential(
            [
                Conv2D(_WINDOWED_CONV_FILTERS, 3, stride=1, name=f"{self.name}/conv1"),
                ReLU(name=f"{self.name}/relu1"),
                Conv2D(_WINDOWED_CONV_FILTERS, 3, stride=2, name=f"{self.name}/conv2"),
                ReLU(name=f"{self.name}/relu2"),
                Flatten(name=f"{self.name}/flatten"),
                Dense(_FC_UNITS, name=f"{self.name}/fc1"),
                ReLU(name=f"{self.name}/fc_relu"),
                Dense(1, name=f"{self.name}/fc2"),
            ],
            name=f"{self.name}/head",
        )

    def _head_input(self, input_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """The head's input for a feature map of ``input_shape``: ``window`` reductions deep."""
        h, w, _ = input_shape
        return (h, w, _REDUCE_FILTERS * self.window)

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        self.reduce.build(tuple(input_shape), rng)
        self.head.build(self._head_input(input_shape), rng)
        self.input_shape = tuple(input_shape)
        self.built = True

    # -- reductions and windows ---------------------------------------------
    def reduce_map(self, feature_map: np.ndarray, training: bool = False) -> np.ndarray:
        """Apply the shared 1x1 reduction to one frame's feature map ``(H, W, C)``."""
        self._require_built()
        out = self.reduce.forward(np.asarray(feature_map, dtype=np.float64)[None, ...], training)
        return self.reduce_relu.forward(out, training)[0]

    def reduce_batch(
        self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] = ()
    ) -> np.ndarray:
        """Reduced ``(n, H, W, C)`` maps of this MC and its bank ``peers``: ``(M, n, H, W, R)``."""
        self._require_built()
        members = (self, *peers)
        feature_maps = np.asarray(feature_maps, dtype=np.float64)
        reduced = banked_layer_forward([mc.reduce for mc in members], feature_maps, True)
        reduced = self.reduce_relu.forward(reduced, False)
        return reduced.reshape(len(members), feature_maps.shape[0], *reduced.shape[1:])

    def _head_probabilities(
        self, windows: Iterable[np.ndarray], peers: Sequence[MicroClassifier] | None
    ) -> np.ndarray:
        """Head pass over one ``(n, H, W, W*R)`` window tensor per bank member: ``(M, n)``."""
        # A member's window is private and its conv1 im2col (K = 9*W*R) is the
        # MC stage's largest array: every member runs its own layers through the
        # last convolution (a bank-wide lowering costs the same and only raises
        # peak memory) and the bank takes over at their small stride-2 output.
        members, layers = (self, *(peers or ())), self.head.layers
        own = 1 + max(i for i, layer in enumerate(layers) if isinstance(layer, Conv2D))
        first = np.concatenate(
            [banked_forward([mc.head.layers[:own]], w, False) for mc, w in zip(members, windows)]
        )
        logits = banked_forward([mc.head.layers[own:] for mc in members], first, False)
        return _SIGMOID(logits.reshape(len(members), -1))

    def predict_window(
        self, reduced_maps: list[np.ndarray], peers: Sequence[MicroClassifier] | None = None
    ) -> float | np.ndarray:
        """Probability that the window's centre frame is relevant.

        With ``peers`` (the rest of a bank) every entry is a stacked ``(M, H, W, R)``
        slice of :meth:`reduce_batch` and one probability per member is returned.
        """
        if len(reduced_maps) != self.window:
            raise ValueError(f"Expected {self.window} reduced maps, got {len(reduced_maps)}")
        if peers is None:
            reduced_maps = [reduced[None] for reduced in reduced_maps]
        windows = (  # lazily: one member's window tensor alive at a time
            np.concatenate([reduced[k] for reduced in reduced_maps], axis=-1)[None]
            for k in range(len(reduced_maps[0]))
        )
        probabilities = self._head_probabilities(windows, peers)[:, 0]
        return float(probabilities[0]) if peers is None else probabilities

    def predict_proba_stream(self, feature_maps: np.ndarray) -> np.ndarray:
        """Probabilities for every frame of a *consecutive* sequence.

        ``feature_maps`` is ``(N, H, W, C)`` in stream order.  Edge frames use
        a clamped (edge-replicated) window, mirroring a real-time deployment
        where the first/last frames lack full context.
        """
        # One batched reduction for all frames (the buffered computation).
        reduced = self.reduce_batch(feature_maps)[0]
        n = reduced.shape[0]
        half = self.window // 2
        probs = np.empty(n)
        for i in range(n):
            idx = np.clip(np.arange(i - half, i + half + 1), 0, n - 1)
            window = [reduced[j] for j in idx]
            probs[i] = self.predict_window(window)
        return probs

    # -- MicroClassifier interface -------------------------------------------
    def predict_proba_batch(
        self, feature_maps: np.ndarray, peers: Sequence[MicroClassifier] | None = None
    ) -> np.ndarray:
        """Treat each batch entry as an independent frame with a static window.

        Without temporal context (e.g. when frames are shuffled for
        training), the window is the same frame repeated ``W`` times; the
        temporal path is exercised via :meth:`predict_proba_stream`.
        """
        reduced = self.reduce_batch(feature_maps, peers or ())
        windows = (np.tile(member, (1, 1, 1, self.window)) for member in reduced)
        rows = self._head_probabilities(windows, peers)
        return rows[0] if peers is None else rows

    def forward_logits(self, feature_maps: np.ndarray, training: bool) -> np.ndarray:
        self._require_built()
        feature_maps = np.asarray(feature_maps, dtype=np.float64)
        reduced = self.reduce_relu.forward(self.reduce.forward(feature_maps, training), training)
        window_input = np.tile(reduced, (1, 1, 1, self.window))
        return self.head.forward(window_input, training=training)

    def backward(self, grad_logits: np.ndarray) -> None:
        self._require_built()
        grad_window = self.head.backward(grad_logits)
        # The same-frame window replicates the reduction W times; gradients sum.
        n, h, w, _ = grad_window.shape
        grad_reduced = grad_window.reshape(n, h, w, self.window, _REDUCE_FILTERS).sum(axis=3)
        grad_reduced = self.reduce_relu.backward(grad_reduced)
        self.reduce.backward(grad_reduced)

    def parameters(self) -> list[Parameter]:
        return self.reduce.parameters() + self.head.parameters()

    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        """Marginal per-frame multiply-adds: one 1x1 reduction + one head pass."""
        shape = tuple(input_shape) if input_shape is not None else self.input_shape
        if shape is None:
            raise RuntimeError("Provide input_shape or build the model first")
        return self.reduce.multiply_adds(shape) + self.head.multiply_adds(self._head_input(shape))


ARCHITECTURES = {
    "full_frame": FullFrameObjectDetectorMC,
    "localized": LocalizedBinaryClassifierMC,
    "windowed": WindowedLocalizedBinaryClassifierMC,
}


def build_microclassifier(
    architecture: str,
    config: MicroClassifierConfig,
    input_shape: tuple[int, int, int],
    rng: np.random.Generator | None = None,
) -> MicroClassifier:
    """Construct and build a microclassifier by architecture name (Figure 2's layer sizes).

    Parameters
    ----------
    architecture:
        ``"full_frame"``, ``"localized"``, or ``"windowed"``.
    config:
        Deployment configuration.
    input_shape:
        Shape of the (cropped) feature map the MC will consume.
    """
    key = architecture.lower()
    if key not in ARCHITECTURES:
        raise ValueError(
            f"Unknown architecture {architecture!r}; expected one of {sorted(ARCHITECTURES)}"
        )
    mc = ARCHITECTURES[key](config)
    mc.build(tuple(input_shape), rng or np.random.default_rng(0))
    return mc
