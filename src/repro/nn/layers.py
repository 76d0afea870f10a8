"""Neural-network layers with forward and backward passes.

Every layer used by the FilterForward paper's models is implemented here:

* :class:`Conv2D` and :class:`DepthwiseConv2D`/:class:`SeparableConv2D`
  (MobileNet-style base DNN, microclassifier bodies, discrete classifiers),
* :class:`Dense` fully-connected heads,
* :class:`MaxPool2D` and :class:`GlobalMaxPool` (the "max over the grid of
  logits" in the full-frame object detector),
* :class:`ReLU`, :class:`ReLU6` and :class:`Flatten`, plus the
  :func:`sigmoid` function every probability goes through.

Layers are stateful: ``forward`` caches whatever the subsequent ``backward``
needs.  All activations use NHWC layout.  Cost accounting follows the
multiply-add formulas in Section 4.5 of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.nn.im2col import col2im, conv_columns, conv_output_size, im2col
from repro.nn.initializers import Constant, GlorotUniform, HeNormal

__all__ = [
    "sigmoid",
    "Parameter",
    "Layer",
    "Conv2D",
    "DepthwiseConv2D",
    "SeparableConv2D",
    "Dense",
    "Flatten",
    "MaxPool2D",
    "GlobalMaxPool",
    "ReLU",
    "ReLU6",
]


@dataclass(repr=False)
class Parameter:
    """A trainable tensor whose gradient buffer is allocated on first use of :attr:`grad`."""

    name: str
    value: np.ndarray
    _grad: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient (zeros until something is accumulated)."""
        if self._grad is None or self._grad.shape != self.value.shape:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        self._grad = grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero (a no-op if there is none)."""
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape}, grad={self._grad is not None})"

    @property
    def size(self) -> int:
        """Number of scalar weights in this parameter."""
        return int(self.value.size)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic sigmoid: ``exp`` only ever sees ``-|z|``, in one pass, no masks."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _as_pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"Expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


class Layer(ABC):
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`; layers with
    weights also implement :meth:`build` and expose them via
    :meth:`parameters`.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or f"{type(self).__name__.lower()}_{id(self) & 0xFFFF:x}"
        self.built = False

    # -- construction ------------------------------------------------------
    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        """Allocate parameters for the given per-sample input shape."""
        self.built = True

    # -- execution ---------------------------------------------------------
    @abstractmethod
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the layer on a batch of inputs."""

    @abstractmethod
    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad`` (dL/d output) and return dL/d input."""

    # -- introspection -----------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (possibly empty)."""
        return []

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape produced from ``input_shape``."""
        return tuple(input_shape)

    def multiply_adds(self, input_shape: tuple[int, ...]) -> int:
        """Analytic multiply-add count for one sample of ``input_shape``."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class Conv2D(Layer):
    """Standard 2-D convolution over NHWC inputs.

    Parameters
    ----------
    filters:
        Number of output channels ``F``.
    kernel_size:
        Receptive-field size ``K`` (int or pair).
    stride:
        Spatial stride ``S``.

    Every convolution pads ``"same"`` (TensorFlow semantics), adds a per-filter
    bias and draws its kernel from :class:`HeNormal`.
    """

    padding = "same"

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ValueError("filters must be positive")
        self.filters = int(filters)
        self.kernel_size = _as_pair(kernel_size)
        self.stride = _as_pair(stride)
        self.kernel: Parameter | None = None
        self.bias: Parameter | None = None
        self._cache: dict | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        h, w, c = input_shape
        kh, kw = self.kernel_size
        self.kernel = Parameter(f"{self.name}/kernel", HeNormal()((kh, kw, c, self.filters), rng))
        self.bias = Parameter(f"{self.name}/bias", Constant(0.0)((self.filters,), rng))
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self.built:
            raise RuntimeError(f"Layer {self.name} used before build()")
        if training:
            cols, out_size, padded_shape = im2col(x, self.kernel_size, self.stride, self.padding)
            self._cache = {
                "cols": cols,
                "padded_shape": padded_shape,
                "out_size": out_size,
                "input_spatial": (x.shape[1], x.shape[2]),
                "in_channels": x.shape[3],
            }
        else:
            cols, out_size = conv_columns(x, self.kernel_size, self.stride, self.padding)
        out = cols @ self.kernel.value.reshape(-1, self.filters)
        out += self.bias.value
        return out.reshape(x.shape[0], *out_size, self.filters)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward() before forward(training=True) in {self.name}")
        cache = self._cache
        kh, kw = self.kernel_size
        in_c = cache["in_channels"]
        grad_mat = grad.reshape(-1, self.filters)
        self.kernel.grad += (cache["cols"].T @ grad_mat).reshape(kh, kw, in_c, self.filters)
        self.bias.grad += grad_mat.sum(axis=0)
        w_mat = self.kernel.value.reshape(kh * kw * in_c, self.filters)
        cols_grad = grad_mat @ w_mat.T
        return col2im(
            cols_grad,
            cache["padded_shape"],
            self.kernel_size,
            self.stride,
            cache["out_size"],
            cache["input_spatial"],
            self.padding,
        )

    def parameters(self) -> list[Parameter]:
        params = [self.kernel] if self.kernel is not None else []
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, _ = input_shape
        out_h = conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding)
        out_w = conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding)
        return (out_h, out_w, self.filters)

    def multiply_adds(self, input_shape: tuple[int, ...]) -> int:
        h, w, c = input_shape
        out_h, out_w, _ = self.output_shape(input_shape)
        kh, kw = self.kernel_size
        return int(out_h * out_w * c * kh * kw * self.filters)


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution: one spatial filter per input channel.

    It pads ``"same"`` and draws its kernel from :class:`HeNormal`; the bias is
    optional because the base DNN's depthwise layers have one and a
    :class:`SeparableConv2D`'s does not.
    """

    padding = "same"

    def __init__(
        self,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        use_bias: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.kernel_size = _as_pair(kernel_size)
        self.stride = _as_pair(stride)
        self.use_bias = bool(use_bias)
        self.kernel: Parameter | None = None
        self.bias: Parameter | None = None
        self.channels: int | None = None
        self._cache: dict | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        _, _, c = input_shape
        kh, kw = self.kernel_size
        self.channels = int(c)
        self.kernel = Parameter(f"{self.name}/depthwise_kernel", HeNormal()((kh, kw, c), rng))
        if self.use_bias:
            self.bias = Parameter(f"{self.name}/bias", Constant(0.0)((c,), rng))
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self.built:
            raise RuntimeError(f"Layer {self.name} used before build()")
        kh, kw = self.kernel_size
        c = x.shape[3]
        cols, (out_h, out_w), padded_shape = im2col(x, self.kernel_size, self.stride, self.padding)
        # cols: (N*out_h*out_w, kh*kw*c) -> (N*out_h*out_w, kh*kw, c)
        windows = cols.reshape(-1, kh * kw, c)
        kernel = self.kernel.value.reshape(kh * kw, c)
        out = np.einsum("nkc,kc->nc", windows, kernel)
        if self.use_bias:
            out += self.bias.value
        out = out.reshape(x.shape[0], out_h, out_w, c)
        if training:
            self._cache = {
                "windows": windows,
                "padded_shape": padded_shape,
                "out_size": (out_h, out_w),
                "input_spatial": (x.shape[1], x.shape[2]),
            }
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward() before forward(training=True) in {self.name}")
        cache = self._cache
        kh, kw = self.kernel_size
        c = self.channels
        grad_mat = grad.reshape(-1, c)
        self.kernel.grad += np.einsum("nkc,nc->kc", cache["windows"], grad_mat).reshape(kh, kw, c)
        if self.use_bias:
            self.bias.grad += grad_mat.sum(axis=0)
        kernel = self.kernel.value.reshape(kh * kw, c)
        cols_grad = np.einsum("nc,kc->nkc", grad_mat, kernel).reshape(-1, kh * kw * c)
        return col2im(
            cols_grad,
            cache["padded_shape"],
            self.kernel_size,
            self.stride,
            cache["out_size"],
            cache["input_spatial"],
            self.padding,
        )

    def parameters(self) -> list[Parameter]:
        params = [self.kernel] if self.kernel is not None else []
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        out_h = conv_output_size(h, self.kernel_size[0], self.stride[0], self.padding)
        out_w = conv_output_size(w, self.kernel_size[1], self.stride[1], self.padding)
        return (out_h, out_w, c)

    def multiply_adds(self, input_shape: tuple[int, ...]) -> int:
        h, w, c = input_shape
        out_h, out_w, _ = self.output_shape(input_shape)
        kh, kw = self.kernel_size
        return int(out_h * out_w * c * kh * kw)


class SeparableConv2D(Layer):
    """Depthwise-separable convolution (depthwise followed by 1x1 pointwise).

    This is the "factored" convolution whose multiply-add count the paper
    quotes as ``H/S * W/S * M * (K^2 + F)``.
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        self.filters = int(filters)
        self.kernel_size = _as_pair(kernel_size)
        self.stride = _as_pair(stride)
        self.depthwise = DepthwiseConv2D(
            kernel_size, stride, use_bias=False, name=f"{self.name}/depthwise"
        )
        self.pointwise = Conv2D(filters, 1, 1, name=f"{self.name}/pointwise")

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        self.depthwise.build(input_shape, rng)
        mid_shape = self.depthwise.output_shape(input_shape)
        self.pointwise.build(mid_shape, rng)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.pointwise.forward(self.depthwise.forward(x, training), training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.depthwise.backward(self.pointwise.backward(grad))

    def parameters(self) -> list[Parameter]:
        return self.depthwise.parameters() + self.pointwise.parameters()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return self.pointwise.output_shape(self.depthwise.output_shape(input_shape))

    def multiply_adds(self, input_shape: tuple[int, ...]) -> int:
        h, w, c = input_shape
        out_h, out_w, _ = self.output_shape(input_shape)
        kh, kw = self.kernel_size
        return int(out_h * out_w * c * (kh * kw + self.filters))


class Dense(Layer):
    """Fully-connected layer over flattened per-sample features.

    It adds a per-unit bias and draws its kernel from :class:`GlorotUniform`.
    """

    def __init__(self, units: int, name: str | None = None) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.kernel: Parameter | None = None
        self.bias: Parameter | None = None
        self._cache: np.ndarray | None = None

    @staticmethod
    def _flatten(x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> None:
        in_features = int(np.prod(input_shape))
        self.kernel = Parameter(
            f"{self.name}/kernel", GlorotUniform()((in_features, self.units), rng)
        )
        self.bias = Parameter(f"{self.name}/bias", Constant(0.0)((self.units,), rng))
        self._input_shape = tuple(int(s) for s in input_shape)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not self.built:
            raise RuntimeError(f"Layer {self.name} used before build()")
        flat = self._flatten(x)
        out = flat @ self.kernel.value
        out += self.bias.value
        if training:
            self._cache = flat
            self._batch_input_shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward() before forward(training=True) in {self.name}")
        self.kernel.grad += self._cache.T @ grad
        self.bias.grad += grad.sum(axis=0)
        return (grad @ self.kernel.value.T).reshape(self._batch_input_shape)

    def parameters(self) -> list[Parameter]:
        params = [self.kernel] if self.kernel is not None else []
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.units,)

    def multiply_adds(self, input_shape: tuple[int, ...]) -> int:
        # Paper Section 4.5: N * H * W * M for an H x W x M feature map.
        return int(np.prod(input_shape)) * self.units


class Flatten(Layer):
    """Flatten per-sample dimensions into a vector."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._input_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class MaxPool2D(Layer):
    """2x2 max pooling at stride 2 over the ``"valid"`` windows (an odd edge row or column
    is dropped): the one pooling the discrete classifiers use."""

    pool_size = (2, 2)
    stride = (2, 2)
    padding = "valid"

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, (out_h, out_w), padded_shape = im2col(x, self.pool_size, self.stride, self.padding)
        kh, kw = self.pool_size
        c = x.shape[3]
        windows = cols.reshape(-1, kh * kw, c)
        idx = windows.argmax(axis=1)
        out = np.take_along_axis(windows, idx[:, None, :], axis=1)[:, 0, :]
        out = out.reshape(x.shape[0], out_h, out_w, c)
        if training:
            self._cache = {
                "idx": idx,
                "windows_shape": windows.shape,
                "padded_shape": padded_shape,
                "out_size": (out_h, out_w),
                "input_spatial": (x.shape[1], x.shape[2]),
            }
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cache = self._cache
        kh, kw = self.pool_size
        windows_grad = np.zeros(cache["windows_shape"], dtype=grad.dtype)
        grad_mat = grad.reshape(-1, grad.shape[3])
        np.put_along_axis(windows_grad, cache["idx"][:, None, :], grad_mat[:, None, :], axis=1)
        cols_grad = windows_grad.reshape(-1, kh * kw * grad.shape[3])
        return col2im(
            cols_grad,
            cache["padded_shape"],
            self.pool_size,
            self.stride,
            cache["out_size"],
            cache["input_spatial"],
            self.padding,
        )

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        out_h = conv_output_size(h, self.pool_size[0], self.stride[0], self.padding)
        out_w = conv_output_size(w, self.pool_size[1], self.stride[1], self.padding)
        return (out_h, out_w, c)


class GlobalMaxPool(Layer):
    """Max over all spatial positions, per channel.

    The full-frame object detector microclassifier uses this to aggregate a
    grid of per-location logits into a single frame-level logit ("looking
    for >= 1 objects").
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, h, w, c = x.shape
        flat = x.reshape(n, h * w, c)
        if not training:
            return flat.max(axis=1)
        idx = flat.argmax(axis=1)  # where ``backward`` routes the gradient
        self._cache = {"idx": idx, "shape": x.shape}
        return np.take_along_axis(flat, idx[:, None, :], axis=1)[:, 0, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, h, w, c = self._cache["shape"]
        flat_grad = np.zeros((n, h * w, c), dtype=grad.dtype)
        np.put_along_axis(flat_grad, self._cache["idx"][:, None, :], grad[:, None, :], axis=1)
        return flat_grad.reshape(n, h, w, c)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (input_shape[2],)


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class ReLU6(Layer):
    """ReLU clipped at 6 (used by the localized binary classifier head)."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = (x > 0) & (x < 6.0)
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask
