"""A from-scratch NumPy deep-learning framework.

This subpackage is the substrate that replaces Caffe/TensorFlow in the
FilterForward paper.  It provides exactly the building blocks needed by the
base DNN (MobileNet-style depthwise-separable CNN), the three microclassifier
architectures, and the NoScope-style discrete classifiers:

* layers with forward/backward passes (:mod:`repro.nn.layers`),
* parameter initializers (:mod:`repro.nn.initializers`),
* binary cross-entropy (:mod:`repro.nn.losses`),
* the Adam optimizer (:mod:`repro.nn.optimizers`),
* a :class:`~repro.nn.model.Sequential` container with named-layer taps,
* the paper's per-layer multiply-add formulas (:mod:`repro.nn.cost`), which
  ``Layer.multiply_adds`` is tested against,
* weight (de)serialization (:mod:`repro.nn.serialization`).

All tensors use the NHWC layout ``(batch, height, width, channels)``, which
matches the ``H x W x C`` feature-map dimensions quoted in the paper.
"""

from repro.nn.batched import (
    banked_forward,
    banked_layer_forward,
    batched_forward_with_taps,
    batched_layer_forward,
)
from repro.nn.initializers import (
    HeNormal,
    Initializer,
    Constant,
    GlorotUniform,
)
from repro.nn.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    GlobalMaxPool,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
    ReLU6,
    SeparableConv2D,
    sigmoid,
)
from repro.nn.losses import BinaryCrossEntropy, SigmoidBinaryCrossEntropy
from repro.nn.model import Sequential, count_parameters
from repro.nn.optimizers import Adam
from repro.nn.cost import (
    conv_multiply_adds,
    dense_multiply_adds,
    separable_conv_multiply_adds,
)
from repro.nn.serialization import load_weights, save_weights

__all__ = [
    "Adam",
    "BinaryCrossEntropy",
    "Constant",
    "Conv2D",
    "Dense",
    "DepthwiseConv2D",
    "Flatten",
    "GlobalMaxPool",
    "GlorotUniform",
    "HeNormal",
    "Initializer",
    "Layer",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "ReLU6",
    "SeparableConv2D",
    "Sequential",
    "SigmoidBinaryCrossEntropy",
    "banked_forward",
    "banked_layer_forward",
    "batched_forward_with_taps",
    "batched_layer_forward",
    "conv_multiply_adds",
    "count_parameters",
    "dense_multiply_adds",
    "load_weights",
    "save_weights",
    "separable_conv_multiply_adds",
    "sigmoid",
]
