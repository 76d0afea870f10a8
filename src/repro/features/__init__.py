"""Feature extraction: the shared base DNN and the FilterForward feature extractor.

The base DNN (a MobileNet-style depthwise-separable CNN) runs once per frame
on the edge node; every microclassifier consumes its intermediate activations
("feature maps").  This computation sharing is FilterForward's key
contribution (paper Section 3.1).
"""

from repro.features.base_dnn import (
    FULL_SCALE_ALPHA,
    MOBILENET_BLOCKS,
    build_mobilenet_like,
    mobilenet_graph,
    mobilenet_layer_shapes,
    mobilenet_multiply_adds,
)
from repro.features.extractor import FeatureExtractor, FeatureMapCrop

__all__ = [
    "FULL_SCALE_ALPHA",
    "FeatureExtractor",
    "FeatureMapCrop",
    "MOBILENET_BLOCKS",
    "build_mobilenet_like",
    "mobilenet_graph",
    "mobilenet_layer_shapes",
    "mobilenet_multiply_adds",
]
