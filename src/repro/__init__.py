"""repro — a from-scratch reproduction of FilterForward.

FilterForward ("Scaling Video Analytics on Constrained Edge Nodes",
Canel et al., SysML/MLSys 2019) is an edge-to-cloud video filtering system:
a shared base DNN runs once per full-resolution frame, many lightweight
per-application microclassifiers consume its feature maps, per-frame
decisions are smoothed into events, and only event frames are re-encoded and
uploaded over a bandwidth-constrained uplink.

Top-level convenience imports cover the most common entry points; see the
subpackages for the full API:

* :mod:`repro.nn` — NumPy deep-learning framework,
* :mod:`repro.video` — frames, streams, synthetic datasets, codec simulator,
* :mod:`repro.features` — MobileNet-style base DNN and feature extractor,
* :mod:`repro.core` — microclassifiers, smoothing, events, the pipeline,
* :mod:`repro.baselines` — discrete classifiers,
* :mod:`repro.metrics` — event F1, bandwidth, throughput,
* :mod:`repro.perf` — cost, throughput, and memory models,
* :mod:`repro.edge` — uplink, archive, edge node, phased scheduling,
* :mod:`repro.experiments` — one module per paper table/figure,
* :mod:`repro.obs` — frame-lifecycle tracing, metrics timelines, SLOs.
"""

from repro.core import (
    FullFrameObjectDetectorMC,
    LocalizedBinaryClassifierMC,
    MicroClassifierConfig,
    PipelineConfig,
    StreamingPipeline,
    WindowedLocalizedBinaryClassifierMC,
    build_microclassifier,
    train_classifier,
)
from repro.features import FeatureExtractor, FeatureMapCrop, build_mobilenet_like
from repro.fleet import FleetConfig, FleetReport, FleetRuntime, generate_fleet
from repro.metrics import event_f1_score
from repro.video import (
    H264Simulator,
    make_jackson_like,
    make_roadway_like,
)

__version__ = "1.3.0"

__all__ = [
    "FeatureExtractor",
    "FeatureMapCrop",
    "FleetConfig",
    "FleetReport",
    "FleetRuntime",
    "FullFrameObjectDetectorMC",
    "H264Simulator",
    "LocalizedBinaryClassifierMC",
    "MicroClassifierConfig",
    "PipelineConfig",
    "StreamingPipeline",
    "WindowedLocalizedBinaryClassifierMC",
    "__version__",
    "build_microclassifier",
    "build_mobilenet_like",
    "event_f1_score",
    "generate_fleet",
    "make_jackson_like",
    "make_roadway_like",
    "train_classifier",
]
