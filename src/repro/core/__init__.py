"""FilterForward core: microclassifiers, event smoothing, and the edge pipeline.

This package implements the paper's primary contribution:

* :class:`~repro.core.microclassifier.MicroClassifier` — the per-application
  lightweight binary classifier API, operating on base-DNN feature maps;
* the three proposed architectures (Figure 2) in
  :mod:`repro.core.architectures`;
* per-frame-to-event smoothing (K-voting + transition detection,
  Section 3.5) in :mod:`repro.core.smoothing` and :mod:`repro.core.events`;
* offline microclassifier training (:mod:`repro.core.training`);
* the layer-selection heuristic (Section 3.4) in
  :mod:`repro.core.layer_selection`;
* :class:`~repro.core.streaming.StreamingPipeline`, which ties the feature
  extractor, many concurrent MCs, smoothing, re-encoding and upload
  accounting together frame by frame.
"""

from repro.core.batched import BatchedScorer
from repro.core.architectures import (
    FullFrameObjectDetectorMC,
    LocalizedBinaryClassifierMC,
    WindowedLocalizedBinaryClassifierMC,
    build_microclassifier,
)
from repro.core.events import Event, EventDetector, EventKey, EventRecord, SmoothedDecision
from repro.core.layer_selection import select_input_layer
from repro.core.microclassifier import MicroClassifier, MicroClassifierConfig
from repro.core.pipeline import PipelineConfig, PipelineResult
from repro.core.smoothing import KVotingSmoother, StreamingKVotingSmoother, TransitionDetector
from repro.core.streaming import StreamingPipeline, StreamUpdate
from repro.core.training import TrainingConfig, TrainingHistory, train_classifier

__all__ = [
    "BatchedScorer",
    "Event",
    "EventDetector",
    "EventKey",
    "EventRecord",
    "FullFrameObjectDetectorMC",
    "KVotingSmoother",
    "LocalizedBinaryClassifierMC",
    "MicroClassifier",
    "MicroClassifierConfig",
    "PipelineConfig",
    "PipelineResult",
    "SmoothedDecision",
    "StreamUpdate",
    "StreamingKVotingSmoother",
    "StreamingPipeline",
    "TrainingConfig",
    "TrainingHistory",
    "TransitionDetector",
    "WindowedLocalizedBinaryClassifierMC",
    "build_microclassifier",
    "select_input_layer",
    "train_classifier",
]
