"""Shared experiment infrastructure.

:class:`ExperimentContext` owns everything the accuracy experiments
(Figures 4 and 7) need for one dataset: the base DNN and feature extractor
at the dataset's (scaled) resolution, cached per-split feature maps, trained
microclassifiers and discrete classifiers, and event-level evaluation.

The executable experiments run at a reduced spatial scale (see DESIGN.md's
scale-down policy); the base-DNN tap layer for each microclassifier is
chosen with the paper's own layer-selection heuristic applied to the scaled
data, while paper-scale costs are always reported through
:class:`repro.perf.cost_model.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.baselines.discrete_classifier import DiscreteClassifier, DiscreteClassifierConfig
from repro.core.architectures import build_microclassifier
from repro.core.layer_selection import select_input_layer
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.smoothing import KVotingSmoother
from repro.core.training import TrainableClassifier, TrainingConfig, fit_and_calibrate, score_classifier
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor, FeatureMapCrop
from repro.metrics.event_metrics import EventF1Breakdown, event_f1_score
from repro.video.datasets import SyntheticDataset
from repro.video.stream import VideoStream

__all__ = ["TrainedClassifier", "ExperimentContext"]

# Candidate tap layers offered to the layer-selection heuristic, ordered from
# shallow (fine spatial detail) to deep (more semantic).
_CANDIDATE_TAPS = ["conv2_1/sep", "conv2_2/sep", "conv3_2/sep", "conv4_2/sep", "conv5_6/sep"]

# Training used when a caller passes none: six epochs on the train split.
_DEFAULT_TRAINING = partial(TrainingConfig, epochs=6.0, batch_size=16, learning_rate=2e-3)

# Target-object height as a fraction of the frame height, read by the
# layer-selection heuristic.
_OBJECT_HEIGHT_FRACTION = 0.07


@dataclass
class TrainedClassifier:
    """A trained classifier plus its evaluation on the test split."""

    name: str
    kind: str
    classifier: object
    breakdown: EventF1Breakdown
    smoothed: np.ndarray

    @property
    def event_f1(self) -> float:
        """Event F1 score on the test split."""
        return self.breakdown.f1


class ExperimentContext:
    """Everything needed to train and evaluate classifiers on one dataset."""

    def __init__(self, dataset: SyntheticDataset, alpha: float = 0.25, seed: int = 0) -> None:
        self.dataset = dataset
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.smoother = KVotingSmoother()  # the paper's N=5, K=2
        width, height = dataset.spec.resolution
        self.frame_shape = (height, width, 3)
        self.rng = np.random.default_rng(seed)
        self.base_dnn = build_mobilenet_like(self.frame_shape, alpha=alpha, rng=self.rng)
        object_height = max(4, int(round(_OBJECT_HEIGHT_FRACTION * height)))
        layer_shapes = {
            name: shape
            for name, shape in self.base_dnn.layer_output_shapes().items()
            if name in _CANDIDATE_TAPS
        }
        # The paper's heuristic, applied to the scaled data: every
        # microclassifier taps the layer whose spatial reduction matches the
        # target object size.  (At paper scale this resolves to conv4_2/sep
        # and conv5_6/sep; at 1/8 scale the objects are 1/8 as tall, so the
        # heuristic selects a proportionally shallower layer.)
        self.tap = select_input_layer(height, object_height, layer_shapes)
        self.extractor = FeatureExtractor(self.base_dnn, [self.tap], cache_size=8)
        self._feature_cache: dict[int, np.ndarray] = {}

    # -- feature collection -------------------------------------------------
    def crop(self) -> FeatureMapCrop:
        """The dataset task's rectangular crop as a feature-map crop."""
        x0, y0, x1, y1 = self.dataset.spec.crop
        return FeatureMapCrop(x0, y0, x1, y1)

    def feature_maps(self, stream: VideoStream) -> np.ndarray:
        """All frames' feature maps at the tap (cached per stream).

        The base DNN runs once per frame and the maps are cached as float32,
        so training several classifiers on the same dataset never repeats
        feature extraction.
        """
        cached = self._feature_cache.get(id(stream))
        if cached is None:
            cached = self._feature_cache[id(stream)] = np.stack(
                [
                    self.extractor.extract_pixels(frame.pixels)[self.tap].astype(np.float32)
                    for frame in stream
                ],
                axis=0,
            )
        return cached

    def cropped_feature_maps(self, stream: VideoStream, crop: FeatureMapCrop | None) -> np.ndarray:
        """Feature maps at the tap, cropped to the task region if requested."""
        maps = self.feature_maps(stream)
        if crop is None:
            return maps
        height, width = self.frame_shape[:2]
        y0, y1, x0, x1 = crop.to_feature_coords((height, width), maps.shape[1:3])
        return maps[:, y0:y1, x0:x1, :]

    def pixels(self, stream: VideoStream) -> np.ndarray:
        """Raw pixels of every frame as one ``(N, H, W, 3)`` batch."""
        return np.stack([frame.pixels for frame in stream], axis=0).astype(np.float64)

    # -- training -----------------------------------------------------------
    def train_microclassifier(
        self, architecture: str, training: TrainingConfig | None = None
    ) -> TrainedClassifier:
        """Train one microclassifier on the train split and evaluate it on the test split.

        Every architecture but ``full_frame`` reads the task's crop.  Training
        also sees the horizontally mirrored feature maps (the scenes are
        left/right symmetric for both tasks), which compensates for the scaled
        datasets containing far fewer training events than the paper's
        six-hour videos.  The decision threshold is the one that maximizes
        event F1 on the *training* split.
        """
        crop = None if architecture == "full_frame" else self.crop()
        config = MicroClassifierConfig(
            name=f"{self.dataset.spec.name}_{architecture}", input_layer=self.tap, crop=crop
        )
        train_maps = self.cropped_feature_maps(self.dataset.train_stream, crop)
        mc = build_microclassifier(
            architecture, config, train_maps.shape[1:], rng=np.random.default_rng(self.seed + 1)
        )
        fit_and_calibrate(
            mc,
            train_maps,
            self.dataset.train_labels.labels,
            training or _DEFAULT_TRAINING(seed=self.seed),
            augment_flip=True,
        )
        test_maps = self.cropped_feature_maps(self.dataset.test_stream, crop)
        return self._evaluate(f"microclassifier/{architecture}", mc, test_maps)

    def train_discrete_classifier(
        self,
        config: DiscreteClassifierConfig,
        use_crop: bool = False,
        training: TrainingConfig | None = None,
    ) -> TrainedClassifier:
        """Train a NoScope-style discrete classifier on raw pixels.

        The same flip augmentation and threshold calibration as
        :meth:`train_microclassifier` apply, so the MC/DC comparison in
        Figure 7 is apples to apples.
        """
        train_pixels = self.pixels(self.dataset.train_stream)
        test_pixels = self.pixels(self.dataset.test_stream)
        if use_crop:
            x0, y0, x1, y1 = self.dataset.spec.crop
            train_pixels = train_pixels[:, y0:y1, x0:x1, :]
            test_pixels = test_pixels[:, y0:y1, x0:x1, :]
        dc = DiscreteClassifier(config)
        dc.build(train_pixels.shape[1:], rng=np.random.default_rng(self.seed + 2))
        fit_and_calibrate(
            dc,
            train_pixels,
            self.dataset.train_labels.labels,
            training or _DEFAULT_TRAINING(seed=self.seed),
            augment_flip=True,
        )
        return self._evaluate("discrete_classifier", dc, test_pixels)

    # -- evaluation ----------------------------------------------------------
    def _evaluate(self, kind: str, classifier: TrainableClassifier, test_inputs: np.ndarray) -> TrainedClassifier:
        """Score a trained classifier on the test split at its configured threshold."""
        probabilities = score_classifier(classifier, test_inputs)
        smoothed = self.smoother.smooth((probabilities >= classifier.config.threshold).astype(np.int8))
        return TrainedClassifier(
            name=classifier.name,
            kind=kind,
            classifier=classifier,
            breakdown=event_f1_score(self.dataset.test_labels.labels, smoothed, return_breakdown=True),
            smoothed=smoothed,
        )

    def evaluate_predictions(self, probabilities: np.ndarray, threshold: float = 0.5) -> EventF1Breakdown:
        """Smooth probabilities at ``threshold`` and score against test labels."""
        decisions = (np.asarray(probabilities) >= threshold).astype(np.int8)
        smoothed = self.smoother.smooth(decisions)
        return event_f1_score(self.dataset.test_labels.labels, smoothed, return_breakdown=True)
