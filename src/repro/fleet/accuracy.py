"""The fleet accuracy plane: trained per-camera microclassifiers + event F1.

PRs 1-3 drove every fleet and control decision off *proxy* signals — match
density from randomly initialized microclassifiers, service-time models —
so the system could report how many frames it shed but never what that
shedding *cost in accuracy*.  This module closes that gap with the paper's
own evaluation loop, at fleet scale:

* :func:`camera_seed_ladder` — a deterministic per-camera seed ladder: each
  camera derives independent seeds for its training scene, its weight
  initialization, and its training shuffle from ``(camera_id, spec.seed)``,
  so fleets retrain bit-identically across runs and processes.
* :class:`TrainedMicroClassifiers` — trains one real
  :class:`~repro.core.architectures.LocalizedBinaryClassifierMC` (or any
  Figure-2 architecture) per camera on that camera's *own* synthetic
  labelled frames, with per-camera threshold calibration, behind an
  in-process cache keyed by camera spec.  Its :meth:`pipeline_factory`
  plugs directly into :class:`~repro.fleet.runtime.FleetRuntime`: every
  session follows the same recipe as
  :func:`~repro.fleet.runtime.default_pipeline_factory` (one shared base
  DNN per resolution, the FilterForward premise) and only the trained head
  differs.
* :class:`CameraAccuracy` / :class:`FleetAccuracy` — event-level scoring of
  a fleet run against ground truth: every generated frame has a known label
  (:meth:`~repro.fleet.camera.CameraFeed.labels`), every dropped or
  rejected frame counts as a predicted negative, and
  :func:`~repro.metrics.event_metrics.event_f1_score` turns the per-camera
  prediction/truth pair into event F1, precision, and recall (paper
  Section 4.2).  Cluster-level merging ORs the prediction vectors of a
  camera's hosting stints, so migration mid-run is scored correctly.
* :func:`evaluate_offline` — the no-fleet reference: the same trained
  pipelines replayed over every frame with no queueing, the upper bound an
  F1-vs-drop-rate curve is anchored to.

With :attr:`FleetConfig.accuracy_task
<repro.fleet.runtime.FleetConfig.accuracy_task>` set, the runtime threads
the truth labels through arrival and completion accounting and attaches a
:class:`FleetAccuracy` to its report — turning "queue metrics moved" into
"accuracy moved" for every scheduling and control experiment on top.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.architectures import ARCHITECTURES
from repro.core.microclassifier import MicroClassifier
from repro.core.streaming import StreamingPipeline
from repro.core.training import TrainingConfig, fit_and_calibrate
from repro.fleet.camera import CameraFeed, CameraSpec
from repro.metrics.event_metrics import EventF1Breakdown, event_f1_score
from repro.obs.slo import _merged_per_camera
from repro.video.synthetic import (
    SurveillanceSceneGenerator,
    TASK_PEDESTRIAN,
    TASK_PEOPLE_WITH_RED,
)

__all__ = [
    "ACCURACY_TASKS",
    "camera_seed_ladder",
    "predictions_from_result",
    "AccuracyConfig",
    "TrainedMicroClassifiers",
    "CameraAccuracy",
    "FleetAccuracy",
    "evaluate_offline",
]

ACCURACY_TASKS = (TASK_PEDESTRIAN, TASK_PEOPLE_WITH_RED)

# Rungs of the per-camera seed ladder; each purpose gets an independent,
# reproducible stream so changing e.g. the training shuffle cannot silently
# move the training scene.
_SEED_PURPOSES = ("train_scene", "weights", "training")


def camera_seed_ladder(spec: CameraSpec, purpose: str) -> int:
    """Deterministic derived seed for one camera and one purpose.

    The ladder hashes ``(camera_id, spec.seed, purpose)`` through a 64-bit
    SHA-256 digest so that (a) two cameras get distinct seeds even when
    their spec seeds collide (64 bits makes accidental collisions negligible
    at any realistic fleet size) and (b) the same camera gets independent
    streams per purpose.  The token ends in ``:0``, the fleet-wide base seed
    every ladder has been hashed with.
    """
    if purpose not in _SEED_PURPOSES:
        raise ValueError(f"Unknown seed purpose {purpose!r}; expected one of {_SEED_PURPOSES}")
    token = f"{spec.camera_id}:{spec.seed}:{purpose}:0".encode()
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


@dataclass(frozen=True)
class AccuracyConfig:
    """What an application trains: its task, its head, and how long.

    ``train_frames`` sizes each camera's labelled training clip — rendered
    from the same scenario and resolution as the live feed but under the
    seed ladder's ``train_scene`` rung, so training and live content are
    drawn from the same distribution without overlapping.  Everything
    else about a camera's session is the fleet's recipe
    (:func:`~repro.fleet.runtime.default_pipeline_factory`).
    """

    task: str = TASK_PEDESTRIAN
    architecture: str = "localized"  # a key of repro.core.architectures.ARCHITECTURES
    train_frames: int = 96
    epochs: float = 3.0

    def __post_init__(self) -> None:
        if self.task not in ACCURACY_TASKS:
            raise ValueError(f"Unknown task {self.task!r}; expected one of {ACCURACY_TASKS}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"Unknown architecture {self.architecture!r}; expected one of "
                f"{sorted(ARCHITECTURES)}"
            )
        if self.train_frames < 8:
            raise ValueError("train_frames must be at least 8")
        if not self.epochs > 0:  # written so that a NaN fails it
            raise ValueError("epochs must be positive")


class TrainedMicroClassifiers:
    """Per-camera trained-model cache and fleet pipeline factory.

    One instance owns one fleet session recipe — one base DNN per distinct
    camera resolution, shared by every camera at that resolution — and one
    trained microclassifier per camera spec.  Training happens lazily on
    first use and is cached for the life of the process, so a benchmark
    sweeping many shedding regimes over the same fleet trains each camera
    exactly once — and a camera migrating between nodes keeps its trained
    model.
    """

    def __init__(self, config: AccuracyConfig | None = None) -> None:
        # Imported here: the runtime imports this module's scoring types.
        from repro.fleet.runtime import _SessionRecipe

        self.config = config or AccuracyConfig()
        self._recipe = _SessionRecipe()
        self._models: dict[CameraSpec, MicroClassifier] = {}
        self.cache_hits = 0

    # -- training ------------------------------------------------------------
    def trained(self, spec: CameraSpec) -> MicroClassifier:
        """The trained microclassifier for ``spec`` (trained on first request, cached).

        Its calibrated threshold is ``config.threshold``.
        """
        cached = self._models.get(spec)
        if cached is not None:
            self.cache_hits += 1
            return cached
        model = self._train(spec)
        self._models[spec] = model
        return model

    def _training_spec(self, spec: CameraSpec) -> CameraSpec:
        """The labelled training clip's spec: same camera, disjoint seed rung."""
        return replace(
            spec,
            seed=camera_seed_ladder(spec, "train_scene"),
            num_frames=self.config.train_frames,
            start_time=0.0,
        )

    def _train(self, spec: CameraSpec) -> MicroClassifier:
        config = self.config
        seeds = {purpose: camera_seed_ladder(spec, purpose) for purpose in _SEED_PURPOSES}
        train_spec = self._training_spec(spec)
        generator = SurveillanceSceneGenerator(train_spec.scene_config())
        objects = generator.spawn_objects()
        stream = generator.render_stream(objects)
        labels = generator.labels_for_task(objects, config.task).labels

        extractor = self._recipe.extractor(spec)
        maps = np.stack(
            [
                extractor.extract_pixels(frame.pixels)[self._recipe.TAP].astype(np.float32)
                for frame in stream
            ],
            axis=0,
        )
        mc = self._recipe.head(
            config.architecture,
            f"{spec.camera_id}/trained",
            extractor,
            np.random.default_rng(seeds["weights"]),
        )
        fit_and_calibrate(
            mc,
            maps,
            labels,
            TrainingConfig(epochs=config.epochs, learning_rate=2e-3, seed=seeds["training"]),
        )
        return mc

    # -- fleet integration ----------------------------------------------------
    def pipeline_factory(self):
        """A :class:`~repro.fleet.runtime.FleetRuntime` pipeline factory.

        Each camera gets a fresh :class:`StreamingPipeline` of the fleet
        recipe wrapping its cached trained microclassifier.  Inference state
        (a windowed MC's ring of reductions included) lives on the session,
        not the MC, so one trained model safely backs any number of pipeline
        sessions (reruns, migration stints).
        """

        def factory(spec: CameraSpec) -> StreamingPipeline:
            return self._recipe.session(spec, self._recipe.extractor(spec), self.trained(spec))

        return factory


def predictions_from_result(
    result, source_indices: Sequence[int], num_frames: int
) -> np.ndarray:
    """Per-source-frame prediction vector from one pipeline session's result.

    Source frame *i* predicts positive iff any microclassifier's smoothed
    decision matched a pushed frame whose original index was *i* (the
    session's ``source_indices`` maps dense pushed positions back to source
    frames, which gap under load shedding).  Shared by the fleet runtime's
    stint scoring and :func:`evaluate_offline`, so the two can never
    diverge on position/source-index semantics.
    """
    predictions = np.zeros(num_frames, dtype=np.int8)
    for mc_result in result.per_mc.values():
        for position in mc_result.matched_frame_indices:
            predictions[source_indices[int(position)]] = 1
    return predictions


@dataclass(eq=False)
class CameraAccuracy:
    """One camera's event-level accuracy over one fleet run.

    ``predictions[i]`` is 1 iff source frame *i* was scored and smoothed to
    a match by any of the camera's microclassifiers — a frame shed by the
    queues, admission control, or a migration blackout is a predicted
    negative, which is exactly the accuracy cost of shedding it.
    """

    camera_id: str
    scenario: str
    task: str
    truth: np.ndarray = field(repr=False)
    predictions: np.ndarray = field(repr=False)
    frames_generated: int = 0
    frames_scored: int = 0

    def __post_init__(self) -> None:
        self.truth = np.asarray(self.truth).astype(np.int8)
        self.predictions = np.asarray(self.predictions).astype(np.int8)
        if self.truth.shape != self.predictions.shape:
            raise ValueError(
                f"truth and predictions disagree on length: "
                f"{self.truth.shape} vs {self.predictions.shape}"
            )
        self._breakdown = event_f1_score(self.truth, self.predictions, return_breakdown=True)

    @property
    def breakdown(self) -> EventF1Breakdown:
        """Event F1 plus precision/recall components."""
        return self._breakdown

    @property
    def f1(self) -> float:
        """Event F1 (harmonic mean of frame precision and event recall)."""
        return self._breakdown.f1

    @property
    def precision(self) -> float:
        """Per-frame precision of the uploaded (predicted-positive) frames."""
        return self._breakdown.precision

    @property
    def recall(self) -> float:
        """Existence-weighted event recall."""
        return self._breakdown.recall

    @property
    def num_events(self) -> int:
        """Ground-truth events in this camera's feed."""
        return self._breakdown.num_events

    @property
    def drop_rate(self) -> float:
        """Fraction of generated frames never scored."""
        if self.frames_generated == 0:
            return 0.0
        return 1.0 - self.frames_scored / self.frames_generated

    def merged_with(self, other: "CameraAccuracy") -> "CameraAccuracy":
        """Combine two hosting stints of the same camera (migration).

        Truth is a property of the feed and must agree; predictions OR —
        each stint scored a disjoint slice of the feed.
        """
        if self.camera_id != other.camera_id or self.task != other.task:
            raise ValueError("merged_with() requires the same camera and task")
        if not np.array_equal(self.truth, other.truth):
            raise ValueError(f"truth mismatch across stints of {self.camera_id!r}")
        return CameraAccuracy(
            camera_id=self.camera_id,
            scenario=self.scenario,
            task=self.task,
            truth=self.truth,
            predictions=np.maximum(self.predictions, other.predictions),
            frames_generated=self.frames_generated + other.frames_generated,
            frames_scored=self.frames_scored + other.frames_scored,
        )


@dataclass(eq=False)
class FleetAccuracy:
    """Event-level accuracy of a whole fleet (or cluster) run."""

    task: str
    cameras: dict[str, CameraAccuracy]

    @property
    def num_cameras(self) -> int:
        """Cameras scored."""
        return len(self.cameras)

    @property
    def macro_f1(self) -> float:
        """Unweighted mean event F1 across cameras (the headline number)."""
        if not self.cameras:
            return 0.0
        return float(np.mean([c.f1 for c in self.cameras.values()]))

    @property
    def macro_precision(self) -> float:
        """Unweighted mean frame precision across cameras."""
        if not self.cameras:
            return 0.0
        return float(np.mean([c.precision for c in self.cameras.values()]))

    @property
    def macro_recall(self) -> float:
        """Unweighted mean event recall across cameras."""
        if not self.cameras:
            return 0.0
        return float(np.mean([c.recall for c in self.cameras.values()]))

    @property
    def num_events(self) -> int:
        """Ground-truth events across the fleet."""
        return sum(c.num_events for c in self.cameras.values())

    @property
    def drop_rate(self) -> float:
        """Fraction of generated frames never scored, fleet-wide."""
        generated = sum(c.frames_generated for c in self.cameras.values())
        scored = sum(c.frames_scored for c in self.cameras.values())
        if generated == 0:
            return 0.0
        return 1.0 - scored / generated

    def worst_camera(self) -> CameraAccuracy | None:
        """The camera with the lowest event F1 (None for an empty fleet)."""
        if not self.cameras:
            return None
        return min(self.cameras.values(), key=lambda c: (c.f1, c.camera_id))

    def summary(self) -> str:
        """A one-line human-readable accuracy summary."""
        worst = self.worst_camera()
        worst_part = f" | worst {worst.camera_id} F1 {worst.f1:.3f}" if worst else ""
        return (
            f"accuracy[{self.task}]: macro-F1 {self.macro_f1:.3f} "
            f"(P {self.macro_precision:.3f} / R {self.macro_recall:.3f}) over "
            f"{self.num_cameras} cameras, {self.num_events} events, "
            f"drop rate {self.drop_rate:.1%}{worst_part}"
        )

    @classmethod
    def merged(cls, parts: Iterable["FleetAccuracy | None"]) -> "FleetAccuracy | None":
        """Merge per-node accuracies into one cluster view (OR per camera)."""
        parts = [part for part in parts if part is not None]
        if not parts:
            return None
        task = parts[0].task
        for part in parts[1:]:
            if part.task != task:
                raise ValueError(f"Cannot merge accuracies of tasks {task!r} and {part.task!r}")
        cameras = _merged_per_camera(c for part in parts for c in part.cameras.values())
        return cls(task=task, cameras={camera.camera_id: camera for camera in cameras})


def evaluate_offline(
    cameras: Sequence[CameraSpec],
    models: TrainedMicroClassifiers,
) -> FleetAccuracy:
    """Score the trained pipelines with *no* fleet between them and the frames.

    Every frame of every camera is pushed in order through a fresh
    :class:`StreamingPipeline` — no queues, no admission, no drops — which
    is the offline upper bound the fleet's F1-vs-drop-rate curves are
    anchored to (a no-shedding fleet run reproduces it exactly).
    """
    factory = models.pipeline_factory()
    task = models.config.task
    scored: dict[str, CameraAccuracy] = {}
    for spec in cameras:
        feed = CameraFeed(spec)
        pipeline = factory(spec)
        result = pipeline.process_stream(feed.stream)
        predictions = predictions_from_result(
            result, pipeline.source_indices, spec.num_frames
        )
        scored[spec.camera_id] = CameraAccuracy(
            camera_id=spec.camera_id,
            scenario=spec.scenario,
            task=task,
            truth=feed.labels(task).labels,
            predictions=predictions,
            frames_generated=spec.num_frames,
            frames_scored=spec.num_frames,
        )
    return FleetAccuracy(task=task, cameras=dict(sorted(scored.items())))
