"""Event-centric accuracy metrics (paper Section 4.2).

FilterForward is evaluated with an *event F1 score*: the harmonic mean of

* standard per-frame **precision** (fraction of predicted-positive frames
  that are truly positive — this is what determines how much uplink
  bandwidth is wasted), and
* a modified, event-aware **recall** adapted from Lee et al. (2018).  For a
  ground-truth event *i* with frame range ``R_i`` and predictions ``P``:

  - ``Existence_i`` is 1 if any frame of the event is detected, else 0;
  - ``Overlap_i`` is the fraction of the event's frames that are detected;
  - ``EventRecall_i = alpha * Existence_i + beta * Overlap_i``
    with ``alpha = 0.9`` and ``beta = 0.1`` (missing an event entirely is
    much worse than missing some of its frames).

Event recall is averaged over ground-truth events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.video.annotations import EventAnnotation, frame_labels_to_events

__all__ = [
    "existence_score",
    "overlap_score",
    "event_recall",
    "frame_precision",
    "event_f1_score",
    "EventF1Breakdown",
]

_ALPHA, _BETA = 0.9, 0.1  # existence and overlap weights of event recall


def _as_binary(labels: Sequence[int] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr.astype(bool)


def existence_score(event: EventAnnotation, predictions: np.ndarray) -> float:
    """1.0 if any frame of ``event`` is predicted positive, else 0.0."""
    predictions = _as_binary(predictions, "predictions")
    end = min(event.end, predictions.size)
    if end <= event.start:
        return 0.0
    return float(predictions[event.start : end].any())


def overlap_score(event: EventAnnotation, predictions: np.ndarray) -> float:
    """Fraction of ``event``'s frames that are predicted positive."""
    predictions = _as_binary(predictions, "predictions")
    end = min(event.end, predictions.size)
    if end <= event.start:
        return 0.0
    detected = float(predictions[event.start : end].sum())
    return detected / event.length


def event_recall(
    ground_truth: Sequence[int] | np.ndarray, predictions: Sequence[int] | np.ndarray
) -> float:
    """Mean event recall over all ground-truth events (``alpha = 0.9``, ``beta = 0.1``).

    Returns 1.0 when there are no ground-truth events (nothing to miss).
    """
    truth = _as_binary(ground_truth, "ground_truth")
    predictions = _as_binary(predictions, "predictions")
    if truth.size != predictions.size:
        raise ValueError(
            f"ground_truth and predictions must have equal length "
            f"({truth.size} vs {predictions.size})"
        )
    events = frame_labels_to_events(truth)
    if not events:
        return 1.0
    recalls = [
        _ALPHA * existence_score(event, predictions) + _BETA * overlap_score(event, predictions)
        for event in events
    ]
    return float(np.mean(recalls))


def frame_precision(
    ground_truth: Sequence[int] | np.ndarray, predictions: Sequence[int] | np.ndarray
) -> float:
    """Standard per-frame precision: correctly detected / total detected.

    Returns 1.0 when nothing is predicted positive (no bandwidth is wasted).
    """
    truth = _as_binary(ground_truth, "ground_truth")
    predictions = _as_binary(predictions, "predictions")
    if truth.size != predictions.size:
        raise ValueError(
            f"ground_truth and predictions must have equal length "
            f"({truth.size} vs {predictions.size})"
        )
    detected = predictions.sum()
    if detected == 0:
        return 1.0
    return float((truth & predictions).sum() / detected)


@dataclass(frozen=True)
class EventF1Breakdown:
    """Event F1 plus its precision/recall components."""

    f1: float
    precision: float
    recall: float
    num_events: int


def event_f1_score(
    ground_truth: Sequence[int] | np.ndarray,
    predictions: Sequence[int] | np.ndarray,
    return_breakdown: bool = False,
) -> float | EventF1Breakdown:
    """Event F1: harmonic mean of frame precision and event recall."""
    truth = _as_binary(ground_truth, "ground_truth")
    preds = _as_binary(predictions, "predictions")
    precision = frame_precision(truth, preds)
    recall = event_recall(truth, preds)
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    if not return_breakdown:
        return float(f1)
    return EventF1Breakdown(
        f1=float(f1),
        precision=float(precision),
        recall=float(recall),
        num_events=len(frame_labels_to_events(truth)),
    )
