"""Ground-truth annotations: per-frame labels and multi-frame events.

The paper's evaluation is event-centric: an *event* is a contiguous range of
frames during which the interesting state holds (e.g. a pedestrian is in the
crosswalk).  These containers convert between per-frame binary labels and
event ranges, and are shared by the synthetic datasets, the smoothing stage,
and the event-F1 metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EventAnnotation",
    "FrameLabels",
    "frame_labels_to_events",
    "events_to_frame_labels",
]


@dataclass(frozen=True)
class EventAnnotation:
    """A single event: frames ``[start, end)`` are positive.

    ``end`` is exclusive, so ``length == end - start``.
    """

    start: int
    end: int
    label: str = "event"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.end <= self.start:
            raise ValueError(f"end ({self.end}) must be greater than start ({self.start})")

    @property
    def length(self) -> int:
        """Number of frames in the event."""
        return self.end - self.start

    def frames(self) -> range:
        """Range of frame indices covered by the event."""
        return range(self.start, self.end)

    def contains(self, frame_index: int) -> bool:
        """Whether ``frame_index`` falls inside the event."""
        return self.start <= frame_index < self.end

    def overlap(self, other: "EventAnnotation") -> int:
        """Number of frames shared with ``other``."""
        return max(0, min(self.end, other.end) - max(self.start, other.start))


class FrameLabels:
    """Per-frame binary ground truth for one task over one stream."""

    def __init__(self, labels: Sequence[int] | np.ndarray, task: str = "task") -> None:
        arr = np.asarray(labels)
        if arr.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("labels must be binary (0 or 1)")
        self.labels = arr.astype(np.int8)
        self.task = task

    def __len__(self) -> int:
        return int(self.labels.size)

    def __getitem__(self, index: int) -> int:
        return int(self.labels[index])

    @property
    def num_positive(self) -> int:
        """Number of positive (event) frames."""
        return int(self.labels.sum())

    def events(self) -> list[EventAnnotation]:
        """Contiguous positive runs as :class:`EventAnnotation` objects."""
        return frame_labels_to_events(self.labels, label=self.task)


def frame_labels_to_events(
    labels: Sequence[int] | np.ndarray, label: str = "event"
) -> list[EventAnnotation]:
    """Convert a binary per-frame label sequence to contiguous event ranges."""
    arr = np.asarray(labels).astype(bool)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if arr.size == 0:
        return []
    padded = np.concatenate(([False], arr, [False]))
    diffs = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diffs == 1)
    ends = np.flatnonzero(diffs == -1)
    return [EventAnnotation(int(s), int(e), label=label) for s, e in zip(starts, ends)]


def events_to_frame_labels(events: Iterable[EventAnnotation], num_frames: int) -> np.ndarray:
    """Convert event ranges to a binary per-frame label array of length ``num_frames``."""
    if num_frames < 0:
        raise ValueError("num_frames must be non-negative")
    labels = np.zeros(num_frames, dtype=np.int8)
    for event in events:
        if event.start >= num_frames:
            continue
        labels[event.start : min(event.end, num_frames)] = 1
    return labels
