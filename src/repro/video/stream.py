"""Video stream abstractions.

A :class:`VideoStream` is an ordered, indexable source of
:class:`~repro.video.frame.Frame` objects with a fixed resolution and frame
rate.  :class:`InMemoryVideoStream` holds decoded frames in memory, which is
sufficient for the scaled-down experiments in this repository; the interface
is deliberately minimal so a disk- or camera-backed stream can slot in.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

import numpy as np

from repro.video.frame import Frame

__all__ = ["VideoStream", "InMemoryVideoStream"]


class VideoStream(ABC):
    """Ordered sequence of frames with fixed resolution and frame rate."""

    def __init__(self, width: int, height: int, frame_rate: float) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("width and height must be positive")
        if not 0.0 < frame_rate < math.inf:  # written so that a NaN fails it
            raise ValueError("frame_rate must be positive and finite")
        self.width = int(width)
        self.height = int(height)
        self.frame_rate = float(frame_rate)

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels."""
        return (self.width, self.height)

    @abstractmethod
    def __len__(self) -> int:
        """Number of frames in the stream."""

    @abstractmethod
    def frame(self, index: int) -> Frame:
        """Return the frame at ``index``."""

    def __getitem__(self, index: int) -> Frame:
        return self.frame(index)

    def __iter__(self) -> Iterator[Frame]:
        for i in range(len(self)):
            yield self.frame(i)

    @property
    def duration(self) -> float:
        """Stream duration in seconds."""
        return len(self) / self.frame_rate

    def raw_bits_per_second(self, bits_per_pixel: int = 24) -> float:
        """Uncompressed data rate of this stream (paper quotes ~1.5 Gb/s for 1080p30)."""
        return self.width * self.height * bits_per_pixel * self.frame_rate


class InMemoryVideoStream(VideoStream):
    """A stream backed by a list of frames held in memory."""

    def __init__(self, frames: Sequence[Frame], frame_rate: float) -> None:
        if not frames:
            raise ValueError("InMemoryVideoStream requires at least one frame")
        first = frames[0]
        super().__init__(first.width, first.height, frame_rate)
        for f in frames:
            if (f.height, f.width) != (self.height, self.width):
                raise ValueError(
                    "All frames in a stream must share one resolution; "
                    f"frame {f.index} is {f.width}x{f.height}, expected "
                    f"{self.width}x{self.height}"
                )
        self._frames = list(frames)

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[np.ndarray], frame_rate: float
    ) -> "InMemoryVideoStream":
        """Build a stream from raw pixel arrays, assigning indices and timestamps."""
        if not 0.0 < frame_rate < math.inf:  # checked before the timestamps divide by it
            raise ValueError("frame_rate must be positive and finite")
        frames = [
            Frame(index=i, timestamp=i / frame_rate, pixels=np.asarray(a))
            for i, a in enumerate(arrays)
        ]
        return cls(frames, frame_rate)

    def __len__(self) -> int:
        return len(self._frames)

    def frame(self, index: int) -> Frame:
        if not 0 <= index < len(self._frames):
            raise IndexError(f"Frame index {index} out of range [0, {len(self._frames)})")
        return self._frames[index]
