"""In-memory video streams.

An :class:`InMemoryVideoStream` is an ordered, indexable sequence of decoded
:class:`~repro.video.frame.Frame` objects with one resolution and a fixed
frame rate, held in memory, which is sufficient for the scaled-down
experiments in this repository.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.video.frame import Frame

__all__ = ["InMemoryVideoStream"]


class InMemoryVideoStream:
    """Ordered frames held in memory, with one resolution and a fixed frame rate."""

    def __init__(self, frames: Sequence[Frame], frame_rate: float) -> None:
        if not frames:
            raise ValueError("InMemoryVideoStream requires at least one frame")
        first = frames[0]
        if first.width <= 0 or first.height <= 0:
            raise ValueError("width and height must be positive")
        if not 0.0 < frame_rate < math.inf:  # written so that a NaN fails it
            raise ValueError("frame_rate must be positive and finite")
        self.width = first.width
        self.height = first.height
        self.frame_rate = float(frame_rate)
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
        """Build a stream from raw pixel arrays, assigning indices in order."""
        frames = [Frame(index=i, pixels=np.asarray(a)) for i, a in enumerate(arrays)]
        return cls(frames, frame_rate)

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels."""
        return (self.width, self.height)

    @property
    def duration(self) -> float:
        """Stream duration in seconds."""
        return len(self) / self.frame_rate

    def raw_bits_per_second(self, bits_per_pixel: int = 24) -> float:
        """Uncompressed data rate of this stream (paper quotes ~1.5 Gb/s for 1080p30)."""
        return self.width * self.height * bits_per_pixel * self.frame_rate

    def __len__(self) -> int:
        return len(self._frames)

    def frame(self, index: int) -> Frame:
        """The frame at ``index``."""
        if not 0 <= index < len(self._frames):
            raise IndexError(f"Frame index {index} out of range [0, {len(self._frames)})")
        return self._frames[index]

    def __getitem__(self, index: int) -> Frame:
        return self.frame(index)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames)
