"""The edge node's local video archive.

"In the background, edge nodes record the original video stream to disk so
that datacenter applications can demand-fetch additional video (e.g.,
context segments surrounding a matched segment) from the edge nodes' local
storage." (paper Section 3.2).  :class:`FrameArchive` models that archive:
frames are retained up to a storage budget (oldest evicted first) and can be
fetched back by index range.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.video.frame import Frame

__all__ = ["ArchivedSegment", "FrameArchive"]


@dataclass(frozen=True)
class ArchivedSegment:
    """The result of a demand-fetch from the archive."""

    start: int
    end: int
    frames: tuple[Frame, ...]

    @property
    def missing(self) -> int:
        """Number of requested frames that had already been evicted."""
        return (self.end - self.start) - len(self.frames)


class FrameArchive:
    """A bounded archive of decoded frames, evicting oldest-first.

    Parameters
    ----------
    capacity_bytes:
        Storage budget.  Each archived frame is charged its raw pixel size;
        a real deployment would store H.264, so this is a conservative bound.
    """

    def __init__(self, capacity_bytes: float = 4 * 1024**3) -> None:
        if not capacity_bytes > 0:  # written so that a NaN fails it
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self._bytes_used = 0.0

    @staticmethod
    def _frame_bytes(frame: Frame) -> float:
        return float(frame.pixels.nbytes)

    def store(self, frame: Frame) -> None:
        """Archive one frame, evicting the oldest frames if over budget."""
        size = self._frame_bytes(frame)
        if size > self.capacity_bytes:
            raise ValueError("A single frame exceeds the archive capacity")
        if frame.index in self._frames:
            self._bytes_used -= self._frame_bytes(self._frames.pop(frame.index))
        self._frames[frame.index] = frame
        self._bytes_used += size
        while self._bytes_used > self.capacity_bytes and self._frames:
            _, evicted = self._frames.popitem(last=False)
            self._bytes_used -= self._frame_bytes(evicted)

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, index: int) -> bool:
        return index in self._frames

    @property
    def bytes_used(self) -> float:
        """Current storage consumption in bytes."""
        return self._bytes_used

    @property
    def oldest_index(self) -> int | None:
        """Index of the oldest retained frame (None if empty)."""
        return next(iter(self._frames), None)

    def demand_fetch(self, start: int, end: int) -> ArchivedSegment:
        """Fetch the archived frames with indices in ``[start, end)``.

        Frames that have been evicted are simply absent from the result;
        callers can check :attr:`ArchivedSegment.missing`.
        """
        if end <= start:
            raise ValueError("end must be greater than start")
        frames = tuple(self._frames[i] for i in range(start, end) if i in self._frames)
        return ArchivedSegment(start=int(start), end=int(end), frames=frames)

    def fetch_event_context(self, event_start: int, event_end: int, context: int) -> ArchivedSegment:
        """Fetch an event's frames plus ``context`` frames on each side."""
        if context < 0:
            raise ValueError("context must be non-negative")
        return self.demand_fetch(max(0, event_start - context), event_end + context)
