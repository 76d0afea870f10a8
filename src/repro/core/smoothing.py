"""Per-frame classification smoothing (paper Section 3.5).

A microclassifier emits one binary decision per frame.  FilterForward
smooths these with **K-voting**: each frame's decision is replaced by
whether at least ``K`` of the ``N`` frames in a window centred on it are
positive.  The paper uses ``N = 5`` and ``K = 2``, chosen to aggressively
mask false negatives at the cost of some false positives; so does every
smoother here.  A transition detector then turns each contiguous positive run
into a unique event.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.video.annotations import frame_labels_to_events

__all__ = ["KVotingSmoother", "StreamingKVotingSmoother", "TransitionDetector"]

_WINDOW, _VOTES = 5, 2  # N and K
_HALF = _WINDOW // 2  # frames of the window before the one it smooths


class KVotingSmoother:
    """K-of-N vote over a sliding window of per-frame decisions (N = 5, K = 2)."""

    def smooth(self, decisions: np.ndarray) -> np.ndarray:
        """Smooth a binary decision sequence.

        Each output frame is positive iff at least 2 of the 5 frames centred
        on it (clamped at stream boundaries) are positive.
        """
        arr = np.asarray(decisions).astype(np.int64)
        if arr.ndim != 1:
            raise ValueError("decisions must be one-dimensional")
        n = arr.size
        if n == 0:
            return np.zeros(0, dtype=np.int8)
        # Prefix sums give each window's positive count in O(n).
        prefix = np.concatenate(([0], np.cumsum(arr)))
        starts = np.clip(np.arange(n) - _HALF, 0, n)
        ends = np.clip(np.arange(n) + _WINDOW - _HALF, 0, n)
        counts = prefix[ends] - prefix[starts]
        return (counts >= _VOTES).astype(np.int8)


class StreamingKVotingSmoother:
    """Online K-of-N smoother: identical output to :class:`KVotingSmoother`.

    Decisions arrive one at a time via :meth:`push`; each smoothed value is
    emitted as soon as its full (clamped) window is available, which is two
    decisions after the frame itself.  At end of stream, :meth:`flush` emits
    the remaining tail with the window clamped at the stream boundary, exactly
    as the batch smoother clamps at ``n``.  Only the last five decisions are
    buffered, so memory is O(1) regardless of stream length.
    """

    def __init__(self) -> None:
        self._buffer: deque[int] = deque()
        self._buffer_start = 0  # absolute index of _buffer[0]
        self._received = 0
        self._emitted = 0

    def push(self, decision: int) -> list[int]:
        """Ingest one decision; return the smoothed values it finalizes."""
        self._buffer.append(int(decision))
        self._received += 1
        return self._drain(final=False)

    def flush(self) -> list[int]:
        """Emit the smoothed values for the remaining tail of the stream."""
        return self._drain(final=True)

    def _drain(self, final: bool) -> list[int]:
        out: list[int] = []
        while self._emitted < self._received:
            i = self._emitted
            end = i + _WINDOW - _HALF  # smoothed[i] needs decisions [i - half, end)
            if not final and end > self._received:
                break
            end = min(end, self._received)
            start = max(0, i - _HALF)
            lo = start - self._buffer_start
            hi = end - self._buffer_start
            count = sum(list(self._buffer)[lo:hi])
            out.append(1 if count >= _VOTES else 0)
            self._emitted += 1
            # Decisions earlier than emitted - half can never be needed again.
            while self._buffer_start < self._emitted - _HALF:
                self._buffer.popleft()
                self._buffer_start += 1
        return out


class TransitionDetector:
    """Turns smoothed per-frame labels into events with unique, increasing IDs.

    Event IDs start at 1, are monotonically increasing *per
    microclassifier* and persist across calls, matching the paper's
    "MC-specific, monotonically increasing, unique ID" semantics for
    streaming operation.
    """

    def __init__(self) -> None:
        self._next_id = 1

    def allocate_event_id(self) -> int:
        """Consume and return the next event ID (for online event assembly)."""
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def detect(self, smoothed: np.ndarray, frame_offset: int = 0) -> list[tuple[int, int, int]]:
        """Detect events in a smoothed label sequence.

        Returns a list of ``(event_id, start_frame, end_frame)`` tuples with
        ``end_frame`` exclusive; ``frame_offset`` shifts indices so streaming
        chunks can be processed incrementally.
        """
        return [
            (self.allocate_event_id(), run.start + frame_offset, run.end + frame_offset)
            for run in frame_labels_to_events(smoothed)
        ]
