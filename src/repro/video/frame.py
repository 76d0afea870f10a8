"""The :class:`Frame` container.

A frame carries decoded pixels (float32 RGB in ``[0, 1]``, HWC layout), its
position in the stream (its time is ``index / frame_rate``), and a metadata
dictionary.  FilterForward stores per-frame event
membership in the metadata (paper Section 3.5): a mapping from
microclassifier name to event ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Frame"]


@dataclass
class Frame:
    """A single decoded video frame.

    Attributes
    ----------
    index:
        Zero-based frame index within its stream.
    pixels:
        ``(height, width, 3)`` float32 RGB array with values in ``[0, 1]``.
    metadata:
        Free-form per-frame metadata.  FilterForward records event membership
        here under the ``"events"`` key as ``{mc_name: event_id}``.
    """

    index: int
    pixels: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float32)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError(
                f"Frame pixels must have shape (H, W, 3); got {pixels.shape}"
            )
        self.pixels = pixels

    @property
    def height(self) -> int:
        """Frame height in pixels."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Frame width in pixels."""
        return int(self.pixels.shape[1])

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels, matching the paper's convention."""
        return (self.width, self.height)

    def with_pixels(self, pixels: np.ndarray) -> "Frame":
        """Return a new frame sharing index/metadata but new pixels."""
        return Frame(index=self.index, pixels=pixels, metadata=dict(self.metadata))

    def record_event(self, mc_name: str, event_id: int) -> None:
        """Record that this frame belongs to ``event_id`` for microclassifier ``mc_name``."""
        self.metadata.setdefault("events", {})[mc_name] = int(event_id)

    def event_memberships(self) -> dict[str, int]:
        """Mapping of microclassifier name to event ID for this frame."""
        return dict(self.metadata.get("events", {}))
