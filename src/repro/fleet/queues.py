"""Bounded per-camera frame queues, drop policies, and admission control.

On a constrained edge node the filtering pipeline cannot always keep up with
the aggregate frame rate of every attached camera, so frames queue between
ingest and the worker pool.  Each camera gets a bounded :class:`FrameQueue`
with an explicit overload policy:

* ``DROP_OLDEST`` — evict the head to admit the new frame (freshness wins;
  the right default for live monitoring, where a stale frame is worthless);
* ``DROP_NEWEST`` — reject the incoming frame (completeness of what is
  already queued wins).

There is no blocking policy: a live camera cannot be made to wait, so a node
that falls behind sheds frames.

An optional :class:`AdmissionController` bounds the *total* number of frames
in flight across the whole node, providing load shedding before queues even
see a frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Generic, TypeVar

__all__ = ["DropPolicy", "OfferOutcome", "FrameQueue", "AdmissionController"]


# What a queue holds — a frame, or the fleet runtime's ticket for one; it reads nothing of it.
QueuedFrame = TypeVar("QueuedFrame")


class DropPolicy(str, Enum):
    """What a full queue does with an incoming frame."""

    DROP_OLDEST = "drop_oldest"
    DROP_NEWEST = "drop_newest"


@dataclass(frozen=True)
class OfferOutcome(Generic[QueuedFrame]):
    """Result of offering one frame to a bounded queue."""

    admitted: bool
    evicted: QueuedFrame | None = None


class FrameQueue(Generic[QueuedFrame]):
    """A bounded FIFO of decoded frames for one camera."""

    def __init__(self, capacity: int, policy: DropPolicy = DropPolicy.DROP_OLDEST) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.policy = DropPolicy(policy)
        self._frames: deque[QueuedFrame] = deque()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def depth(self) -> int:
        """Frames currently queued."""
        return len(self._frames)

    @property
    def is_full(self) -> bool:
        """Whether the queue is at capacity."""
        return len(self._frames) >= self.capacity

    def set_policy(self, policy: DropPolicy) -> None:
        """Switch the overload policy live (the control plane's shedding knob).

        Already-queued frames are untouched; only future :meth:`offer` calls
        see the new policy.
        """
        self.policy = DropPolicy(policy)

    def offer(self, frame: QueuedFrame) -> OfferOutcome[QueuedFrame]:
        """Offer one frame; the policy decides what happens at capacity."""
        if not self.is_full:
            self._frames.append(frame)
            return OfferOutcome(admitted=True)
        if self.policy is DropPolicy.DROP_OLDEST:
            evicted = self._frames.popleft()
            self._frames.append(frame)
            return OfferOutcome(admitted=True, evicted=evicted)
        return OfferOutcome(admitted=False, evicted=frame)  # DROP_NEWEST

    def pop(self) -> QueuedFrame | None:
        """Dequeue the oldest frame (None when empty)."""
        if not self._frames:
            return None
        return self._frames.popleft()


class AdmissionController:
    """Caps the total number of frames in flight across the node.

    A frame is *in flight* from the moment it is admitted until it is either
    scored or dropped.  When the cap is reached new arrivals are rejected at
    the door — cheaper than queueing them just to drop them later, and the
    mechanism that keeps aggregate memory bounded no matter how many cameras
    are attached.

    An optional ``per_camera_quota`` additionally caps how much of the
    node-wide budget any single camera may hold.  Without it, one high-rate
    camera can keep the budget permanently full and starve its neighbours;
    with it, a camera at quota is rejected even while the node has headroom,
    leaving room for the quiet cameras' next frames.  Every frame is
    admitted and released under its camera's id.

    :meth:`set_camera_quota` installs a per-camera *override* of the default
    quota — the adaptive-shedding control plane's actuator: tightening one
    camera's quota sheds its load at the door while its neighbours keep
    theirs.
    """

    def __init__(self, max_in_flight: int, per_camera_quota: int | None = None) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        if per_camera_quota is not None and per_camera_quota < 1:
            raise ValueError("per_camera_quota must be at least 1 when set")
        self.max_in_flight = int(max_in_flight)
        self.per_camera_quota = int(per_camera_quota) if per_camera_quota is not None else None
        self._in_flight = 0
        self._per_camera: dict[str, int] = {}
        self._quota_overrides: dict[str, int] = {}
        self.rejected_over_quota = 0

    @property
    def in_flight(self) -> int:
        """Frames currently admitted but not yet released."""
        return self._in_flight

    def quota_for(self, camera_id: str) -> int | None:
        """The quota in force for ``camera_id`` (override, else the default)."""
        override = self._quota_overrides.get(camera_id)
        return override if override is not None else self.per_camera_quota

    def set_camera_quota(self, camera_id: str, quota: int | None) -> None:
        """Override (or with ``None`` restore) one camera's in-flight quota."""
        if quota is None:
            self._quota_overrides.pop(camera_id, None)
            return
        if quota < 1:
            raise ValueError("quota must be at least 1 when set")
        self._quota_overrides[camera_id] = int(quota)

    @property
    def quota_overrides(self) -> dict[str, int]:
        """Per-camera quota overrides currently in force."""
        return dict(self._quota_overrides)

    def try_admit(self, camera_id: str) -> bool:
        """Admit one of ``camera_id``'s frames if the node-wide budget and its quota allow."""
        if self._in_flight >= self.max_in_flight:
            return False
        quota = self.quota_for(camera_id)
        if quota is not None and self._per_camera.get(camera_id, 0) >= quota:
            self.rejected_over_quota += 1
            return False
        self._in_flight += 1
        self._per_camera[camera_id] = self._per_camera.get(camera_id, 0) + 1
        return True

    def release(self, camera_id: str) -> None:
        """Mark one of ``camera_id``'s in-flight frames as scored or dropped."""
        held = self._per_camera.get(camera_id, 0)
        if held <= 0:
            raise RuntimeError(f"release({camera_id!r}) without a matching try_admit()")
        self._per_camera[camera_id] = held - 1
        self._in_flight -= 1
