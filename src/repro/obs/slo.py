"""Per-camera latency SLOs: freshness, end-to-end latency, error budgets.

"Timeliness" is the central concern of real-time edge analytics, but drop
rates are only a proxy for it — a camera can lose few frames yet score every
one of them seconds late.  This module measures it directly with two
service-level indicators per camera:

* **freshness** — over *all generated frames*: a frame is fresh iff it was
  scored within ``freshness_target_seconds`` of its capture.  Shed frames
  (queue drops, admission rejections, migration losses, blackouts) are never
  fresh, so freshness unifies loss and lateness into one number;
* **latency** — over *scored frames only*: the fraction whose end-to-end
  ingest→scored latency met ``latency_target_seconds``.

The SLO *objective* is the fraction of frames that must be fresh (e.g.
0.95).  Error-budget accounting follows the SRE convention: with ``n``
frames observed, the budget is ``(1 - objective) * n`` violations; spending
past it drives :attr:`CameraSLOStatus.error_budget_remaining` negative.  The
*burn rate* is the violation fraction over a sliding window of the last 64
frames divided by the allowed fraction — 1.0 burns the budget exactly at the
sustainable rate, and a camera whose burn rate reaches 2.0 is flagged
:attr:`~CameraSLOStatus.burning`.  The flag describes the run's last
window: status is reported once, at the end of a run, and no controller
reads it.

Everything is driven by the simulated clock, so SLO reports are
deterministic and bit-identical across same-seed runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["SLOConfig", "CameraSLOStatus", "DeliverySLOConfig", "SLOTracker", "SLOReport"]

# Frames in each camera's burn-rate window.
_BURN_WINDOW = 64
# The burn-rate multiple that flags a camera burning and pages the burn rules
# of :mod:`repro.obs.alerts`.
_BURN_ALERT = 2.0


@dataclass(frozen=True)
class SLOConfig:
    """Targets and budget policy for the per-camera latency SLOs."""

    freshness_target_seconds: float = 0.5
    latency_target_seconds: float = 0.25
    objective: float = 0.95

    def __post_init__(self) -> None:
        # Written so that a NaN fails each guard.
        if not self.freshness_target_seconds > 0:
            raise ValueError("freshness_target_seconds must be positive")
        if not self.latency_target_seconds > 0:
            raise ValueError("latency_target_seconds must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")


@dataclass(frozen=True)
class DeliverySLOConfig:
    """Objective for end-to-end *event delivery*, the datacenter-side SLO.

    An event record meets the SLO iff its delivery latency — first
    successful datacenter ingest completion minus the event's close time —
    is at most ``ack_latency_seconds``.  ``objective`` is the fraction of
    published records that must meet it.
    :func:`repro.obs.alerts.delivery_burn_rule` pages at the same burn-rate
    multiple as :class:`SLOConfig` (2.0).
    """

    ack_latency_seconds: float = 1.0
    objective: float = 0.99

    def __post_init__(self) -> None:
        # Written so that a NaN fails each guard.
        if not self.ack_latency_seconds > 0:
            raise ValueError("ack_latency_seconds must be positive")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")


@dataclass(frozen=True)
class CameraSLOStatus:
    """One camera's SLO standing (point-in-time or end-of-run).

    Raw counts are kept so statuses merge exactly across a migrated
    camera's hosting stints; the window-derived burn fields merge
    conservatively (worst stint wins).
    """

    camera_id: str
    objective: float
    frames: int
    fresh: int
    scored: int
    within_latency: int
    burn_rate: float
    burning: bool

    @property
    def fresh_fraction(self) -> float:
        """Fraction of generated frames scored within the freshness target."""
        return self.fresh / self.frames if self.frames else 1.0

    @property
    def latency_fraction(self) -> float:
        """Fraction of scored frames inside the end-to-end latency target."""
        return self.within_latency / self.scored if self.scored else 1.0

    @property
    def meets_objective(self) -> bool:
        """Whether the freshness SLI currently meets the objective."""
        return self.fresh_fraction >= self.objective

    @property
    def error_budget_remaining(self) -> float:
        """Unspent fraction of the violation budget (negative = overspent)."""
        allowed = (1.0 - self.objective) * self.frames
        violations = self.frames - self.fresh
        if allowed <= 0.0:
            return 1.0 if violations == 0 else 0.0
        return 1.0 - violations / allowed

    def merged_with(self, other: "CameraSLOStatus") -> "CameraSLOStatus":
        """Combine two hosting stints of the same camera."""
        if other.camera_id != self.camera_id:
            raise ValueError(
                f"cannot merge SLO status of {other.camera_id!r} into {self.camera_id!r}"
            )
        if other.objective != self.objective:
            raise ValueError("cannot merge SLO statuses with different objectives")
        return CameraSLOStatus(
            camera_id=self.camera_id,
            objective=self.objective,
            frames=self.frames + other.frames,
            fresh=self.fresh + other.fresh,
            scored=self.scored + other.scored,
            within_latency=self.within_latency + other.within_latency,
            burn_rate=max(self.burn_rate, other.burn_rate),
            burning=self.burning or other.burning,
        )


class _CameraSLO:
    """Mutable per-camera accounting behind :class:`SLOTracker`."""

    def __init__(self, camera_id: str, config: SLOConfig) -> None:
        self.camera_id = camera_id
        self.config = config
        self.frames = 0
        self.fresh = 0
        self.scored = 0
        self.within_latency = 0
        self._window: deque[bool] = deque(maxlen=_BURN_WINDOW)

    def record_scored(self, latency_seconds: float) -> tuple[bool, bool]:
        """Account one scored frame; returns ``(fresh, within_latency)``."""
        self.frames += 1
        self.scored += 1
        fresh = latency_seconds <= self.config.freshness_target_seconds
        within = latency_seconds <= self.config.latency_target_seconds
        if fresh:
            self.fresh += 1
        if within:
            self.within_latency += 1
        self._window.append(fresh)
        return fresh, within

    def record_lost(self, count: int = 1) -> None:
        """Account ``count`` frames that will never be scored (never fresh)."""
        self.frames += count
        for _ in range(min(count, _BURN_WINDOW)):
            self._window.append(False)

    @property
    def burn_rate(self) -> float:
        """Windowed violation rate over the sustainable rate."""
        if not self._window:
            return 0.0
        violation_fraction = self._window.count(False) / len(self._window)
        return violation_fraction / (1.0 - self.config.objective)

    def status(self) -> CameraSLOStatus:
        """Freeze the camera's current standing."""
        burn_rate = self.burn_rate
        return CameraSLOStatus(
            camera_id=self.camera_id,
            objective=self.config.objective,
            frames=self.frames,
            fresh=self.fresh,
            scored=self.scored,
            within_latency=self.within_latency,
            burn_rate=burn_rate,
            burning=burn_rate >= _BURN_ALERT,
        )


class SLOTracker:
    """Per-node SLO accounting the fleet runtime feeds frame by frame."""

    def __init__(self, config: SLOConfig) -> None:
        self.config = config
        self._cameras: dict[str, _CameraSLO] = {}

    def _camera(self, camera_id: str) -> _CameraSLO:
        if camera_id not in self._cameras:
            self._cameras[camera_id] = _CameraSLO(camera_id, self.config)
        return self._cameras[camera_id]

    def record_scored(self, camera_id: str, latency_seconds: float) -> tuple[bool, bool]:
        """Account one scored frame; returns ``(fresh, within_latency)``."""
        return self._camera(camera_id).record_scored(latency_seconds)

    def record_lost(self, camera_id: str, count: int = 1) -> None:
        """Account frames shed before scoring (drops, rejections, blackouts)."""
        if count > 0:
            self._camera(camera_id).record_lost(count)

    def report(self) -> "SLOReport":
        """Freeze every camera's standing into a report (camera-id order)."""
        return SLOReport(
            config=self.config,
            cameras=tuple(
                self._cameras[camera_id].status() for camera_id in sorted(self._cameras)
            ),
        )


@dataclass(frozen=True)
class SLOReport:
    """Fleet- or node-level SLO standing over every observed camera."""

    config: SLOConfig
    cameras: tuple[CameraSLOStatus, ...]

    @property
    def frames(self) -> int:
        """Frames observed across all cameras."""
        return sum(c.frames for c in self.cameras)

    @property
    def fresh_fraction(self) -> float:
        """Fleet-wide freshness SLI (frame-weighted)."""
        frames = self.frames
        return sum(c.fresh for c in self.cameras) / frames if frames else 1.0

    @property
    def latency_fraction(self) -> float:
        """Fleet-wide scored-latency SLI (frame-weighted)."""
        scored = sum(c.scored for c in self.cameras)
        return sum(c.within_latency for c in self.cameras) / scored if scored else 1.0

    @property
    def cameras_burning(self) -> int:
        """Cameras whose burn rate exceeds the alert threshold."""
        return sum(1 for c in self.cameras if c.burning)

    @property
    def cameras_missing_objective(self) -> int:
        """Cameras whose freshness SLI is below the objective."""
        return sum(1 for c in self.cameras if not c.meets_objective)

    def camera(self, camera_id: str) -> CameraSLOStatus | None:
        """One camera's status by id (None if absent)."""
        for status in self.cameras:
            if status.camera_id == camera_id:
                return status
        return None

    def summary(self) -> str:
        """A one-line human-readable SLO standing."""
        return (
            f"slo: fresh {self.fresh_fraction:.1%} of frames "
            f"(target <= {self.config.freshness_target_seconds:.2f}s, "
            f"objective {self.config.objective:.0%}) | "
            f"scored latency {self.latency_fraction:.1%} <= "
            f"{self.config.latency_target_seconds:.2f}s | "
            f"{self.cameras_missing_objective}/{len(self.cameras)} cameras below objective, "
            f"{self.cameras_burning} burning"
        )

    @staticmethod
    def merged(reports) -> "SLOReport | None":
        """Fold per-node reports into one cluster report (None when empty).

        A camera hosted by several nodes (migration) contributes one merged
        status covering all its stints.
        """
        reports = [r for r in reports if r is not None]
        if not reports:
            return None
        config = reports[0].config
        for report in reports[1:]:
            if report.config != config:
                raise ValueError("cannot merge SLO reports with different configs")
        merged: dict[str, CameraSLOStatus] = {}
        for report in reports:
            for status in report.cameras:
                previous = merged.get(status.camera_id)
                merged[status.camera_id] = (
                    status if previous is None else previous.merged_with(status)
                )
        return SLOReport(
            config=config,
            cameras=tuple(merged[camera_id] for camera_id in sorted(merged)),
        )
