"""Adaptive load shedding: telemetry-driven drop policies and quotas.

The static fleet sheds load wherever the bounded queues happen to overflow —
every camera pays the same price regardless of how much signal it carries.
This controller replaces that with a closed loop on two telemetry signals:

* **queue-wait p99 over the last control interval** (windowed, per node) —
  the overload detector;
* **per-camera match density** (matched / scored frames so far) — the value
  estimate deciding *who* sheds.

When a node's windowed p99 crosses ``high_watermark_seconds``, the k
lowest-density cameras are stepped down an admission-quota ladder
(``quota_ladder``, e.g. unlimited → 2 → 1) and flipped to ``DROP_NEWEST``
(reject fresh frames at the door rather than churning the queue).  When the
p99 falls back under ``low_watermark_seconds`` the most valuable capped
camera is restored one step per tick — to the drop policy it had *before*
tightening (``DROP_OLDEST``, the fleet default, when that is unknown).
The gap between the two watermarks plus the one-step-per-tick relaxation is
the hysteresis that keeps the policy from flapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    SetCameraQuota,
    SetDropPolicy,
)
from repro.control.provenance import CandidateScore, DecisionRecord
from repro.fleet.queues import DropPolicy

__all__ = ["VALUE_SIGNALS", "SheddingConfig", "AdaptiveSheddingController"]


VALUE_SIGNALS = ("match_density", "truth_density")


@dataclass(frozen=True)
class SheddingConfig:
    """Tuning knobs of the adaptive shedding policy.

    ``value_signal`` picks the per-camera value estimate deciding *who*
    sheds: ``"match_density"`` (the default proxy — matched / scored frames
    so far) or ``"truth_density"`` (ground-truth positive fraction of
    generated frames, populated when the fleet runs with
    :attr:`~repro.fleet.runtime.FleetConfig.accuracy_task` set — the
    accuracy plane's oracle signal for studying how much proxy error
    costs).  On a node without the accuracy plane, ``truth_density``
    falls back to the match-density proxy per camera.
    """

    high_watermark_seconds: float = 0.20
    low_watermark_seconds: float = 0.05
    cameras_per_step: int = 2
    quota_ladder: tuple[int, ...] = (2, 1)
    value_signal: str = "match_density"

    def __post_init__(self) -> None:
        if self.high_watermark_seconds <= self.low_watermark_seconds:
            raise ValueError("high watermark must exceed the low watermark (hysteresis)")
        if self.cameras_per_step < 1:
            raise ValueError("cameras_per_step must be at least 1")
        if not self.quota_ladder:
            raise ValueError("quota_ladder must have at least one rung")
        if any(q < 1 for q in self.quota_ladder):
            raise ValueError("quota_ladder rungs must be at least 1")
        if self.value_signal not in VALUE_SIGNALS:
            raise ValueError(
                f"Unknown value_signal {self.value_signal!r}; expected one of {VALUE_SIGNALS}"
            )


@dataclass
class _NodeSheddingState:
    """Per-node controller memory across ticks."""

    wait_index: int = 0  # histogram observation count at the previous tick
    capped: dict[str, int] = field(default_factory=dict)  # camera -> ladder rung index
    original_policy: dict[str, DropPolicy] = field(default_factory=dict)


class QuotaLadderShedder(Controller):
    """Shared mechanics of ladder-based shedding policies.

    Both the adaptive controller here and the value-aware controller in
    :mod:`repro.control.value` shed the same way — step victims down an
    admission-quota ladder, flip fresh victims to ``DROP_NEWEST``, restore
    one camera per calm tick to its pre-tighten policy — and differ only in
    *when* they act and *who* they rank first.  Subclasses implement
    :meth:`decide`; the config is duck-typed to anything exposing
    ``quota_ladder`` and ``cameras_per_step``.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._nodes: dict[str, _NodeSheddingState] = {}

    def _node_state(self, node_id: str) -> _NodeSheddingState:
        return self._nodes.setdefault(node_id, _NodeSheddingState())

    def _value(self, stats) -> float:
        """The configured per-camera value estimate (higher = keep).

        Reads ``self.config.value_signal``.  ``truth_density`` falls back to
        the match-density proxy when the node is not running the accuracy
        plane (``truth_known`` is False on its live stats) — otherwise a
        misconfigured pairing would silently rank every camera at 0.0 and
        shed purely by frame rate.
        """
        if self.config.value_signal == "truth_density" and getattr(
            stats, "truth_known", False
        ):
            return stats.truth_density
        return stats.match_density

    @staticmethod
    def _forget_departed(state: _NodeSheddingState, stats) -> None:
        """Drop caps of cameras that migrated away mid-interval.

        The runtime clears the quota override on detach; forgetting here too
        means a returning camera starts fresh and relax ticks are not wasted
        on cameras the node no longer hosts.
        """
        for camera_id in [c for c in state.capped if c not in stats]:
            del state.capped[camera_id]
            state.original_policy.pop(camera_id, None)

    def _tighten(self, node_id: str, state: _NodeSheddingState, ranked) -> list[ControlAction]:
        """Step up to ``cameras_per_step`` of ``ranked`` down the ladder."""
        ladder = self.config.quota_ladder
        actions: list[ControlAction] = []
        stepped = 0
        for camera in ranked:
            if stepped >= self.config.cameras_per_step:
                break
            rung = state.capped.get(camera.camera_id)
            next_rung = 0 if rung is None else min(rung + 1, len(ladder) - 1)
            if rung == next_rung:
                continue  # already at the bottom of the ladder
            state.capped[camera.camera_id] = next_rung
            stepped += 1
            actions.append(
                SetCameraQuota(node_id=node_id, camera_id=camera.camera_id, quota=ladder[next_rung])
            )
            if rung is None:
                state.original_policy[camera.camera_id] = camera.drop_policy
                actions.append(
                    SetDropPolicy(
                        node_id=node_id,
                        camera_id=camera.camera_id,
                        policy=DropPolicy.DROP_NEWEST,
                    )
                )
        return actions

    def _relax(self, node_id: str, state: _NodeSheddingState, stats, value_key) -> list[ControlAction]:
        """Restore the capped camera ranked highest by ``value_key``, one per tick."""
        candidates = sorted(
            (camera_id for camera_id in state.capped if camera_id in stats),
            key=lambda camera_id: (-value_key(stats[camera_id]), camera_id),
        )
        if not candidates:
            # Every capped camera migrated away; forget them.
            state.capped.clear()
            state.original_policy.clear()
            return []
        camera_id = candidates[0]
        del state.capped[camera_id]
        restored = state.original_policy.pop(camera_id, DropPolicy.DROP_OLDEST)
        return [
            SetCameraQuota(node_id=node_id, camera_id=camera_id, quota=None),
            SetDropPolicy(node_id=node_id, camera_id=camera_id, policy=restored),
        ]

    # -- provenance ------------------------------------------------------------
    @staticmethod
    def _chosen_cameras(actions: list[ControlAction]) -> set[str]:
        """Camera ids the tick's shedding actions actually touched."""
        return {
            action.camera_id
            for action in actions
            if isinstance(action, (SetCameraQuota, SetDropPolicy))
        }

    def _ladder_candidates(self, ranked, score_key, chosen: set[str]):
        """Ranked-order candidate scores for a tighten/relax decision."""
        return tuple(
            CandidateScore(
                candidate_id=stats.camera_id,
                score=score_key(stats),
                chosen=stats.camera_id in chosen,
                detail=(
                    ("frame_rate", stats.frame_rate),
                    ("match_density", stats.match_density),
                    ("service_seconds", stats.service_seconds),
                ),
            )
            for stats in ranked
        )

    def _shed_gates(self) -> dict:
        """The configured thresholds every shedding decision is gated by."""
        return {
            "high_watermark_seconds": self.config.high_watermark_seconds,
            "low_watermark_seconds": self.config.low_watermark_seconds,
            "quota_ladder": "/".join(str(q) for q in self.config.quota_ladder),
            "cameras_per_step": self.config.cameras_per_step,
            "value_signal": self.config.value_signal,
        }


class AdaptiveSheddingController(QuotaLadderShedder):
    """Per-camera drop-policy and quota adjustment from windowed telemetry."""

    name = "adaptive_shedding"

    def __init__(self, config: SheddingConfig | None = None) -> None:
        super().__init__(config or SheddingConfig())

    def decide(self, view: ClusterView) -> list[ControlAction]:
        """Tighten overloaded nodes, relax recovered ones."""
        actions: list[ControlAction] = []
        for node in view.nodes:
            state = self._node_state(node.node_id)
            histogram = node.wait_histogram()
            window_p99 = histogram.percentile_since(99, state.wait_index)
            state.wait_index = histogram.count
            stats = node.live_stats()
            self._forget_departed(state, stats)
            inputs = {
                "window_queue_wait_p99": window_p99,
                "capped_cameras": float(len(state.capped)),
            }
            candidates: tuple[CandidateScore, ...] = ()
            reason = None
            if window_p99 > self.config.high_watermark_seconds:
                # Shed from the cameras with the least event signal per
                # scored frame; ties break on camera_id so decisions replay
                # identically.
                kind = "tighten"
                ranked = sorted(
                    stats.values(),
                    key=lambda s: (self._value(s), -s.frame_rate, s.camera_id),
                )
                node_actions = self._tighten(node.node_id, state, ranked)
                candidates = self._ladder_candidates(
                    ranked, self._value, self._chosen_cameras(node_actions)
                )
                if not node_actions:
                    reason = "every candidate already sits at the ladder floor"
            elif window_p99 < self.config.low_watermark_seconds and state.capped:
                kind = "relax"
                ranked = sorted(
                    (stats[c] for c in state.capped if c in stats),
                    key=lambda s: (-self._value(s), s.camera_id),
                )
                node_actions = self._relax(node.node_id, state, stats, self._value)
                candidates = self._ladder_candidates(
                    ranked, self._value, self._chosen_cameras(node_actions)
                )
                if not node_actions:
                    reason = "every capped camera migrated away"
            else:
                kind = "idle"
                node_actions = []
                reason = (
                    "queue-wait p99 inside the watermark band"
                    if state.capped
                    else "queue-wait p99 inside the watermark band, nothing capped"
                )
            self.record_decision(
                DecisionRecord(
                    controller=self.name,
                    kind=kind,
                    node_id=node.node_id,
                    inputs=inputs,
                    gates=self._shed_gates(),
                    candidates=candidates,
                    actions=tuple(a.describe() for a in node_actions),
                    reason=reason,
                )
            )
            actions.extend(node_actions)
        return actions
