"""Accuracy-aware control: drift frozen per-camera thresholds at runtime.

:class:`ThresholdDriftController` closes a loop the training protocol
leaves open: per-camera thresholds are calibrated once, on a short training
clip, and frozen.  Live, the accuracy plane exposes both what the camera's
microclassifier is matching and how many truly-positive frames it actually
scored (both rates over *scored* frames, so co-deployed shedding cannot
masquerade as under-firing); when the two run apart over a windowed sample,
the controller nudges the camera's *session* threshold — a typed
:class:`~repro.control.policies.SetCameraThreshold` action applied through
:meth:`repro.fleet.runtime.FleetRuntime.set_camera_threshold` — up when the
MC over-fires (precision leak) and down when it under-fires (recall leak).
The shared trained model is never mutated, so cached models stay
calibration-clean for other runs.

Composed with :class:`~repro.control.shedding.AdaptiveSheddingController`
ranking by ``truth_density`` in one :class:`~repro.control.loop.ControlLoop`,
it gives the cluster an accuracy objective: shed where events are not,
score where they are, and keep every camera's operating point near its live
event rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.policies import ClusterView, Controller, SetCameraThreshold
from repro.control.provenance import CandidateScore, DecisionRecord

__all__ = ["ThresholdDriftConfig", "ThresholdDriftController"]

# One drift moves a session threshold by _STEP, clamped to this range.
_STEP = 0.05
_MIN_THRESHOLD = 0.05
_MAX_THRESHOLD = 0.95


@dataclass(frozen=True)
class ThresholdDriftConfig:
    """Tuning knobs of the runtime threshold-drift policy.

    Each camera is evaluated over sequential windows of at least
    ``min_scored`` scored frames: when the windowed match density leaves
    the ``(1 ± tolerance)`` band around the windowed truth-positive rate
    of the *scored* frames (like-for-like — rating matches against the
    truth of frames the camera never scored would read active shedding as
    under-firing), the session threshold steps by 0.05 toward the leak
    (up for over-firing, down for under-firing), clamped to ``[0.05, 0.95]``,
    and the camera rests for ``cooldown_ticks`` so each adjustment is judged
    on frames it actually influenced.
    """

    tolerance: float = 0.50
    min_scored: int = 16
    cooldown_ticks: int = 4

    def __post_init__(self) -> None:
        if not self.tolerance >= 0:  # written so that a NaN fails it
            raise ValueError("tolerance must be non-negative")
        if self.min_scored < 1:
            raise ValueError("min_scored must be at least 1")
        if self.cooldown_ticks < 0:
            raise ValueError("cooldown_ticks must be non-negative")


@dataclass
class _CameraDriftState:
    """Windowed-count baselines and cooldown for one hosted camera."""

    scored: int = 0
    matched: int = 0
    generated: int = 0
    truth_positive_scored: int = 0
    attached_at: float = 0.0
    cooldown: int = 0


class ThresholdDriftController(Controller):
    """Drifts frozen per-camera thresholds toward the live event rate."""

    name = "threshold_drift"

    def __init__(self, config: ThresholdDriftConfig | None = None) -> None:
        self.config = config or ThresholdDriftConfig()
        self._cameras: dict[tuple[str, str], _CameraDriftState] = {}

    def decide(self, view: ClusterView) -> list[DecisionRecord]:
        """Nudge every camera whose windowed densities ran apart."""
        config = self.config
        records: list[DecisionRecord] = []
        for node in view.nodes:
            node_actions: list[SetCameraThreshold] = []
            candidates: list[CandidateScore] = []
            waiting = 0
            cooling = 0
            for camera_id, stats in sorted(node.live_stats().items()):
                key = (node.node_id, camera_id)
                state = self._cameras.setdefault(key, _CameraDriftState())
                if self._stint_changed(state, stats):
                    # The camera migrated and returned: the live counters
                    # reset with the new stint, so a window spanning the old
                    # baseline would mix stints (or even go negative).
                    # Restart the window here — even mid-cooldown, where the
                    # stale baseline would otherwise survive untouched; the
                    # cooldown itself dies with the stint (the fresh session
                    # restarts from its calibrated threshold).
                    self._rebase(state, stats)
                    state.cooldown = 0
                    waiting += 1
                    continue
                if state.cooldown > 0:
                    state.cooldown -= 1
                    cooling += 1
                    continue
                # Drift needs both the oracle signal and a live threshold.
                if not stats.truth_known or stats.threshold <= 0.0:
                    continue
                window_scored = stats.scored - state.scored
                if window_scored < config.min_scored:
                    waiting += 1
                    continue
                # Both rates are over the window's *scored* frames: matches
                # can only happen on scored frames, so judging them against
                # the truth of generated-but-shed frames would read any
                # co-deployed shedding as under-firing and ratchet the
                # threshold down exactly when precision matters most.
                observed = (stats.matched - state.matched) / window_scored
                expected = (
                    stats.truth_positive_scored - state.truth_positive_scored
                ) / window_scored
                self._rebase(state, stats)
                detail = (
                    ("observed_density", observed),
                    ("expected_density", expected),
                    ("threshold", stats.threshold),
                    ("window_scored", float(window_scored)),
                )
                if observed > expected * (1.0 + config.tolerance):
                    target = min(_MAX_THRESHOLD, stats.threshold + _STEP)
                elif expected > 0.0 and observed < expected * (1.0 - config.tolerance):
                    target = max(_MIN_THRESHOLD, stats.threshold - _STEP)
                else:
                    candidates.append(
                        CandidateScore(
                            candidate_id=camera_id,
                            score=observed - expected,
                            detail=detail,
                        )
                    )
                    continue
                target = round(target, 6)
                if abs(target - stats.threshold) < 1e-9:
                    # already pinned at a clamp
                    candidates.append(
                        CandidateScore(
                            candidate_id=camera_id,
                            score=observed - expected,
                            detail=detail,
                        )
                    )
                    continue
                candidates.append(
                    CandidateScore(
                        candidate_id=camera_id,
                        score=observed - expected,
                        chosen=True,
                        detail=detail,
                    )
                )
                node_actions.append(
                    SetCameraThreshold(
                        node_id=node.node_id, camera_id=camera_id, threshold=target
                    )
                )
                state.cooldown = config.cooldown_ticks
            records.append(
                DecisionRecord(
                    controller=self.name,
                    kind="drift" if node_actions else "hold",
                    node_id=node.node_id,
                    inputs={
                        "cameras_waiting": float(waiting),
                        "cameras_cooling": float(cooling),
                        "cameras_evaluated": float(len(candidates)),
                    },
                    gates={
                        "tolerance": config.tolerance,
                        "step": _STEP,
                        "min_threshold": _MIN_THRESHOLD,
                        "max_threshold": _MAX_THRESHOLD,
                        "min_scored": config.min_scored,
                        "cooldown_ticks": config.cooldown_ticks,
                    },
                    candidates=tuple(candidates),
                    actions=tuple(node_actions),
                    reason=(
                        None
                        if node_actions
                        else "every evaluated window inside the tolerance band"
                        if candidates
                        else "no camera window ready to evaluate"
                    ),
                )
            )
        return records

    @staticmethod
    def _stint_changed(state: _CameraDriftState, stats) -> bool:
        """Whether the live counters belong to a newer hosting stint.

        The attach time is the exact signal; the monotonic-counter checks
        back it up for the catch-up case where a fresh stint re-attaches at
        the same simulated time but some counter still sits below the
        baseline.
        """
        return (
            stats.attached_at != state.attached_at
            or stats.scored < state.scored
            or stats.matched < state.matched
            or stats.generated < state.generated
            or stats.truth_positive_scored < state.truth_positive_scored
        )

    @staticmethod
    def _rebase(state: _CameraDriftState, stats) -> None:
        state.scored = stats.scored
        state.matched = stats.matched
        state.generated = stats.generated
        state.truth_positive_scored = stats.truth_positive_scored
        state.attached_at = stats.attached_at
