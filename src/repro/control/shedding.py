"""Load shedding: one controller watching both of a node's budgets.

The static fleet sheds load wherever the bounded queues happen to overflow —
every camera pays the same price regardless of how much signal it carries.
This controller replaces that with a closed loop on the two resources the
paper's edge node has a fixed amount of, one overload detector each:

* **compute** — the node's queue-wait p99 over the last control interval;
* **uplink** — the node's *estimated* upload backlog: live
  ``uplink.estimated_bits`` against the node's guaranteed share from
  :attr:`~repro.control.policies.ClusterView.uplink_guarantees`, run through
  a windowed fluid queue (zero when the view carries no guarantees).

Who sheds is decided by the configured per-camera value estimate
(:attr:`SheddingConfig.value_signal`) per unit of the scarce resource.
Compute overload caps the cameras buying the least value per
service-second; uplink overload caps the cameras buying the least value per
estimated upload bit, and only cameras actually uploading.  A camera that
has not generated a frame yet is never a victim: capping it frees nothing.
Victims step down an admission-quota ladder (``quota_ladder``, e.g.
unlimited → 2 → 1), ``cameras_per_step`` per tick, and are flipped to
``DROP_NEWEST`` (reject fresh frames at the door rather than churning the
queue).  Only when *both* detectors sit under their low watermarks is the
capped camera with the highest value per service-second restored, one per
tick, to the drop policy it had *before* tightening (``DROP_OLDEST``, the
fleet default, when that is unknown).  The gap between each pair of
watermarks plus the one-step-per-tick relaxation is the hysteresis that
keeps the policy from flapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    NodeView,
    SetCameraQuota,
    SetDropPolicy,
)
from repro.control.provenance import CandidateScore, DecisionRecord
from repro.fleet.queues import DropPolicy

__all__ = ["VALUE_SIGNALS", "SheddingConfig", "AdaptiveSheddingController"]


VALUE_SIGNALS = ("match_density", "truth_density")

# The uplink detector's watermarks on the estimated upload backlog, in seconds.
_UPLINK_HIGH_WATERMARK_SECONDS = 1.50
_UPLINK_LOW_WATERMARK_SECONDS = 0.50


@dataclass(frozen=True)
class SheddingConfig:
    """Tuning knobs of the shedding policy.

    The compute watermarks bound the windowed queue-wait p99; the uplink
    detector's fixed watermarks (1.5 s / 0.5 s) bound the node's estimated
    upload backlog in seconds (a fluid-queue model: estimated bits arrive,
    the node's guaranteed uplink rate drains).  ``value_signal`` picks the
    per-camera value estimate deciding *who* sheds: ``"match_density"``
    (the default proxy — matched / scored frames so far) or
    ``"truth_density"`` (ground-truth positive fraction of generated
    frames, populated when the fleet runs with
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
        # Written so that a NaN fails each guard.
        if not self.high_watermark_seconds > self.low_watermark_seconds:
            raise ValueError("high watermark must be above the low watermark (hysteresis)")
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


@dataclass
class _NodeUplinkEstimate:
    """Fluid-queue state of one node's estimated uplink backlog."""

    last_bits: float = 0.0
    last_time: float = 0.0
    backlog_seconds: float = 0.0


class AdaptiveSheddingController(Controller):
    """Per-camera drop-policy and quota adjustment from windowed telemetry."""

    name = "adaptive_shedding"

    def __init__(self, config: SheddingConfig | None = None) -> None:
        self.config = config or SheddingConfig()
        self._nodes: dict[str, _NodeSheddingState] = {}
        self._uplink: dict[str, _NodeUplinkEstimate] = {}

    # -- value estimates ------------------------------------------------------
    def _value(self, stats) -> float:
        """The configured per-camera value estimate (higher = keep).

        ``truth_density`` falls back to the match-density proxy when the
        node is not running the accuracy plane (``truth_known`` is False on
        its live stats) — otherwise a misconfigured pairing would silently
        rank every camera at 0.0 and shed purely by frame rate.
        """
        if self.config.value_signal == "truth_density" and stats.truth_known:
            return stats.truth_density
        return stats.match_density

    def _value_per_service_second(self, stats) -> float:
        """Predicted event value bought per worker-second spent on this camera."""
        return self._value(stats) / max(stats.service_seconds, 1e-12)

    def _compute_key(self, stats) -> tuple:
        """Ascending sort key for compute-bound shedding.

        Value per service-second: at equal density an expensive camera is
        shed first, because capping it frees more worker time per unit of
        accuracy given up.  Ties shed the higher frame rate first (more
        capacity freed), then break on id so decisions replay identically.
        """
        return (self._value_per_service_second(stats), -stats.frame_rate, stats.camera_id)

    @staticmethod
    def _upload_bps(stats) -> float:
        """The camera's estimated offered upload rate in bits per second."""
        return stats.upload_bits_per_scored_frame * stats.frame_rate

    def _value_per_upload_bit(self, stats) -> float:
        """Predicted event value bought per estimated uplink bit (uploaders only)."""
        return self._value(stats) / self._upload_bps(stats)

    def _uplink_key(self, stats) -> tuple:
        """Ascending sort key for uplink-bound shedding.

        Value per estimated uplink bit: upload-heavy low-value cameras go
        first.  Cameras uploading nothing are excluded from uplink-mode
        tightening before ranking — capping them cannot relieve the link.
        """
        return (self._value_per_upload_bit(stats), -self._upload_bps(stats), stats.camera_id)

    # -- the uplink detector --------------------------------------------------
    def _estimated_backlog_seconds(self, node: NodeView, view: ClusterView) -> float:
        """How far the node's estimated upload bits outrun its guarantee.

        A windowed fluid-queue model, advanced one control tick at a time:
        the interval's new estimated bits arrive as ``delta / guarantee``
        transmission-seconds of work, the link drains one second per
        second, and the backlog never goes negative.  Windowing matters —
        a run-average (total bits over total time) would credit an idle
        prefix as transmission time and go blind to late-run saturation.
        """
        guarantees = view.uplink_guarantees
        if not guarantees:
            return 0.0
        guarantee = guarantees.get(node.node_id, 0.0)
        if guarantee <= 0.0:
            return 0.0
        estimate = self._uplink.setdefault(node.node_id, _NodeUplinkEstimate())
        bits = node.counter_value("uplink.estimated_bits")
        dt = max(0.0, view.now - estimate.last_time)
        delta = max(0.0, bits - estimate.last_bits)
        estimate.backlog_seconds = max(0.0, estimate.backlog_seconds + delta / guarantee - dt)
        estimate.last_bits = bits
        estimate.last_time = view.now
        return estimate.backlog_seconds

    # -- the loop body --------------------------------------------------------
    def decide(self, view: ClusterView) -> list[DecisionRecord]:
        """Tighten the bottlenecked nodes, relax the recovered ones."""
        config = self.config
        records: list[DecisionRecord] = []
        for node in view.nodes:
            state = self._nodes.setdefault(node.node_id, _NodeSheddingState())
            histogram = node.wait_histogram()
            window_p99 = histogram.percentile_since(99, state.wait_index)
            state.wait_index = histogram.count
            stats = node.live_stats()
            # The runtime clears a migrated camera's quota on detach;
            # forgetting it here too means a returning camera starts fresh.
            for camera_id in [c for c in state.capped if c not in stats]:
                del state.capped[camera_id]
                state.original_policy.pop(camera_id, None)
            backlog = self._estimated_backlog_seconds(node, view)
            inputs = {
                "window_queue_wait_p99": window_p99,
                "uplink_backlog_seconds": backlog,
                "capped_cameras": float(len(state.capped)),
            }
            # A camera that has not offered a single frame yet (e.g. a feed
            # whose start time lies ahead) cannot relieve any pressure, and
            # its value estimate is undefined: it is never a victim, rather
            # than pre-emptively capping tomorrow's possibly-dense burst.
            live = [s for s in stats.values() if s.generated > 0]
            score, detail = self._value_per_service_second, self._service_detail
            reason = None
            if window_p99 > config.high_watermark_seconds:
                kind = "tighten"
                ranked = sorted(live, key=self._compute_key)
                node_actions = self._tighten(node.node_id, state, ranked)
                if not node_actions:
                    reason = "every candidate already sits at the ladder floor"
            elif backlog > _UPLINK_HIGH_WATERMARK_SECONDS:
                # Only cameras actually uploading can relieve the link; a
                # zero-upload camera is never the uplink-mode victim, even
                # once every uploader sits at the bottom of the ladder.
                kind = "tighten_uplink"
                ranked = sorted(
                    (s for s in live if self._upload_bps(s) > 0.0), key=self._uplink_key
                )
                score, detail = self._value_per_upload_bit, self._upload_detail
                node_actions = self._tighten(node.node_id, state, ranked)
                if not node_actions:
                    reason = (
                        "every uploading candidate already sits at the ladder floor"
                        if ranked
                        else "no uploading camera left to cap"
                    )
            elif (
                window_p99 < config.low_watermark_seconds
                and backlog < _UPLINK_LOW_WATERMARK_SECONDS
                and state.capped
            ):
                kind = "relax"
                ranked = sorted(
                    (stats[c] for c in state.capped),
                    key=lambda s: (-self._value_per_service_second(s), s.camera_id),
                )
                node_actions = self._relax(node.node_id, state, ranked[0].camera_id)
            else:
                kind = "idle"
                ranked = []
                node_actions = []
                reason = (
                    "compute and uplink detectors inside their watermark bands"
                    if state.capped
                    else "compute and uplink detectors calm, nothing capped"
                )
            chosen = {a.camera_id for a in node_actions}
            records.append(
                DecisionRecord(
                    controller=self.name,
                    kind=kind,
                    node_id=node.node_id,
                    inputs=inputs,
                    gates={
                        "high_watermark_seconds": config.high_watermark_seconds,
                        "low_watermark_seconds": config.low_watermark_seconds,
                        "uplink_high_watermark_seconds": _UPLINK_HIGH_WATERMARK_SECONDS,
                        "uplink_low_watermark_seconds": _UPLINK_LOW_WATERMARK_SECONDS,
                        "quota_ladder": "/".join(str(q) for q in config.quota_ladder),
                        "cameras_per_step": config.cameras_per_step,
                        "value_signal": config.value_signal,
                    },
                    candidates=tuple(
                        CandidateScore(
                            candidate_id=s.camera_id,
                            score=score(s),
                            chosen=s.camera_id in chosen,
                            detail=detail(s),
                        )
                        for s in ranked
                    ),
                    actions=tuple(node_actions),
                    reason=reason,
                )
            )
        return records

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

    @staticmethod
    def _relax(node_id: str, state: _NodeSheddingState, camera_id: str) -> list[ControlAction]:
        """Lift ``camera_id``'s cap and restore its pre-tighten drop policy."""
        del state.capped[camera_id]
        restored = state.original_policy.pop(camera_id, DropPolicy.DROP_OLDEST)
        return [
            SetCameraQuota(node_id=node_id, camera_id=camera_id, quota=None),
            SetDropPolicy(node_id=node_id, camera_id=camera_id, policy=restored),
        ]

    # -- provenance ------------------------------------------------------------
    @staticmethod
    def _service_detail(stats) -> tuple:
        return (
            ("frame_rate", stats.frame_rate),
            ("match_density", stats.match_density),
            ("service_seconds", stats.service_seconds),
        )

    def _upload_detail(self, stats) -> tuple:
        return (("upload_bps", self._upload_bps(stats)), ("frame_rate", stats.frame_rate))
