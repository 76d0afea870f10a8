"""Profiling attribution: where each camera's service-seconds actually went.

Aggregates the tracer's span trees into a per-camera, per-stage breakdown —
a flamegraph collapsed to a table.  Top-level stages are the telescoping
lifecycle spans (``queue``, ``service``, ``upload_wait``, ``upload``);
``service`` further splits into the phased schedule's sub-stages
(``service/decode``, ``service/base_dnn``, …) exactly as the worker pool
charged them.

Numbers cover only *sampled* frames (the tracer's 1-in-N sample);
:attr:`FleetProfile.sample_every` is carried so readers can scale the
sampled seconds up to a fleet estimate when they need absolute magnitudes —
shares within a camera are unbiased either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.trace import Tracer

__all__ = ["ProfileRow", "FleetProfile", "profile_from_tracer"]


@dataclass(frozen=True)
class ProfileRow:
    """Sampled seconds one camera spent in one lifecycle stage."""

    camera_id: str
    stage: str  # "queue", "service", "service/decode", "upload", ...
    seconds: float
    frames: int

    @property
    def depth(self) -> int:
        """Nesting depth of the stage (0 = top-level lifecycle stage)."""
        return self.stage.count("/")

    @property
    def leaf(self) -> str:
        """The stage's own name without its parents."""
        return self.stage.rsplit("/", 1)[-1]


class FleetProfile:
    """Per-camera, per-stage service-second attribution table."""

    def __init__(self, rows: list[ProfileRow], sample_every: int = 1) -> None:
        self.rows = list(rows)
        self.sample_every = int(sample_every)

    def cameras(self) -> list[str]:
        """Cameras with at least one profiled row, in row order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.camera_id, None)
        return list(seen)

    def camera_rows(self, camera_id: str) -> list[ProfileRow]:
        """One camera's rows in stage order (parents before children)."""
        return [row for row in self.rows if row.camera_id == camera_id]

    def camera_total_seconds(self, camera_id: str) -> float:
        """Sampled end-to-end seconds of one camera (top-level stages only)."""
        return sum(row.seconds for row in self.camera_rows(camera_id) if row.depth == 0)

    def format_table(self) -> str:
        """A flamegraph-style indented table, one block per camera."""
        lines = [
            f"per-stage attribution over sampled frames (1 in {self.sample_every})",
            f"{'camera':<10} {'stage':<24} {'seconds':>10} {'frames':>7} {'share':>7}",
        ]
        for camera_id in self.cameras():
            total = self.camera_total_seconds(camera_id)
            for row in self.camera_rows(camera_id):
                indent = "  " * row.depth
                share = row.seconds / total if total > 0 else 0.0
                lines.append(
                    f"{camera_id:<10} {indent + row.leaf:<24} "
                    f"{row.seconds:>10.4f} {row.frames:>7d} {share:>6.1%}"
                )
        return "\n".join(lines)


def profile_from_tracer(tracer: Tracer) -> FleetProfile:
    """Aggregate every frame trace into a :class:`FleetProfile`.

    Traces are walked in the tracer's deterministic order; stages appear in
    first-encounter order per camera (queue before service before upload for
    any camera that uploaded).
    """
    # camera -> stage path -> [seconds, frames]
    stages: dict[str, dict[str, list[float]]] = {}
    for trace in tracer.frame_traces():
        per_camera = stages.setdefault(trace.camera_id, {})
        root = trace.to_span()
        for child in root.children:
            _accumulate(per_camera, child.name, child)

    rows = [
        ProfileRow(camera_id=camera_id, stage=stage, seconds=acc[0], frames=int(acc[1]))
        for camera_id in sorted(stages)
        for stage, acc in stages[camera_id].items()
    ]
    return FleetProfile(rows, sample_every=tracer.sample_every)


def _accumulate(per_camera: dict[str, list[float]], path: str, span) -> None:
    acc = per_camera.setdefault(path, [0.0, 0])
    acc[0] += span.duration
    acc[1] += 1
    for child in span.children:
        _accumulate(per_camera, f"{path}/{child.name}", child)
