"""Camera descriptors and the synthetic fleet generator.

A :class:`CameraSpec` describes one attached camera — resolution, frame
rate, how long it records, and which *scenario* its content follows.
Scenarios are presets over :class:`~repro.video.synthetic.SceneConfig`
covering the regimes a real deployment mixes on one node: quiet residential
streets, busy intersections, retail entrances, highway overpasses, and
night-time feeds (darker, noisier, fewer events).  :func:`generate_fleet`
samples a diverse fleet deterministically from a seed, and
:class:`CameraFeed` turns a spec into a timestamped arrival sequence for the
fleet runtime's simulated clock.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.video.annotations import FrameLabels
from repro.video.scenes import MovingObject
from repro.video.stream import InMemoryVideoStream
from repro.video.synthetic import SceneConfig, SurveillanceSceneGenerator

__all__ = ["SCENARIOS", "CameraSpec", "CameraFeed", "generate_fleet", "district_of"]

# generate_fleet draws each camera's start offset from [0, _STAGGER_SECONDS).
_STAGGER_SECONDS = 0.25

# Scenario presets: object spawn rates (events per frame) and rendering
# knobs, before the per-camera ``event_rate_scale`` is applied.
SCENARIOS: dict[str, dict[str, float]] = {
    "quiet_residential": {
        "pedestrian_rate": 0.010,
        "red_pedestrian_rate": 0.004,
        "car_rate": 0.015,
        "cyclist_rate": 0.004,
        "noise_std": 0.010,
    },
    "urban_day": {
        "pedestrian_rate": 0.040,
        "red_pedestrian_rate": 0.015,
        "car_rate": 0.050,
        "cyclist_rate": 0.010,
        "noise_std": 0.012,
    },
    "busy_intersection": {
        "pedestrian_rate": 0.090,
        "red_pedestrian_rate": 0.030,
        "car_rate": 0.120,
        "cyclist_rate": 0.025,
        "noise_std": 0.015,
    },
    "retail_entrance": {
        "pedestrian_rate": 0.120,
        "red_pedestrian_rate": 0.050,
        "car_rate": 0.008,
        "cyclist_rate": 0.004,
        "noise_std": 0.010,
    },
    "highway_overpass": {
        "pedestrian_rate": 0.002,
        "red_pedestrian_rate": 0.001,
        "car_rate": 0.200,
        "cyclist_rate": 0.002,
        "noise_std": 0.012,
    },
    "night_watch": {
        "pedestrian_rate": 0.008,
        "red_pedestrian_rate": 0.003,
        "car_rate": 0.020,
        "cyclist_rate": 0.002,
        "noise_std": 0.035,
    },
}


@dataclass(frozen=True)
class CameraSpec:
    """Static description of one fleet camera."""

    camera_id: str
    width: int
    height: int
    frame_rate: float
    num_frames: int
    scenario: str = "urban_day"
    seed: int = 0
    event_rate_scale: float = 1.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"Unknown scenario {self.scenario!r}; expected one of {sorted(SCENARIOS)}"
            )
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        # Written so that a NaN fails each guard.
        if not 0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be positive and finite")
        if not 0 <= self.event_rate_scale < math.inf:
            raise ValueError("event_rate_scale must be finite and non-negative")
        if not 0 <= self.start_time < math.inf:
            raise ValueError("start_time must be finite and non-negative")
        self.scene_config()  # the renderer's own guards (its minimum size among them)

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels."""
        return (self.width, self.height)

    @property
    def duration(self) -> float:
        """Recording duration in seconds."""
        return self.num_frames / self.frame_rate

    def scene_config(self) -> SceneConfig:
        """The synthetic-scene configuration implementing this spec."""
        preset = SCENARIOS[self.scenario]
        scale = self.event_rate_scale
        return SceneConfig(
            width=self.width,
            height=self.height,
            frame_rate=self.frame_rate,
            num_frames=self.num_frames,
            seed=self.seed,
            pedestrian_rate=float(preset["pedestrian_rate"]) * scale,
            red_pedestrian_rate=float(preset["red_pedestrian_rate"]) * scale,
            car_rate=float(preset["car_rate"]) * scale,
            cyclist_rate=float(preset["cyclist_rate"]) * scale,
            noise_std=float(preset["noise_std"]),
            max_person_duration=max(2, int(2.0 * self.frame_rate)),
        )


class CameraFeed:
    """Turns a :class:`CameraSpec` into a timestamped frame-arrival sequence.

    The synthetic scene is rendered lazily on first use; frame *i* arrives at
    ``start_time + (i + 1) / frame_rate`` (a frame exists once its exposure
    interval ends).  The spawned objects are cached alongside the rendered
    stream so :meth:`labels` returns ground truth for exactly the frames the
    feed emits — the accuracy plane scores every admitted-or-dropped frame
    decision against these labels.
    """

    def __init__(self, spec: CameraSpec) -> None:
        self.spec = spec
        self._labels: dict[str, FrameLabels] = {}

    @cached_property
    def _generator(self) -> SurveillanceSceneGenerator:
        return SurveillanceSceneGenerator(self.spec.scene_config())

    @cached_property
    def objects(self) -> list[MovingObject]:
        """The scene's moving objects (spawned once, shared with labels)."""
        return self._generator.spawn_objects()

    @cached_property
    def stream(self) -> InMemoryVideoStream:
        """The rendered camera stream."""
        return self._generator.render_stream(self.objects)

    def labels(self, task: str) -> FrameLabels:
        """Per-frame ground truth for ``task`` over this feed's frames.

        Derived from the same spawned objects the rendered stream shows, so
        frame *i*'s label describes frame *i*'s content exactly; cached per
        task (labelling does not require rendering).
        """
        if task not in self._labels:
            self._labels[task] = self._generator.labels_for_task(self.objects, task)
        return self._labels[task]

    def arrival_time(self, index: int) -> float:
        """When frame ``index`` arrives (needs no rendering)."""
        return self.spec.start_time + (index + 1) / self.spec.frame_rate

    def __len__(self) -> int:
        return self.spec.num_frames


def reject_duplicate_ids(cameras: Sequence[CameraSpec]) -> None:
    """Raise ``ValueError`` naming every camera id that occurs more than once."""
    counts = Counter(spec.camera_id for spec in cameras)
    if len(counts) < len(cameras):
        raise ValueError(f"Duplicate camera ids: {sorted(i for i, n in counts.items() if n > 1)}")


def district_of(camera_id: str) -> str | None:
    """The district prefix of a generated camera id (None when undistricted).

    :func:`generate_fleet` with ``districts`` set names cameras
    ``d<district>-cam<index>``; this parses the prefix back out so placement
    and control code can group cameras by locality without carrying the
    fleet list around.
    """
    prefix, sep, _ = camera_id.partition("-")
    if sep and len(prefix) > 1 and prefix.startswith("d") and prefix[1:].isdigit():
        return prefix
    return None


def generate_fleet(
    num_cameras: int,
    seed: int = 0,
    duration_seconds: float = 4.0,
    resolutions: Sequence[tuple[int, int]] = ((64, 48), (80, 48), (96, 64)),
    frame_rates: Sequence[float] = (5.0, 8.0, 10.0, 15.0),
    scenarios: Sequence[str] | None = None,
    districts: int | None = None,
) -> list[CameraSpec]:
    """Deterministically sample a diverse synthetic camera fleet.

    Cameras cycle through every scenario (so any fleet of at least
    ``len(SCENARIOS)`` cameras covers all content regimes) while resolution,
    frame rate, per-camera event density, and start offsets are drawn from
    the seeded generator.

    ``districts`` models a citywide deployment: cameras split into that many
    contiguous districts, camera ids gain a ``d<district>-`` prefix (parse it
    back with :func:`district_of`), and each district leans on a *primary*
    scenario — every other camera follows the district's regime, the rest
    cycle for diversity — so load is spatially correlated the way real
    deployments are.  The random draws per camera are identical with and
    without districting; only ids and scenario assignment change.
    """
    if num_cameras < 1:
        raise ValueError("num_cameras must be at least 1")
    if not 0 < duration_seconds < float("inf"):  # written so that a NaN fails it
        raise ValueError("duration_seconds must be positive and finite")
    if districts is not None and not 1 <= districts <= num_cameras:
        raise ValueError("districts must be in [1, num_cameras]")
    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(f"Unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    district_index: list[int] = []
    if districts is not None:
        base, extra = divmod(num_cameras, districts)
        for d in range(districts):
            district_index.extend([d] * (base + (1 if d < extra else 0)))
    id_width = max(3, len(str(num_cameras - 1)))
    rng = np.random.default_rng(seed)
    fleet: list[CameraSpec] = []
    local_index: dict[int, int] = {}
    for i in range(num_cameras):
        width, height = resolutions[int(rng.integers(len(resolutions)))]
        frame_rate = float(frame_rates[int(rng.integers(len(frame_rates)))])
        num_frames = max(1, int(round(duration_seconds * frame_rate)))
        if districts is not None:
            d = district_index[i]
            j = local_index.get(d, 0)
            local_index[d] = j + 1
            camera_id = f"d{d:02d}-cam{i:0{id_width}d}"
            # District primary scenario on even local slots, cycle otherwise.
            scenario = names[d % len(names)] if j % 2 == 0 else names[(d + j) % len(names)]
        else:
            camera_id = f"cam{i:0{id_width}d}"
            scenario = names[i % len(names)]
        fleet.append(
            CameraSpec(
                camera_id=camera_id,
                width=int(width),
                height=int(height),
                frame_rate=frame_rate,
                num_frames=num_frames,
                scenario=scenario,
                seed=int(rng.integers(2**31)),
                event_rate_scale=float(rng.uniform(0.5, 1.5)),
                start_time=float(rng.uniform(0.0, _STAGGER_SECONDS)),
            )
        )
    return fleet
