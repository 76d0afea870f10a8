"""Synthetic surveillance-video generation.

:class:`SurveillanceSceneGenerator` produces a deterministic, annotated video
stream that statistically mirrors the paper's evaluation feeds: a fixed
wide-angle view, small moving objects, and rare labelled events.  Each
generated video comes with per-frame ground truth for the two paper tasks:

* ``pedestrian_in_crosswalk`` — the Jackson dataset's *Pedestrian* task:
  a frame is positive when any person's centre lies inside the crosswalk.
* ``person_with_red`` — the Roadway dataset's *People with red* task:
  a frame is positive when a person wearing red is in the street/sidewalk
  region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.video.annotations import FrameLabels
from repro.video.scenes import Background, MovingObject, ObjectKind, render_scene
from repro.video.stream import InMemoryVideoStream

__all__ = ["SceneConfig", "SurveillanceSceneGenerator", "TASK_PEDESTRIAN", "TASK_PEOPLE_WITH_RED"]

TASK_PEDESTRIAN = "pedestrian_in_crosswalk"
TASK_PEOPLE_WITH_RED = "person_with_red"

# Object heights as fractions of the frame height, and the vehicles' speed
# range in pixels per frame at 256 pixels wide.
_PERSON_HEIGHT_FRACTION = 0.07
_CAR_HEIGHT_FRACTION = 0.05
_VEHICLE_SPEED_RANGE = (2.0, 5.0)


@dataclass
class SceneConfig:
    """Configuration of a synthetic surveillance scene.

    Spawn rates are expressed as the expected number of new objects of each
    kind per frame; keeping them small makes events rare, which is the regime
    FilterForward targets ("relevant events are rare", Section 1).
    """

    width: int = 256
    height: int = 144
    frame_rate: float = 15.0
    num_frames: int = 600
    seed: int = 0
    pedestrian_rate: float = 0.010
    red_pedestrian_rate: float = 0.006
    car_rate: float = 0.02
    cyclist_rate: float = 0.004
    crossing_fraction: float = 0.45
    person_speed_range: tuple[float, float] = (1.5, 3.0)
    max_person_duration: int | None = None
    noise_std: float = 0.01
    object_seed: int | None = None

    def __post_init__(self) -> None:
        if self.width < 32 or self.height < 32:
            raise ValueError("Scene must be at least 32x32 pixels")
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        # Written so that a NaN fails each guard.
        if not 0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be positive and finite")
        for name in ("pedestrian_rate", "red_pedestrian_rate", "car_rate", "cyclist_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.crossing_fraction <= 1.0:
            raise ValueError("crossing_fraction must be in [0, 1]")
        low, high = self.person_speed_range
        if not 0 < low <= high < math.inf:  # written so that a NaN fails it
            raise ValueError(
                "person_speed_range must be an increasing pair of positive, finite speeds"
            )
        if self.max_person_duration is not None and self.max_person_duration < 2:
            raise ValueError("max_person_duration must be at least 2 frames")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError("noise_std must be finite and non-negative")


@dataclass
class GeneratedScene:
    """The output of :meth:`SurveillanceSceneGenerator.generate`."""

    stream: InMemoryVideoStream
    labels: dict[str, FrameLabels]
    objects: list[MovingObject]
    background: Background
    config: SceneConfig = field(repr=False, default=None)


class SurveillanceSceneGenerator:
    """Generates annotated synthetic surveillance videos."""

    def __init__(self, config: SceneConfig) -> None:
        self.config = config
        self.background = Background(config.width, config.height, seed=config.seed)

    # -- object spawning ---------------------------------------------------
    def spawn_objects(self, rng: np.random.Generator | None = None) -> list[MovingObject]:
        """Spawn moving objects across the whole timeline.

        Pedestrians either walk along the sidewalk or cross the road through
        the crosswalk (controlled by ``crossing_fraction``); cars and cyclists
        travel along the road.  Motion is linear, matching the short
        dwell times of objects in wide-angle traffic footage.
        """
        cfg = self.config
        default_seed = cfg.object_seed if cfg.object_seed is not None else cfg.seed + 1
        rng = rng or np.random.default_rng(default_seed)
        bg = self.background
        objects: list[MovingObject] = []
        object_id = 0
        person_h = max(6, int(_PERSON_HEIGHT_FRACTION * cfg.height))
        person_w = max(2, person_h // 3)
        car_h = max(5, int(_CAR_HEIGHT_FRACTION * cfg.height))
        car_w = car_h * 3

        rates = {
            ObjectKind.PEDESTRIAN: cfg.pedestrian_rate,
            ObjectKind.RED_PEDESTRIAN: cfg.red_pedestrian_rate,
            ObjectKind.CAR: cfg.car_rate,
            ObjectKind.CYCLIST: cfg.cyclist_rate,
        }
        for kind, rate in rates.items():
            if rate <= 0:
                continue
            n_spawns = rng.poisson(rate * cfg.num_frames)
            spawn_frames = np.sort(rng.integers(0, cfg.num_frames, size=n_spawns))
            for start in spawn_frames:
                object_id += 1
                color = MovingObject.pick_color(kind, rng)
                if kind is ObjectKind.CAR:
                    obj = self._spawn_vehicle(kind, int(start), (car_w, car_h), color, rng, object_id)
                elif kind is ObjectKind.CYCLIST:
                    obj = self._spawn_vehicle(
                        kind, int(start), (person_w, person_h), color, rng, object_id
                    )
                else:
                    crossing = rng.random() < cfg.crossing_fraction
                    obj = self._spawn_person(
                        kind, int(start), (person_w, person_h), color, crossing, rng, object_id
                    )
                if obj is not None:
                    objects.append(obj)
        return objects

    def _spawn_person(
        self,
        kind: ObjectKind,
        start_frame: int,
        size: tuple[int, int],
        color: tuple[float, float, float],
        crossing: bool,
        rng: np.random.Generator,
        object_id: int,
    ) -> MovingObject | None:
        cfg = self.config
        bg = self.background
        speed = rng.uniform(*cfg.person_speed_range) * max(0.5, cfg.width / 256.0)
        if crossing:
            # Walk vertically through the crosswalk from sidewalk to buildings.
            cw_x0, cw_y0, cw_x1, cw_y1 = bg.crosswalk_region
            x = rng.uniform(cw_x0, max(cw_x0 + 1, cw_x1 - size[0]))
            going_up = rng.random() < 0.5
            if going_up:
                y0, vy = float(cfg.height - size[1] - 1), -speed
                travel = (y0 - cw_y0) / speed
            else:
                y0, vy = float(cw_y0 - size[1]), speed
                travel = (cfg.height - y0) / speed
            duration = int(np.ceil(travel)) + 1
            duration = self._cap_person_duration(duration)
            return MovingObject(
                kind=kind,
                start_frame=start_frame,
                end_frame=min(start_frame + duration, cfg.num_frames + duration),
                start_position=(x, y0),
                velocity=(rng.uniform(-0.1, 0.1), vy),
                size=size,
                color=color,
                object_id=object_id,
            )
        # Walk horizontally along the sidewalk.  The walk is capped by
        # ``max_person_duration`` (people step into doorways, parked cars,
        # etc.), which is what keeps events short relative to the video.
        sw_y0, sw_y1 = bg.sidewalk_rows
        y = rng.uniform(sw_y0, max(sw_y0 + 1, sw_y1 - size[1]))
        left_to_right = rng.random() < 0.5
        duration = int(np.ceil((cfg.width + 2 * size[0]) / speed)) + 1
        duration = self._cap_person_duration(duration)
        travel_px = duration * speed
        if left_to_right:
            x0 = float(rng.uniform(-size[0], max(1.0, cfg.width - travel_px)))
            vx = speed
        else:
            x0 = float(rng.uniform(min(cfg.width - 1.0, travel_px - size[0]), cfg.width))
            vx = -speed
        return MovingObject(
            kind=kind,
            start_frame=start_frame,
            end_frame=start_frame + duration,
            start_position=(x0, y),
            velocity=(vx, 0.0),
            size=size,
            color=color,
            object_id=object_id,
        )

    def _cap_person_duration(self, duration: int) -> int:
        """Apply the configured visible-duration cap for people."""
        cap = self.config.max_person_duration
        return duration if cap is None else min(duration, int(cap))

    def _spawn_vehicle(
        self,
        kind: ObjectKind,
        start_frame: int,
        size: tuple[int, int],
        color: tuple[float, float, float],
        rng: np.random.Generator,
        object_id: int,
    ) -> MovingObject:
        cfg = self.config
        road_y0, road_y1 = self.background.road_rows
        y = rng.uniform(road_y0, max(road_y0 + 1, road_y1 - size[1]))
        speed = rng.uniform(*_VEHICLE_SPEED_RANGE) * max(0.5, cfg.width / 256.0)
        left_to_right = rng.random() < 0.5
        x0 = -float(size[0]) if left_to_right else float(cfg.width)
        vx = speed if left_to_right else -speed
        duration = int(np.ceil((cfg.width + 2 * size[0]) / speed)) + 1
        return MovingObject(
            kind=kind,
            start_frame=start_frame,
            end_frame=start_frame + duration,
            start_position=(x0, y),
            velocity=(vx, 0.0),
            size=size,
            color=color,
            object_id=object_id,
        )

    # -- labelling ---------------------------------------------------------
    def labels_for_task(self, objects: list[MovingObject], task: str) -> FrameLabels:
        """Per-frame ground truth for one of the supported tasks."""
        cfg = self.config
        labels = np.zeros(cfg.num_frames, dtype=np.int8)
        if task == TASK_PEDESTRIAN:
            region = self.background.crosswalk_region
            kinds = (ObjectKind.PEDESTRIAN, ObjectKind.RED_PEDESTRIAN)
        elif task == TASK_PEOPLE_WITH_RED:
            x0, y0 = 0, self.background.road_rows[0]
            x1, y1 = cfg.width, cfg.height
            region = (x0, y0, x1, y1)
            kinds = (ObjectKind.RED_PEDESTRIAN,)
        else:
            raise ValueError(
                f"Unknown task {task!r}; expected {TASK_PEDESTRIAN!r} or {TASK_PEOPLE_WITH_RED!r}"
            )
        rx0, ry0, rx1, ry1 = region
        for obj in objects:
            if obj.kind not in kinds:
                continue
            start = max(0, obj.start_frame)
            end = min(cfg.num_frames, obj.end_frame)
            if end <= start:
                continue
            t = np.arange(start, end)
            cx = obj.start_position[0] + obj.size[0] / 2.0 + obj.velocity[0] * (t - obj.start_frame)
            cy = obj.start_position[1] + obj.size[1] / 2.0 + obj.velocity[1] * (t - obj.start_frame)
            inside = (cx >= rx0) & (cx < rx1) & (cy >= ry0) & (cy < ry1)
            labels[t[inside]] = 1
        return FrameLabels(labels, task=task)

    # -- rendering ---------------------------------------------------------
    def render_stream(self, objects: list[MovingObject]) -> InMemoryVideoStream:
        """Render every frame of the configured timeline."""
        cfg = self.config
        arrays = [
            render_scene(self.background, objects, i, noise_std=cfg.noise_std)
            for i in range(cfg.num_frames)
        ]
        return InMemoryVideoStream.from_arrays(arrays, cfg.frame_rate)

    def generate(self, tasks: tuple[str, ...] = (TASK_PEDESTRIAN, TASK_PEOPLE_WITH_RED)) -> GeneratedScene:
        """Spawn objects, render the video, and label it for ``tasks``."""
        objects = self.spawn_objects()
        stream = self.render_stream(objects)
        labels = {task: self.labels_for_task(objects, task) for task in tasks}
        return GeneratedScene(
            stream=stream,
            labels=labels,
            objects=objects,
            background=self.background,
            config=self.config,
        )
