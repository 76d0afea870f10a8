"""Dataset builders mirroring the paper's Jackson and Roadway feeds.

Figure 3 of the paper describes two datasets:

=============  =====================  =====================
Attribute      Jackson                Roadway
=============  =====================  =====================
Resolution     1920 x 1080            2048 x 850
Frame rate     15 fps                 15 fps
Frames         600,000                324,009
Task           Pedestrian             People with red
Event frames   95,238                 71,296
Unique events  506                    326
Crop region    (0,539)-(1919,1079)    (0,315)-(2047,819)
=============  =====================  =====================

The builders here create *synthetic* equivalents (see DESIGN.md for the
substitution rationale) at a configurable spatial and temporal scale.  Each
dataset provides a training video and a test video ("the first video is used
for training and the second for testing", Section 4.1), per-frame ground
truth, and the task's rectangular crop region rescaled to the generated
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.video.annotations import FrameLabels
from repro.video.stream import InMemoryVideoStream
from repro.video.synthetic import (
    TASK_PEDESTRIAN,
    TASK_PEOPLE_WITH_RED,
    SceneConfig,
    SurveillanceSceneGenerator,
)

__all__ = ["DatasetSpec", "SyntheticDataset", "make_jackson_like", "make_roadway_like"]

# Paper-reported attributes, used for Table 3 reporting and crop rescaling.
PAPER_JACKSON = {
    "resolution": (1920, 1080),
    "frame_rate": 15.0,
    "frames": 600_000,
    "task": "Pedestrian",
    "event_frames": 95_238,
    "unique_events": 506,
    "crop": (0, 539, 1919, 1079),
}
PAPER_ROADWAY = {
    "resolution": (2048, 850),
    "frame_rate": 15.0,
    "frames": 324_009,
    "task": "People with red",
    "event_frames": 71_296,
    "unique_events": 326,
    "crop": (0, 315, 2047, 819),
}


@dataclass(frozen=True)
class DatasetSpec:
    """Describes one dataset: paper-scale attributes and generated-scale attributes."""

    name: str
    task: str
    paper_resolution: tuple[int, int]
    resolution: tuple[int, int]
    frame_rate: float
    num_frames: int
    paper_crop: tuple[int, int, int, int]
    crop: tuple[int, int, int, int]

    @property
    def scale(self) -> float:
        """Linear spatial scale of the generated video relative to the paper's."""
        return self.resolution[0] / self.paper_resolution[0]


@dataclass
class SyntheticDataset:
    """A generated dataset: train and test streams with ground truth."""

    spec: DatasetSpec
    train_stream: InMemoryVideoStream
    test_stream: InMemoryVideoStream
    train_labels: FrameLabels
    test_labels: FrameLabels

    def summary(self) -> dict:
        """Table-3-style attribute summary of the generated data."""
        return {
            "name": self.spec.name,
            "resolution": f"{self.spec.resolution[0]} x {self.spec.resolution[1]}",
            "frame_rate": self.spec.frame_rate,
            "frames": len(self.train_stream) + len(self.test_stream),
            "task": self.spec.task,
            "event_frames": self.train_labels.num_positive + self.test_labels.num_positive,
            "unique_events": len(self.train_labels.events()) + len(self.test_labels.events()),
            "crop": self.spec.crop,
        }


def _rescale_crop(
    crop: tuple[int, int, int, int],
    paper_resolution: tuple[int, int],
    resolution: tuple[int, int],
) -> tuple[int, int, int, int]:
    """Rescale a paper-pixel crop rectangle to the generated resolution."""
    px_w, px_h = paper_resolution
    w, h = resolution
    x0, y0, x1, y1 = crop
    return (
        int(round(x0 / px_w * w)),
        int(round(y0 / px_h * h)),
        min(w, int(round((x1 + 1) / px_w * w))),
        min(h, int(round((y1 + 1) / px_h * h))),
    )


# Scene-generation defaults calibrated so the generated videos preserve the
# paper datasets' statistical properties at short clip lengths: events are
# rare (roughly 15-30% of frames, vs. 16%/22% in the paper), there are
# several distinct events per split, and events last tens of frames.
_JACKSON_SCENE_DEFAULTS = {
    "pedestrian_rate": 0.025,
    "red_pedestrian_rate": 0.005,
    "car_rate": 0.020,
    "cyclist_rate": 0.004,
    "crossing_fraction": 0.5,
    "person_speed_range": (2.0, 3.5),
    "max_person_duration": 25,
}
_ROADWAY_SCENE_DEFAULTS = {
    "pedestrian_rate": 0.015,
    "red_pedestrian_rate": 0.020,
    "car_rate": 0.015,
    "cyclist_rate": 0.003,
    "crossing_fraction": 0.4,
    "person_speed_range": (2.5, 4.5),
    "max_person_duration": 16,
}


def _build_dataset(
    name: str,
    paper: dict,
    task: str,
    width: int,
    height: int,
    num_frames: int,
    seed: int,
    **scene_overrides,
) -> SyntheticDataset:
    resolution = (width, height)
    crop = _rescale_crop(paper["crop"], paper["resolution"], resolution)
    spec = DatasetSpec(
        name=name,
        task=task,
        paper_resolution=paper["resolution"],
        resolution=resolution,
        frame_rate=paper["frame_rate"],
        num_frames=num_frames,
        paper_crop=paper["crop"],
        crop=crop,
    )
    streams: list[InMemoryVideoStream] = []
    labels: list[FrameLabels] = []
    # Train and test videos share the same camera viewpoint (same background
    # seed) but contain different traffic (different object seeds), mirroring
    # the paper's two back-to-back recordings from the same camera.
    for split_index in range(2):
        config = SceneConfig(
            width=width,
            height=height,
            frame_rate=paper["frame_rate"],
            num_frames=num_frames,
            seed=seed,
            object_seed=seed + 1 + 1000 * split_index,
            **scene_overrides,
        )
        generator = SurveillanceSceneGenerator(config)
        scene = generator.generate(tasks=(task,))
        streams.append(scene.stream)
        labels.append(scene.labels[task])
    return SyntheticDataset(
        spec=spec,
        train_stream=streams[0],
        test_stream=streams[1],
        train_labels=labels[0],
        test_labels=labels[1],
    )


def make_jackson_like(
    num_frames: int = 600,
    width: int = 240,
    height: int = 136,
    seed: int = 7,
    **scene_overrides,
) -> SyntheticDataset:
    """Build a Jackson-like dataset (traffic camera, *Pedestrian* task).

    Defaults generate a 240x136 stream (1/8 linear scale of 1920x1080) with
    ``num_frames`` frames per split.  Pass ``scene_overrides`` to adjust spawn
    rates or object sizes.
    """
    return _build_dataset(
        "jackson",
        PAPER_JACKSON,
        TASK_PEDESTRIAN,
        width,
        height,
        num_frames,
        seed,
        **{**_JACKSON_SCENE_DEFAULTS, **scene_overrides},
    )


def make_roadway_like(
    num_frames: int = 600,
    width: int = 256,
    height: int = 108,
    seed: int = 23,
    **scene_overrides,
) -> SyntheticDataset:
    """Build a Roadway-like dataset (urban street camera, *People with red* task).

    Defaults generate a 256x108 stream (1/8 linear scale of 2048x850) with
    ``num_frames`` frames per split.
    """
    return _build_dataset(
        "roadway",
        PAPER_ROADWAY,
        TASK_PEOPLE_WITH_RED,
        width,
        height,
        num_frames,
        seed,
        **{**_ROADWAY_SCENE_DEFAULTS, **scene_overrides},
    )
