"""Video substrate: frames, streams, synthetic datasets, and codec simulation.

The paper evaluates on two proprietary camera-feed datasets (Jackson and
Roadway).  Those feeds are not available, so this subpackage provides a
procedural surveillance-scene generator and dataset builders that reproduce
the statistical properties the evaluation depends on: wide-angle views, small
moving objects, rare labelled events, and temporal continuity.  It also
provides an H.264-style rate-distortion codec simulator used both for the
"compress everything" baseline and for re-encoding matched event frames.
"""

from repro.video.annotations import (
    EventAnnotation,
    FrameLabels,
    events_to_frame_labels,
    frame_labels_to_events,
)
from repro.video.codec import CompressedFrame, EncodedSegment, H264Simulator
from repro.video.datasets import (
    DatasetSpec,
    SyntheticDataset,
    make_jackson_like,
    make_roadway_like,
)
from repro.video.frame import Frame
from repro.video.scenes import (
    Background,
    MovingObject,
    ObjectKind,
    render_scene,
)
from repro.video.stream import InMemoryVideoStream
from repro.video.synthetic import SceneConfig, SurveillanceSceneGenerator

__all__ = [
    "Background",
    "CompressedFrame",
    "DatasetSpec",
    "EncodedSegment",
    "EventAnnotation",
    "Frame",
    "FrameLabels",
    "H264Simulator",
    "InMemoryVideoStream",
    "MovingObject",
    "ObjectKind",
    "SceneConfig",
    "SurveillanceSceneGenerator",
    "SyntheticDataset",
    "events_to_frame_labels",
    "frame_labels_to_events",
    "make_jackson_like",
    "make_roadway_like",
    "render_scene",
]
