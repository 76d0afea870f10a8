"""Figure/Table 3: dataset details.

Figure 3b of the paper tabulates the attributes of the Jackson and Roadway
datasets (resolution, frame rate, frame count, task, event frames, unique
events) and Figure 3c the tasks' rectangular crop regions.  This experiment
generates the synthetic stand-in datasets and reports the same attributes
side by side with the paper's values, so the substitution's statistics are
auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.video.datasets import (
    PAPER_JACKSON,
    PAPER_ROADWAY,
    SyntheticDataset,
    make_jackson_like,
    make_roadway_like,
)

__all__ = ["Table3Row", "run_table3"]


@dataclass(frozen=True)
class Table3Row:
    """One dataset's attributes: paper values versus generated values."""

    name: str
    paper_resolution: str
    generated_resolution: str
    frame_rate: float
    paper_frames: int
    generated_frames: int
    task: str
    paper_event_frames: int
    generated_event_frames: int
    paper_unique_events: int
    generated_unique_events: int
    paper_event_fraction: float
    generated_event_fraction: float
    crop: tuple[int, int, int, int]


def _row(name: str, paper: dict, dataset: SyntheticDataset) -> Table3Row:
    generated_frames = len(dataset.train_stream) + len(dataset.test_stream)
    generated_event_frames = dataset.train_labels.num_positive + dataset.test_labels.num_positive
    generated_events = len(dataset.train_labels.events()) + len(dataset.test_labels.events())
    return Table3Row(
        name=name,
        paper_resolution=f"{paper['resolution'][0]} x {paper['resolution'][1]}",
        generated_resolution=f"{dataset.spec.resolution[0]} x {dataset.spec.resolution[1]}",
        frame_rate=dataset.spec.frame_rate,
        paper_frames=paper["frames"],
        generated_frames=generated_frames,
        task=paper["task"],
        paper_event_frames=paper["event_frames"],
        generated_event_frames=generated_event_frames,
        paper_unique_events=paper["unique_events"],
        generated_unique_events=generated_events,
        paper_event_fraction=paper["event_frames"] / paper["frames"],
        generated_event_fraction=(generated_event_frames / generated_frames if generated_frames else 0.0),
        crop=dataset.spec.crop,
    )


def run_table3(
    jackson: SyntheticDataset | None = None,
    roadway: SyntheticDataset | None = None,
    num_frames: int = 600,
) -> list[Table3Row]:
    """Generate (or accept) both datasets and produce the Table 3 comparison rows."""
    jackson = jackson or make_jackson_like(num_frames=num_frames)
    roadway = roadway or make_roadway_like(num_frames=num_frames)
    return [
        _row("jackson", PAPER_JACKSON, jackson),
        _row("roadway", PAPER_ROADWAY, roadway),
    ]
