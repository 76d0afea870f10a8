"""Shared fixtures for the benchmark suite.

The accuracy benchmarks (Figures 4 and 7) train real classifiers, which is
too slow to repeat many times under ``pytest-benchmark``; they therefore use
compact datasets (roughly 1/20th of the paper's spatial scale, a few hundred
frames) and run a single benchmark round.  The headline numbers are what
``python -m repro.experiments.runner`` prints at its larger presets; these
benchmarks regenerate the same series at a size that finishes in minutes.
"""

from __future__ import annotations

import pytest

from repro.core.training import TrainingConfig
from repro.experiments.common import ExperimentContext
from repro.video.datasets import make_jackson_like, make_roadway_like

BENCH_FRAMES = 240
BENCH_TRAINING = TrainingConfig(epochs=4.0, batch_size=16, learning_rate=2e-3, seed=0)


@pytest.fixture(scope="session")
def roadway_context() -> ExperimentContext:
    """A Roadway-like (People with red) experiment context shared across benches."""
    dataset = make_roadway_like(num_frames=BENCH_FRAMES, width=128, height=54, seed=23)
    return ExperimentContext(dataset, alpha=0.25, seed=0)


@pytest.fixture(scope="session")
def jackson_context() -> ExperimentContext:
    """A Jackson-like (Pedestrian) experiment context shared across benches."""
    dataset = make_jackson_like(num_frames=BENCH_FRAMES, width=128, height=72, seed=7)
    return ExperimentContext(dataset, alpha=0.25, seed=0)
