"""Shared fixtures for the test suite.

Fixtures keep test inputs tiny (a few dozen pixels, thin networks, short
streams) so the whole suite runs quickly while still exercising the real
code paths end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor
from repro.video.frame import Frame
from repro.video.stream import InMemoryVideoStream
from repro.video.synthetic import SceneConfig, SurveillanceSceneGenerator

# CI's coverage job runs the property tests deeper and reproducibly
# (``--hypothesis-profile=ci``); tier-1 keeps hypothesis's default 100 examples,
# and a few per entry of the oracle registry (tests/oracles).
settings.register_profile("ci", derandomize=True, max_examples=500)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_frame(rng: np.random.Generator) -> Frame:
    """A single small random frame (24x32 RGB)."""
    return Frame(index=0, timestamp=0.0, pixels=rng.random((24, 32, 3)).astype(np.float32))


@pytest.fixture
def tiny_stream(rng: np.random.Generator) -> InMemoryVideoStream:
    """A short random stream of 12 frames at 24x32, 15 fps."""
    arrays = [rng.random((24, 32, 3)).astype(np.float32) for _ in range(12)]
    return InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)


@pytest.fixture
def tiny_pipeline_stream(rng: np.random.Generator) -> InMemoryVideoStream:
    """A short random stream whose frames match the tiny base DNN's input (32x48)."""
    arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(12)]
    return InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)


@pytest.fixture(scope="session")
def tiny_base_dnn():
    """A very thin MobileNet-like base DNN for 32x48 frames (shared across tests)."""
    return build_mobilenet_like((32, 48, 3), alpha=0.125, rng=np.random.default_rng(0))


@pytest.fixture
def tiny_extractor(tiny_base_dnn) -> FeatureExtractor:
    """A feature extractor tapping the paper's two layers on the tiny base DNN."""
    return FeatureExtractor(tiny_base_dnn, ["conv4_2/sep", "conv5_6/sep"], cache_size=4)


@pytest.fixture
def base_dnn_passes(monkeypatch):
    """``count(model)``: a list that gets one entry per ``model.forward_with_taps`` call
    (its batch size) for the rest of the test."""

    def count(model) -> list[int]:
        passes: list[int] = []
        forward = model.forward_with_taps

        def counted(batch, *args, **kwargs):
            passes.append(len(batch))
            return forward(batch, *args, **kwargs)

        monkeypatch.setattr(model, "forward_with_taps", counted)
        return passes

    return count


@pytest.fixture
def tiny_scene() -> SurveillanceSceneGenerator:
    """A small, busy synthetic scene generator (64x48, 40 frames)."""
    config = SceneConfig(
        width=64,
        height=48,
        num_frames=40,
        seed=3,
        pedestrian_rate=0.08,
        red_pedestrian_rate=0.05,
        car_rate=0.05,
        cyclist_rate=0.02,
        person_speed_range=(1.0, 2.0),
        max_person_duration=15,
    )
    return SurveillanceSceneGenerator(config)


def numerical_gradient(func, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``func`` with respect to ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func()
        flat[i] = original - eps
        minus = func()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad
