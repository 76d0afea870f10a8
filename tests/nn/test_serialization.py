"""Tests for weight serialization (microclassifier deployment)."""

import numpy as np
import pytest

from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.serialization import load_weights, save_weights


def make_model(seed: int, name: str = "mc") -> Sequential:
    return Sequential(
        [Conv2D(4, 3, name="conv"), ReLU(name="relu"), Flatten(name="flat"), Dense(1, name="fc")],
        input_shape=(6, 6, 3),
        rng=np.random.default_rng(seed),
        name=name,
    )


class TestSaveLoad:
    def test_roundtrip_restores_predictions(self, tmp_path):
        source = make_model(0)
        target = make_model(1)
        x = np.random.default_rng(2).random((3, 6, 6, 3))
        assert not np.allclose(source.forward(x), target.forward(x))
        path = save_weights(source, tmp_path / "weights")
        metadata = load_weights(target, path)
        np.testing.assert_allclose(source.forward(x), target.forward(x))
        assert metadata["model_name"] == "mc"
        assert metadata["input_shape"] == [6, 6, 3]

    def test_npz_suffix_appended(self, tmp_path):
        path = save_weights(make_model(0), tmp_path / "weights")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_strict_name_check(self, tmp_path):
        source = make_model(0, name="a")
        path = save_weights(source, tmp_path / "w")
        other = make_model(1, name="b")
        with pytest.raises(ValueError, match="saved from model"):
            load_weights(other, path)
        # Non-strict loading ignores the model name; parameter names (which
        # are layer-scoped) still line up, so the weights transfer.
        load_weights(other, path, strict=False)
        x = np.random.default_rng(9).random((2, 6, 6, 3))
        np.testing.assert_allclose(source.forward(x), other.forward(x))

    def test_creates_missing_directories(self, tmp_path):
        path = save_weights(make_model(0), tmp_path / "nested" / "dir" / "weights")
        assert path.exists()

    def test_load_accepts_path_without_suffix(self, tmp_path):
        source = make_model(0)
        save_weights(source, tmp_path / "weights")
        target = make_model(3)
        load_weights(target, tmp_path / "weights")
        x = np.random.default_rng(4).random((2, 6, 6, 3))
        np.testing.assert_allclose(source.forward(x), target.forward(x))
