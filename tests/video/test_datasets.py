"""Tests for the Jackson-like and Roadway-like dataset builders."""

import numpy as np
import pytest

from repro.video.datasets import DatasetSpec, make_jackson_like, make_roadway_like
from repro.video.synthetic import TASK_PEDESTRIAN, TASK_PEOPLE_WITH_RED


@pytest.fixture(scope="module")
def small_jackson():
    return make_jackson_like(num_frames=120, width=96, height=54, seed=3)


@pytest.fixture(scope="module")
def small_roadway():
    return make_roadway_like(num_frames=120, width=96, height=40, seed=5)


class TestSpecs:
    def test_jackson_spec(self, small_jackson):
        spec = small_jackson.spec
        assert spec.name == "jackson"
        assert spec.task == TASK_PEDESTRIAN
        assert spec.paper_resolution == (1920, 1080)
        assert spec.resolution == (96, 54)
        assert spec.frame_rate == 15.0
        assert spec.scale == pytest.approx(96 / 1920)

    def test_roadway_spec(self, small_roadway):
        spec = small_roadway.spec
        assert spec.name == "roadway"
        assert spec.task == TASK_PEOPLE_WITH_RED
        assert spec.paper_resolution == (2048, 850)

    def test_crop_rescaled_from_paper_coordinates(self, small_jackson):
        x0, y0, x1, y1 = small_jackson.spec.crop
        # Paper crop is the bottom half of the frame: (0, 539) - (1919, 1079).
        assert x0 == 0 and x1 == 96
        assert y0 == pytest.approx(539 / 1080 * 54, abs=1)
        assert y1 == 54

    def test_roadway_crop_covers_street_band(self, small_roadway):
        x0, y0, x1, y1 = small_roadway.spec.crop
        assert x0 == 0 and x1 == 96
        assert 0 < y0 < y1 <= 40


class TestGeneratedData:
    def test_split_sizes(self, small_jackson):
        assert len(small_jackson.train_stream) == 120
        assert len(small_jackson.test_stream) == 120
        assert len(small_jackson.train_labels) == 120
        assert len(small_jackson.test_labels) == 120

    def test_train_and_test_share_background_but_not_traffic(self, small_roadway):
        train0 = small_roadway.train_stream[0].pixels
        test0 = small_roadway.test_stream[0].pixels
        # Same static viewpoint: most pixels identical at frame 0 unless an
        # object happens to be present; the difference must be sparse.
        differing = np.mean(np.abs(train0 - test0) > 0.05)
        assert differing < 0.2
        # But the object traffic differs across the whole video.
        train_labels = small_roadway.train_labels.labels
        test_labels = small_roadway.test_labels.labels
        assert not np.array_equal(train_labels, test_labels)

    def test_resolution_matches_spec(self, small_roadway):
        assert small_roadway.train_stream.resolution == small_roadway.spec.resolution

    def test_deterministic_given_seed(self):
        a = make_jackson_like(num_frames=40, width=64, height=36, seed=11)
        b = make_jackson_like(num_frames=40, width=64, height=36, seed=11)
        np.testing.assert_array_equal(a.train_labels.labels, b.train_labels.labels)
        np.testing.assert_array_equal(a.test_stream[7].pixels, b.test_stream[7].pixels)

    def test_different_seed_changes_traffic(self):
        a = make_jackson_like(num_frames=60, width=64, height=36, seed=11)
        b = make_jackson_like(num_frames=60, width=64, height=36, seed=12)
        assert not np.array_equal(a.train_labels.labels, b.train_labels.labels)

    def test_summary_reports_generated_statistics(self, small_jackson):
        summary = small_jackson.summary()
        assert summary["frames"] == 240
        assert summary["task"] == TASK_PEDESTRIAN
        assert summary["event_frames"] == (
            small_jackson.train_labels.num_positive + small_jackson.test_labels.num_positive
        )

    def test_scene_overrides_are_applied(self):
        quiet = make_roadway_like(
            num_frames=60, width=64, height=36, seed=2, red_pedestrian_rate=0.0
        )
        assert quiet.train_labels.num_positive == 0
        assert quiet.test_labels.num_positive == 0


class TestEventStatistics:
    def test_events_are_rare_but_present(self):
        """Events occupy a minority of frames but several distinct events exist."""
        dataset = make_roadway_like(num_frames=480, width=96, height=40, seed=23)
        for labels in (dataset.train_labels, dataset.test_labels):
            assert 0.02 < labels.num_positive / len(labels) < 0.6
            assert len(labels.events()) >= 2

    def test_dataset_spec_is_frozen(self, small_jackson):
        with pytest.raises(AttributeError):
            small_jackson.spec.name = "other"  # type: ignore[misc]

    def test_spec_scale_consistency(self):
        spec = DatasetSpec(
            name="x",
            task="t",
            paper_resolution=(1000, 500),
            resolution=(100, 50),
            frame_rate=15.0,
            num_frames=10,
            paper_crop=(0, 0, 999, 499),
            crop=(0, 0, 100, 50),
        )
        assert spec.scale == pytest.approx(0.1)
