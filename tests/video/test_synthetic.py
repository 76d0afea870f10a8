"""Tests for the synthetic surveillance-scene generator."""

import numpy as np
import pytest

from repro.video.annotations import FrameLabels
from repro.video.scenes import ObjectKind
from repro.video.synthetic import (
    TASK_PEDESTRIAN,
    TASK_PEOPLE_WITH_RED,
    SceneConfig,
    SurveillanceSceneGenerator,
)


class TestSceneConfig:
    def test_defaults_are_valid(self):
        SceneConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 16},
            {"num_frames": 0},
            {"frame_rate": 0},
            {"pedestrian_rate": -0.1},
            {"crossing_fraction": 1.5},
            {"person_speed_range": (0.0, 1.0)},
            {"person_speed_range": (2.0, 1.0)},
            {"max_person_duration": 1},
            {"noise_std": -0.01},
            {"noise_std": float("nan")},
            # Non-finite speeds used to pass here and overflow in spawn_objects.
            {"person_speed_range": (float("nan"), 1.0)},
            {"person_speed_range": (1.0, float("nan"))},
            {"person_speed_range": (1.0, float("inf"))},
            {"person_speed_range": (float("-inf"), 1.0)},
            {"person_speed_range": (float("nan"), float("nan"))},
            {"person_speed_range": (float("inf"), float("inf"))},
            {"frame_rate": float("nan")},
            {"frame_rate": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SceneConfig(**kwargs)


class TestSpawning:
    def test_deterministic_given_seed(self, tiny_scene):
        a = tiny_scene.spawn_objects()
        b = tiny_scene.spawn_objects()
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.kind == y.kind and x.start_frame == y.start_frame
            assert x.start_position == y.start_position

    def test_object_seed_controls_traffic_independently(self):
        base = SceneConfig(width=64, height=48, num_frames=60, seed=1, pedestrian_rate=0.1)
        other = SceneConfig(
            width=64, height=48, num_frames=60, seed=1, pedestrian_rate=0.1, object_seed=999
        )
        a = SurveillanceSceneGenerator(base)
        b = SurveillanceSceneGenerator(other)
        np.testing.assert_array_equal(a.background.image, b.background.image)
        positions_a = [o.start_position for o in a.spawn_objects()]
        positions_b = [o.start_position for o in b.spawn_objects()]
        assert positions_a != positions_b

    def test_zero_rates_spawn_nothing(self):
        config = SceneConfig(
            width=64,
            height=48,
            num_frames=30,
            pedestrian_rate=0.0,
            red_pedestrian_rate=0.0,
            car_rate=0.0,
            cyclist_rate=0.0,
        )
        assert SurveillanceSceneGenerator(config).spawn_objects() == []

    def test_person_duration_cap(self):
        config = SceneConfig(
            width=96, height=64, num_frames=100, pedestrian_rate=0.3, max_person_duration=12
        )
        objects = SurveillanceSceneGenerator(config).spawn_objects()
        people = [o for o in objects if o.kind.is_person]
        assert people
        assert all(o.end_frame - o.start_frame <= 12 for o in people)

    def test_vehicles_travel_on_road(self, tiny_scene):
        objects = tiny_scene.spawn_objects()
        road_y0, road_y1 = tiny_scene.background.road_rows
        cars = [o for o in objects if o.kind is ObjectKind.CAR]
        assert cars
        for car in cars:
            assert road_y0 <= car.start_position[1] <= road_y1


class TestLabels:
    def test_pedestrian_task_only_counts_people_in_crosswalk(self, tiny_scene):
        objects = tiny_scene.spawn_objects()
        labels = tiny_scene.labels_for_task(objects, TASK_PEDESTRIAN)
        assert isinstance(labels, FrameLabels)
        assert len(labels) == tiny_scene.config.num_frames
        # Manually recompute: a frame is positive iff some person's centre is
        # inside the crosswalk region.
        region = tiny_scene.background.crosswalk_region
        for t in range(len(labels)):
            expected = any(
                o.kind.is_person
                and o.active_at(t)
                and region[0] <= o.center_at(t)[0] < region[2]
                and region[1] <= o.center_at(t)[1] < region[3]
                for o in objects
            )
            assert bool(labels[t]) == expected

    def test_red_task_ignores_regular_pedestrians(self, tiny_scene):
        objects = [
            o for o in tiny_scene.spawn_objects() if o.kind is not ObjectKind.RED_PEDESTRIAN
        ]
        labels = tiny_scene.labels_for_task(objects, TASK_PEOPLE_WITH_RED)
        assert labels.num_positive == 0

    def test_unknown_task_rejected(self, tiny_scene):
        with pytest.raises(ValueError, match="Unknown task"):
            tiny_scene.labels_for_task([], "find_unicorns")


class TestGenerate:
    def test_generate_produces_consistent_bundle(self, tiny_scene):
        scene = tiny_scene.generate()
        assert len(scene.stream) == tiny_scene.config.num_frames
        assert set(scene.labels) == {TASK_PEDESTRIAN, TASK_PEOPLE_WITH_RED}
        for labels in scene.labels.values():
            assert len(labels) == len(scene.stream)

    def test_rendered_frames_show_positive_frames_differ_from_background(self, tiny_scene):
        scene = tiny_scene.generate()
        labels = scene.labels[TASK_PEOPLE_WITH_RED]
        positives = np.flatnonzero(labels.labels)
        if positives.size == 0:
            pytest.skip("No red-pedestrian events in this tiny scene")
        frame = scene.stream[int(positives[0])]
        diff = np.abs(frame.pixels - scene.background.image).max()
        assert diff > 0.2

    def test_stream_is_deterministic(self, tiny_scene):
        a = tiny_scene.generate().stream
        b = tiny_scene.generate().stream
        np.testing.assert_array_equal(a[5].pixels, b[5].pixels)
