"""Camera specs, scenarios, and the synthetic fleet generator."""

import math

import pytest

from repro.fleet.camera import SCENARIOS, CameraFeed, CameraSpec, generate_fleet
from repro.video.scenes import render_scene
from repro.video.synthetic import SurveillanceSceneGenerator

# Every resolution the benchmark's fleets render at.
FLEET_RESOLUTIONS = ((64, 48), (80, 48), (96, 64), (32, 32), (48, 32))


class TestCameraSpec:
    def test_scene_config_applies_scenario_and_scale(self):
        spec = CameraSpec("cam", 64, 48, 10.0, 40, scenario="busy_intersection", event_rate_scale=2.0)
        config = spec.scene_config()
        assert config.pedestrian_rate == pytest.approx(
            SCENARIOS["busy_intersection"]["pedestrian_rate"] * 2.0
        )
        assert (config.width, config.height) == (64, 48)
        assert config.num_frames == 40

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="Unknown scenario"):
            CameraSpec("cam", 64, 48, 10.0, 40, scenario="volcano")

    def test_duration(self):
        spec = CameraSpec("cam", 64, 48, 8.0, 16)
        assert spec.duration == 2.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_rate", math.nan),
            ("frame_rate", math.inf),
            ("start_time", math.nan),
            ("event_rate_scale", math.nan),
            ("width", 31),
            ("height", 16),
        ],
    )
    def test_a_spec_that_cannot_render_is_rejected_when_built(self, field, value):
        sizes = {"width": 64, "height": 48, "frame_rate": 10.0, "num_frames": 4, field: value}
        with pytest.raises(ValueError, match="must be|at least 32x32"):
            CameraSpec("cam", **sizes)


class TestCameraFeed:
    def test_arrivals_are_monotonic_and_complete(self):
        spec = CameraSpec("cam", 32, 32, 10.0, 12, seed=5, start_time=0.5)
        feed = CameraFeed(spec)
        assert len(feed) == len(feed.stream) == 12
        times = [feed.arrival_time(i) for i in range(len(feed))]
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.5 + 0.1)
        assert [f.index for f in feed.stream] == list(range(12))

    def test_stream_rendered_once(self):
        feed = CameraFeed(CameraSpec("cam", 32, 32, 10.0, 4, seed=1))
        assert feed.stream is feed.stream

    @pytest.mark.parametrize("resolution", FLEET_RESOLUTIONS, ids=lambda r: f"{r[0]}x{r[1]}")
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_a_frame_is_a_function_of_its_spec_and_index(self, scenario, resolution):
        """Rendering frame i alone, in any order, gives the feed's frame i."""
        spec = CameraSpec("cam", *resolution, 10.0, 12, scenario=scenario, seed=11)
        generator = SurveillanceSceneGenerator(spec.scene_config())
        objects = generator.spawn_objects()
        noise_std = generator.config.noise_std
        stream = CameraFeed(spec).stream
        for i in reversed(range(spec.num_frames)):
            pixels = render_scene(generator.background, objects, i, noise_std=noise_std)
            assert pixels.tobytes() == stream[i].pixels.tobytes()


class TestGenerateFleet:
    def test_deterministic_for_seed(self):
        assert generate_fleet(8, seed=3) == generate_fleet(8, seed=3)
        assert generate_fleet(8, seed=3) != generate_fleet(8, seed=4)

    def test_covers_all_scenarios_and_diverse_shapes(self):
        fleet = generate_fleet(len(SCENARIOS) * 2, seed=0)
        assert {spec.scenario for spec in fleet} == set(SCENARIOS)
        assert len({spec.resolution for spec in fleet}) > 1
        assert len({spec.frame_rate for spec in fleet}) > 1
        assert len({spec.camera_id for spec in fleet}) == len(fleet)

    def test_num_frames_match_duration(self):
        for spec in generate_fleet(6, seed=2, duration_seconds=3.0):
            assert spec.num_frames == pytest.approx(3.0 * spec.frame_rate, abs=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_fleet(0)
        with pytest.raises(ValueError):
            generate_fleet(4, scenarios=["volcano"])

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration_seconds must be positive and finite"):
            generate_fleet(4, duration_seconds=duration)


class TestDistricts:
    def test_district_prefixes_are_contiguous_blocks(self):
        from repro.fleet.camera import district_of

        fleet = generate_fleet(16, seed=0, districts=4)
        prefixes = [district_of(spec.camera_id) for spec in fleet]
        assert prefixes == sorted(prefixes)  # contiguous in generation order
        assert set(prefixes) == {"d00", "d01", "d02", "d03"}
        assert all(prefixes.count(d) == 4 for d in set(prefixes))

    def test_uneven_split_distributes_remainder(self):
        from collections import Counter

        from repro.fleet.camera import district_of

        fleet = generate_fleet(10, seed=0, districts=3)
        sizes = sorted(Counter(district_of(s.camera_id) for s in fleet).values())
        assert sizes == [3, 3, 4]

    def test_each_district_leans_on_a_primary_scenario(self):
        from collections import Counter

        from repro.fleet.camera import district_of

        fleet = generate_fleet(24, seed=1, districts=2)
        names = sorted(SCENARIOS)
        for d in range(2):
            scenarios = [
                s.scenario for s in fleet if district_of(s.camera_id) == f"d{d:02d}"
            ]
            primary, count = Counter(scenarios).most_common(1)[0]
            assert primary == names[d % len(names)]
            assert count > len(scenarios) // 3  # dominant, not exclusive
            assert len(set(scenarios)) > 1  # still diverse

    def test_random_draws_unchanged_by_districting(self):
        districted = generate_fleet(12, seed=5, districts=3)
        flat = generate_fleet(12, seed=5)
        key = lambda s: (s.width, s.height, s.frame_rate, s.seed, s.start_time)
        assert [key(s) for s in districted] == [key(s) for s in flat]

    def test_district_of_parses_generated_ids_only(self):
        from repro.fleet.camera import district_of

        assert district_of("d03-cam0042") == "d03"
        assert district_of("cam007") is None
        assert district_of("depot-cam1") is None

    def test_validation(self):
        with pytest.raises(ValueError, match="districts"):
            generate_fleet(4, districts=0)
        with pytest.raises(ValueError, match="districts"):
            generate_fleet(4, districts=5)
