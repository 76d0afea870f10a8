"""Per-camera SLO accounting: SLIs, error budgets, burn rates, merging."""

import pytest

from repro.obs.slo import CameraSLOStatus, SLOConfig, SLOReport, SLOTracker


class TestSLOConfig:
    def test_defaults_are_valid(self):
        config = SLOConfig()
        assert config.objective == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"freshness_target_seconds": 0.0},
            {"latency_target_seconds": -1.0},
            {"objective": 0.0},
            {"objective": 1.0},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            SLOConfig(**kwargs)


def _status(**overrides) -> CameraSLOStatus:
    fields = dict(
        camera_id="cam0",
        objective=0.9,
        frames=100,
        fresh=95,
        scored=90,
        within_latency=80,
        burn_rate=0.5,
        burning=False,
    )
    fields.update(overrides)
    return CameraSLOStatus(**fields)


class TestCameraSLOStatus:
    def test_fractions(self):
        status = _status()
        assert status.fresh_fraction == pytest.approx(0.95)
        assert status.latency_fraction == pytest.approx(80 / 90)
        assert status.meets_objective

    def test_empty_camera_is_vacuously_healthy(self):
        status = _status(frames=0, fresh=0, scored=0, within_latency=0)
        assert status.fresh_fraction == 1.0
        assert status.latency_fraction == 1.0
        assert status.meets_objective
        assert status.error_budget_remaining == 1.0

    def test_error_budget_accounting(self):
        # objective 0.9 over 100 frames allows 10 violations; 5 spent.
        assert _status().error_budget_remaining == pytest.approx(0.5)
        # Spending past the budget goes negative.
        assert _status(fresh=80).error_budget_remaining == pytest.approx(-1.0)
        # A zero-width budget is binary: perfect keeps it, any violation kills it.
        assert _status(frames=0, fresh=0).error_budget_remaining == 1.0

    def test_merged_with_adds_counts_and_keeps_worst_burn(self):
        first = _status(frames=60, fresh=55, scored=50, within_latency=45, burn_rate=0.5)
        second = _status(
            frames=40, fresh=40, scored=40, within_latency=35, burn_rate=2.5, burning=True
        )
        merged = first.merged_with(second)
        assert merged.frames == 100 and merged.fresh == 95
        assert merged.scored == 90 and merged.within_latency == 80
        assert merged.burn_rate == 2.5
        assert merged.burning

    def test_merged_with_rejects_mismatches(self):
        with pytest.raises(ValueError):
            _status().merged_with(_status(camera_id="cam1"))
        with pytest.raises(ValueError):
            _status().merged_with(_status(objective=0.95))


class TestSLOTracker:
    def _tracker(self, **kwargs) -> SLOTracker:
        defaults = dict(
            freshness_target_seconds=0.5,
            latency_target_seconds=0.25,
            objective=0.9,
        )
        defaults.update(kwargs)
        return SLOTracker(SLOConfig(**defaults))

    def test_record_scored_classifies_both_slis(self):
        tracker = self._tracker()
        assert tracker.record_scored("cam", 0.1) == (True, True)
        assert tracker.record_scored("cam", 0.4) == (True, False)
        assert tracker.record_scored("cam", 0.9) == (False, False)
        status = tracker.report().camera("cam")
        assert status.frames == 3 and status.scored == 3
        assert status.fresh == 2 and status.within_latency == 1

    def test_lost_frames_count_against_freshness_only(self):
        tracker = self._tracker()
        tracker.record_scored("cam", 0.1)
        tracker.record_lost("cam", 3)
        status = tracker.report().camera("cam")
        assert status.frames == 4 and status.scored == 1
        assert status.fresh_fraction == pytest.approx(0.25)
        assert status.latency_fraction == 1.0  # the one scored frame was fast

    def test_record_lost_nonpositive_is_noop(self):
        tracker = self._tracker()
        tracker.record_lost("cam", 0)
        tracker.record_lost("cam", -5)
        assert tracker.report().camera("cam") is None

    def test_burn_rate_is_windowed(self):
        tracker = self._tracker()  # window 64, objective 0.9 -> allowed 10%
        for _ in range(64):
            tracker.record_scored("cam", 9.9)  # all stale
        status = tracker.report().camera("cam")
        assert status.burn_rate == pytest.approx(10.0)
        assert status.burning
        # 64 fresh frames push the stale ones out of the window: burn
        # resets even though the cumulative SLI stays damaged.
        for _ in range(64):
            tracker.record_scored("cam", 0.01)
        status = tracker.report().camera("cam")
        assert status.burn_rate == 0.0
        assert not status.burning
        assert status.fresh_fraction == pytest.approx(0.5)

    def test_lost_burst_larger_than_window_saturates_it(self):
        tracker = self._tracker()
        tracker.record_lost("cam", 1000)
        status = tracker.report().camera("cam")
        assert status.frames == 1000
        assert status.burn_rate == pytest.approx(10.0)

    def test_unknown_camera_status_is_none(self):
        assert self._tracker().report().camera("ghost") is None

    def test_report_orders_cameras(self):
        tracker = self._tracker()
        for camera_id in ("z", "a", "m"):
            tracker.record_scored(camera_id, 0.1)
        report = tracker.report()
        assert [c.camera_id for c in report.cameras] == ["a", "m", "z"]
        assert report.camera("m").camera_id == "m"
        assert report.camera("ghost") is None


class TestSLOReport:
    def _report(self) -> SLOReport:
        tracker = SLOTracker(SLOConfig(objective=0.9))
        tracker.record_scored("cam0", 0.1)
        tracker.record_scored("cam0", 0.1)
        tracker.record_lost("cam1", 2)
        return tracker.report()

    def test_fleet_aggregates(self):
        report = self._report()
        assert report.frames == 4
        assert report.fresh_fraction == pytest.approx(0.5)
        assert report.latency_fraction == 1.0
        assert report.cameras_missing_objective == 1
        assert report.cameras_burning == 1  # cam1's window is all violations

    def test_summary_line(self):
        summary = self._report().summary()
        assert summary.startswith("slo: fresh 50.0% of frames")
        assert "1/2 cameras below objective, 1 burning" in summary

    def test_empty_report_is_vacuously_healthy(self):
        report = SLOReport(config=SLOConfig(), cameras=())
        assert report.frames == 0
        assert report.fresh_fraction == 1.0
        assert report.latency_fraction == 1.0

    def test_merged_combines_migrated_cameras(self):
        config = SLOConfig(objective=0.9)
        stint_a = SLOTracker(config)
        stint_a.record_scored("cam0", 0.1)
        stint_a.record_scored("only_a", 0.1)
        stint_b = SLOTracker(config)
        stint_b.record_lost("cam0", 1)
        merged = SLOReport.merged([stint_a.report(), None, stint_b.report()])
        assert [c.camera_id for c in merged.cameras] == ["cam0", "only_a"]
        cam0 = merged.camera("cam0")
        assert cam0.frames == 2 and cam0.fresh == 1

    def test_merged_of_nothing_is_none(self):
        assert SLOReport.merged([]) is None
        assert SLOReport.merged([None, None]) is None

    def test_merged_rejects_config_mismatch(self):
        first = SLOReport(config=SLOConfig(objective=0.9), cameras=())
        second = SLOReport(config=SLOConfig(objective=0.95), cameras=())
        with pytest.raises(ValueError):
            SLOReport.merged([first, second])
