"""Tests for the Table 3 (dataset details) experiment."""

import pytest

from repro.experiments.table3 import run_table3
from repro.video.datasets import make_jackson_like, make_roadway_like


@pytest.fixture(scope="module")
def rows():
    jackson = make_jackson_like(num_frames=200, width=96, height=54, seed=3)
    roadway = make_roadway_like(num_frames=200, width=96, height=40, seed=5)
    return run_table3(jackson, roadway)


class TestTable3:
    def test_one_row_per_dataset(self, rows):
        assert [row.name for row in rows] == ["jackson", "roadway"]

    def test_paper_attributes_reported(self, rows):
        jackson, roadway = rows
        assert jackson.paper_resolution == "1920 x 1080"
        assert jackson.paper_frames == 600_000
        assert jackson.paper_unique_events == 506
        assert roadway.paper_resolution == "2048 x 850"
        assert roadway.paper_event_frames == 71_296
        assert roadway.task == "People with red"

    def test_generated_attributes_consistent(self, rows):
        for row in rows:
            assert row.generated_frames == 400
            assert 0 <= row.generated_event_frames <= row.generated_frames
            assert row.generated_unique_events >= 2
            assert row.generated_event_fraction == pytest.approx(
                row.generated_event_frames / row.generated_frames
            )

    def test_event_rarity_preserved(self, rows):
        """The synthetic datasets keep events rare, within 3x of the paper's fraction."""
        for row in rows:
            assert row.generated_event_fraction > 0
            assert 1 / 3 <= row.paper_event_fraction / row.generated_event_fraction <= 3

    def test_frame_rate_matches_paper(self, rows):
        assert all(row.frame_rate == 15.0 for row in rows)

    def test_runs_with_default_generation(self):
        rows = run_table3(num_frames=60)
        assert len(rows) == 2
