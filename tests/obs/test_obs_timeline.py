"""Metric timelines: scrape flattening, series access, and exporters."""

import json

import pytest

from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline, TimelineSample


def _registry() -> TelemetryRegistry:
    registry = TelemetryRegistry()
    registry.counter("frames.scored").inc(5)
    registry.gauge("queue.depth").set(3.0)
    for value in (0.1, 0.2, 0.3, 0.4):
        registry.histogram("wait").observe(value)
    return registry


class TestScraping:
    def test_scrape_flattens_all_metric_families(self):
        timeline = MetricsTimeline()
        sample = timeline.scrape(1.0, "node0", _registry())
        assert sample.time == 1.0 and sample.source == "node0"
        assert sample.get("frames.scored") == 5.0
        assert sample.get("queue.depth") == 3.0  # gauges keep last value
        assert sample.get("wait.count") == 4.0
        assert sample.get("wait.mean") == pytest.approx(0.25)
        assert sample.get("wait.p50") == pytest.approx(0.2)
        assert sample.get("wait.p99") == pytest.approx(0.4)
        assert sample.get("missing", -1.0) == -1.0

    def test_samples_accumulate_in_order(self):
        timeline = MetricsTimeline()
        registry = _registry()
        timeline.scrape(0.25, "node0", registry)
        registry.counter("frames.scored").inc(2)
        timeline.scrape(0.5, "node0", registry)
        assert len(timeline) == 2
        assert [s.time for s in timeline.samples] == [0.25, 0.5]
        assert timeline.samples[1].get("frames.scored") == 7.0

    def test_sources_and_metric_names_sorted(self):
        timeline = MetricsTimeline()
        timeline.scrape(0.0, "node1", _registry())
        timeline.scrape(0.0, "control", TelemetryRegistry())
        assert timeline.sources == ["control", "node1"]
        names = timeline.metric_names()
        assert names == sorted(names)
        assert "wait.p99" in names


class TestSeriesAccess:
    def test_latest_per_source(self):
        timeline = MetricsTimeline()
        registry = _registry()
        timeline.scrape(0.25, "node0", registry)
        timeline.scrape(0.5, "node0", registry)
        assert timeline.latest("node0").time == 0.5
        assert timeline.latest("ghost") is None

    def test_latest_ignores_other_sources(self):
        timeline = MetricsTimeline()
        timeline.scrape(0.25, "node0", _registry())
        timeline.scrape(0.5, "node1", TelemetryRegistry())
        assert timeline.latest("node0").time == 0.25
        assert timeline.latest("node1").get("frames.scored") == 0.0

    def test_samples_do_not_follow_later_registry_changes(self):
        timeline = MetricsTimeline()
        registry = _registry()
        first = timeline.scrape(0.0, "node0", registry)
        registry.counter("frames.scored").inc(2)
        registry.gauge("queue.depth").set(9.0)
        assert first.get("frames.scored") == 5.0 and first.get("queue.depth") == 3.0

    def test_metric_names_include_metrics_born_after_the_first_scrape(self):
        timeline = MetricsTimeline()
        registry = TelemetryRegistry()
        timeline.scrape(0.0, "node0", registry)  # metric not born yet
        registry.counter("frames.scored").inc(5)
        timeline.scrape(1.0, "node0", registry)
        assert timeline.metric_names() == ["frames.scored"]
        assert [s.get("frames.scored", -1.0) for s in timeline.samples] == [-1.0, 5.0]


class TestExporters:
    def test_jsonl_is_one_sorted_object_per_scrape(self):
        timeline = MetricsTimeline()
        timeline.scrape(0.25, "node0", _registry())
        timeline.scrape(0.5, "control", TelemetryRegistry())
        lines = timeline.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["t"] == 0.25 and first["source"] == "node0"
        assert first["values"]["wait.p50"] == pytest.approx(0.2)
        assert json.loads(lines[1])["values"] == {}
        # Keys are sorted so the export is byte-stable.
        assert lines[0].index('"source"') < lines[0].index('"values"')

    def test_write_jsonl_round_trips(self, tmp_path):
        timeline = MetricsTimeline()
        timeline.scrape(0.25, "node0", _registry())
        path = timeline.write_jsonl(tmp_path / "metrics.jsonl")
        assert path.read_text(encoding="utf-8") == timeline.to_jsonl() + "\n"

    def test_write_jsonl_empty_timeline_writes_empty_file(self, tmp_path):
        path = MetricsTimeline().write_jsonl(tmp_path / "empty.jsonl")
        assert path.read_text(encoding="utf-8") == ""

    def test_prometheus_emits_latest_value_per_source(self):
        timeline = MetricsTimeline()
        registry = _registry()
        timeline.scrape(0.25, "node0", registry)
        registry.counter("frames.scored").inc(5)
        timeline.scrape(0.5, "node0", registry)
        text = timeline.to_prometheus()
        assert "# HELP frames_scored Timeline series for telemetry 'frames.scored'." in text
        assert "# TYPE frames_scored untyped" in text
        assert 'frames_scored{node="node0"} 10' in text
        assert 'frames_scored{node="node0"} 5' not in text  # only the latest
        assert 'wait_p99{node="node0"} 0.4' in text
        assert text.endswith("\n")

    def test_prometheus_labels_every_source(self):
        timeline = MetricsTimeline()
        timeline.scrape(0.0, "node0", _registry())
        timeline.scrape(0.0, "node1", _registry())
        text = timeline.to_prometheus()
        assert 'queue_depth{node="node0"} 3' in text
        assert 'queue_depth{node="node1"} 3' in text
        assert text.count("# TYPE queue_depth untyped") == 1

    def test_prometheus_gauge_exports_its_last_set_value(self):
        timeline = MetricsTimeline()
        registry = _registry()
        registry.gauge("queue.depth").set(7.0)
        timeline.scrape(0.0, "node0", registry)
        text = timeline.to_prometheus()
        assert "# TYPE queue_depth untyped" in text
        assert 'queue_depth{node="node0"} 7' in text
        assert 'queue_depth{node="node0"} 3' not in text

    def test_prometheus_histogram_exports_every_sub_series(self):
        timeline = MetricsTimeline()
        timeline.scrape(0.0, "node0", _registry())
        text = timeline.to_prometheus()
        assert "# HELP wait_count Timeline series for telemetry 'wait.count'." in text
        assert 'wait_count{node="node0"} 4' in text
        assert 'wait_mean{node="node0"} 0.25' in text
        assert 'wait_p50{node="node0"} 0.2' in text
        assert 'wait_p99{node="node0"} 0.4' in text

    def test_prometheus_is_deterministic_and_sorted(self):
        def build(order: tuple[str, ...]) -> str:
            timeline = MetricsTimeline()
            for source in order:
                timeline.scrape(0.0, source, _registry())
            return timeline.to_prometheus()

        text = build(("node1", "node0"))
        # Scrape order does not matter: families and sources are both sorted.
        assert text == build(("node0", "node1"))
        assert text.endswith("\n")
        types = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]
        assert types == sorted(types)
        assert text.index('queue_depth{node="node0"}') < text.index('queue_depth{node="node1"}')

    def test_prometheus_empty_timeline_is_empty(self):
        assert MetricsTimeline().to_prometheus() == ""

    def test_write_prometheus_round_trips(self, tmp_path):
        timeline = MetricsTimeline()
        timeline.scrape(0.0, "node0", _registry())
        path = timeline.write_prometheus(tmp_path / "metrics.prom")
        assert path.read_text(encoding="utf-8") == timeline.to_prometheus()


class TestTimelineSample:
    def test_is_frozen(self):
        sample = TimelineSample(time=0.0, source="node0", values={})
        with pytest.raises(AttributeError):
            sample.time = 1.0
