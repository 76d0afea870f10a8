"""Telemetry counter/gauge/histogram accuracy and registry semantics."""

import math

import pytest

from repro.fleet.telemetry import (
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
    nearest_rank,
    sanitize_metric_name,
)


# The three rank rules ``nearest_rank`` replaced, verbatim, as references.
def _old_histogram_rank(ordered, q):  # Histogram.percentile_since, q in [0, 100]
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _old_events_rank(ordered, q):  # events.plane.nearest_rank_percentile, q in (0, 1]
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _old_bench_rank(ordered, q):  # benchmarks/bench_events.nearest_rank (no empty case)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


class TestNearestRank:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.5],
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 1.0, 1.0, 2.0, 2.0],  # ties
            [float(v) for v in range(1, 101)],
            [0.25] * 7,
        ],
        ids=["empty", "single", "four", "ties", "hundred", "all-equal"],
    )
    @pytest.mark.parametrize("percent", [0, 1, 25, 50, 90, 99, 100])
    def test_matches_the_three_rules_it_replaced(self, values, percent):
        fraction = percent / 100.0
        got = nearest_rank(values, fraction)
        assert got == _old_histogram_rank(values, percent)
        if percent > 0:  # the events rule rejected q=0 outright
            assert got == _old_events_rank(values, fraction)
            if values:
                assert got == _old_bench_rank(values, fraction)

    def test_ends_single_value_and_empty(self):
        assert nearest_rank([], 0.5) == 0.0
        assert nearest_rank([7.0], 0.0) == nearest_rank([7.0], 1.0) == 7.0
        assert nearest_rank([1.0, 2.0, 3.0], 0.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 1.0) == 3.0

    @pytest.mark.parametrize("fraction", [-0.01, 1.01])
    def test_rejects_fractions_outside_the_unit_interval(self, fraction):
        with pytest.raises(ValueError):
            nearest_rank([1.0], fraction)

    def test_accepts_any_ascending_sequence(self):
        np = pytest.importorskip("numpy")
        assert nearest_rank(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0
        assert nearest_rank(np.array([]), 0.5) == 0.0


class TestCounter:
    def test_accumulates_exactly(self):
        counter = Counter("frames")
        for _ in range(250):
            counter.inc()
        counter.inc(7)
        assert counter.value == 257

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("frames").inc(-1)


class TestGauge:
    def test_tracks_value_and_watermarks(self):
        gauge = Gauge("depth")
        for value in [3, 9, 1, 4]:
            gauge.set(value)
        assert gauge.value == 4
        assert gauge.min == 1
        assert gauge.max == 9

    def test_unset_gauge_reads_zero(self):
        gauge = Gauge("depth")
        assert gauge.value == 0.0 and gauge.min == 0.0 and gauge.max == 0.0


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("latency")
        for value in [4.0, 1.0, 3.0, 2.0]:
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.mean == 2.5
        assert hist.min == 1.0 and hist.max == 4.0

    def test_percentiles_nearest_rank(self):
        hist = Histogram("latency")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 1.0

    def test_empty_histogram(self):
        hist = Histogram("latency")
        assert hist.mean == 0.0 and hist.percentile(50) == 0.0
        # The extreme quantiles are just as safe on an empty histogram.
        assert hist.percentile(0) == 0.0
        assert hist.percentile(100) == 0.0
        assert hist.min == 0.0 and hist.max == 0.0 and hist.total == 0.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            Histogram("latency").percentile(101)


class TestHistogramWindow:
    """Regression: histograms must not retain every observation forever."""

    def test_bounded_memory_over_long_run(self):
        hist = Histogram("latency", window=256)
        for i in range(100_000):
            hist.observe(i * 1e-4)
        # Retention is capped at the window; lifetime accounting stays exact.
        assert len(hist.values) == 256
        assert hist.count == 100_000
        assert hist.discarded == 100_000 - 256
        assert hist.total == pytest.approx(sum(i * 1e-4 for i in range(100_000)))
        assert hist.min == 0.0
        assert hist.max == pytest.approx(99_999 * 1e-4)
        assert hist.mean == pytest.approx(hist.total / 100_000)

    def test_percentile_since_exact_within_retained_window(self):
        hist = Histogram("latency", window=128)
        for i in range(1000):
            hist.observe(float(i))
        # The control contract: a window starting inside the retained tail
        # yields the exact nearest-rank percentile over that window.
        start = hist.count - 100
        assert hist.percentile_since(100, start) == 999.0
        assert hist.percentile_since(99, start) == 998.0
        assert hist.percentile_since(50, start) == 949.0
        assert hist.percentile_since(0, start) == 900.0

    def test_window_start_before_retention_clamps_to_tail(self):
        hist = Histogram("latency", window=8)
        for i in range(100):
            hist.observe(float(i))
        # start=0 predates retention: computed over what is still held.
        assert hist.percentile_since(0, 0) == 92.0
        assert hist.percentile_since(100, 0) == 99.0

    def test_global_percentile_uses_retained_tail(self):
        hist = Histogram("latency", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            hist.observe(value)
        assert hist.percentile(100) == 6.0
        assert hist.percentile(0) == 3.0

    def test_merge_respects_destination_window(self):
        left = Histogram("latency", window=4)
        right = Histogram("latency", window=4)
        for value in (1.0, 2.0, 3.0):
            left.observe(value)
        for value in (4.0, 5.0, 6.0):
            right.observe(value)
        left.merge_from(right)
        assert left.count == 6
        assert left.total == 21.0
        assert len(left.values) == 4  # bounded by the destination's window
        assert left.values == (3.0, 4.0, 5.0, 6.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Histogram("latency", window=0)


class TestTelemetryRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = TelemetryRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_name_collision_across_types(self):
        registry = TelemetryRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_contains_everything(self):
        registry = TelemetryRegistry()
        registry.counter("frames.scored").inc(5)
        registry.gauge("queue.depth").set(3)
        registry.histogram("wait").observe(0.5)
        snap = registry.snapshot()
        assert snap["frames.scored"] == 5
        assert snap["queue.depth"]["value"] == 3
        assert snap["wait"]["count"] == 1

    def test_counters_prefix_filter(self):
        registry = TelemetryRegistry()
        registry.counter("frames.scored").inc(2)
        registry.counter("frames.dropped").inc(1)
        registry.counter("events.closed").inc(9)
        assert registry.counters("frames.") == {"frames.scored": 2, "frames.dropped": 1}


class TestMergeAndWindows:
    def test_merge_counters_add_under_prefix(self):
        from repro.fleet.telemetry import TelemetryRegistry

        cluster = TelemetryRegistry()
        cluster.counter("node0.frames.scored").inc(5)
        node = TelemetryRegistry()
        node.counter("frames.scored").inc(3)
        node.counter("frames.dropped_oldest").inc(2)
        result = cluster.merge(node, prefix="node0.")
        assert result is cluster
        counters = cluster.counters()
        assert counters["node0.frames.scored"] == 8.0
        assert counters["node0.frames.dropped_oldest"] == 2.0

    def test_merge_histograms_concatenate_observations(self):
        from repro.fleet.telemetry import TelemetryRegistry

        a = TelemetryRegistry()
        b = TelemetryRegistry()
        for v in (0.1, 0.2):
            a.histogram("latency").observe(v)
        for v in (0.3, 0.4):
            b.histogram("latency").observe(v)
        a.merge(b)
        merged = a.histogram("latency")
        assert merged.count == 4
        assert merged.values == (0.1, 0.2, 0.3, 0.4)
        assert merged.percentile(100) == 0.4

    def test_merge_gauges_keep_watermarks_and_last_value(self):
        from repro.fleet.telemetry import TelemetryRegistry

        node = TelemetryRegistry()
        gauge = node.gauge("queue.depth")
        gauge.set(7.0)
        gauge.set(1.0)
        gauge.set(3.0)
        cluster = TelemetryRegistry()
        cluster.merge(node, prefix="node1.")
        merged = cluster.gauge("node1.queue.depth")
        assert merged.value == 3.0
        assert merged.min == 1.0
        assert merged.max == 7.0

    def test_merge_never_set_gauge_stays_unset_looking(self):
        from repro.fleet.telemetry import TelemetryRegistry

        node = TelemetryRegistry()
        node.gauge("idle")
        cluster = TelemetryRegistry()
        cluster.merge(node)
        assert cluster.gauge("idle").value == 0.0
        assert cluster.gauge("idle").min == 0.0

    def test_percentile_since_windows(self):
        from repro.fleet.telemetry import Histogram

        hist = Histogram("wait")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.percentile_since(50, 0) == 2.0
        assert hist.percentile_since(99, 2) == 4.0
        assert hist.percentile_since(99, 4) == 0.0  # empty window
        with pytest.raises(ValueError):
            hist.percentile_since(99, -1)
        with pytest.raises(ValueError):
            hist.percentile_since(101, 0)

    def test_percentile_since_edge_windows(self):
        from repro.fleet.telemetry import Histogram

        hist = Histogram("wait")
        # Empty histogram: any start, any quantile -> 0.0.
        assert hist.percentile_since(99, 0) == 0.0
        assert hist.percentile_since(0, 5) == 0.0
        for v in (3.0, 1.0, 2.0):
            hist.observe(v)
        # start past the end is an empty window, not an error — a control
        # loop whose previous tick saw the same count lands exactly here.
        assert hist.percentile_since(99, 3) == 0.0
        assert hist.percentile_since(99, 17) == 0.0
        # q = 0 is the window minimum, q = 100 the maximum (nearest rank).
        assert hist.percentile_since(0, 0) == 1.0
        assert hist.percentile_since(100, 0) == 3.0
        assert hist.percentile_since(0, 1) == 1.0  # window (1.0, 2.0)
        assert hist.percentile_since(100, 1) == 2.0
        # Single-element window: every quantile is that element.
        assert hist.percentile_since(0, 2) == 2.0
        assert hist.percentile_since(50, 2) == 2.0
        assert hist.percentile_since(100, 2) == 2.0

    def test_merge_watermarks_survive_chained_merges(self):
        # node -> region -> cluster: min/max watermarks must carry through
        # every hop, not just the first merge.
        node = TelemetryRegistry()
        gauge = node.gauge("queue.depth")
        gauge.set(9.0)
        gauge.set(2.0)
        region = TelemetryRegistry().merge(node, prefix="node0.")
        cluster = TelemetryRegistry().merge(region)
        merged = cluster.gauge("node0.queue.depth")
        assert merged.value == 2.0
        assert merged.min == 2.0
        assert merged.max == 9.0


class TestSanitizeMetricName:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("frames.dropped.oldest") == "frames_dropped_oldest"
        assert sanitize_metric_name("queue.depth.cam-007") == "queue_depth_cam_007"

    def test_leading_digit_and_empty_get_prefixed(self):
        assert sanitize_metric_name("7zip") == "_7zip"
        assert sanitize_metric_name("") == "_"

    def test_valid_names_pass_through(self):
        assert sanitize_metric_name("frames_scored_total") == "frames_scored_total"
        assert sanitize_metric_name("node:uplink_bits") == "node:uplink_bits"

