"""Alert-rule evaluation over metric timelines: edge cases and determinism."""

import pytest

from repro.obs.alerts import (
    AlertEvent,
    AlertLog,
    AlertRule,
    BurnRateRule,
    evaluate_alerts,
    slo_burn_rule,
)
from repro.obs.slo import SLOConfig
from repro.obs.timeline import MetricsTimeline, TimelineSample


def make_timeline(rows):
    """A timeline from ``(time, source, values)`` rows."""
    timeline = MetricsTimeline()
    for time, source, values in rows:
        timeline._samples.append(
            TimelineSample(time=time, source=source, values=dict(values))
        )
    return timeline


QUEUE_RULE = AlertRule(name="queue_wait", metric="wait_p99", threshold=0.5)


# --- rule validation --------------------------------------------------------


def test_rule_rejects_bad_fields():
    with pytest.raises(ValueError, match="severity"):
        AlertRule(name="r", metric="m", threshold=1.0, severity="fatal")
    with pytest.raises(ValueError, match="op"):
        AlertRule(name="r", metric="m", threshold=1.0, op="eq")
    with pytest.raises(ValueError, match="mode"):
        AlertRule(name="r", metric="m", threshold=1.0, mode="delta")
    with pytest.raises(ValueError, match="for_seconds"):
        AlertRule(name="r", metric="m", threshold=1.0, for_seconds=-1.0)
    with pytest.raises(ValueError, match="non-empty"):
        AlertRule(name="", metric="m", threshold=1.0)
    with pytest.raises(ValueError, match="objective"):
        BurnRateRule(name="b", objective=1.0, threshold=2.0, window_seconds=1.0)
    with pytest.raises(ValueError, match="window_seconds"):
        BurnRateRule(name="b", objective=0.9, threshold=2.0, window_seconds=0.0)


def test_ops_cover_both_directions():
    ge = AlertRule(name="r", metric="m", threshold=1.0, op="ge")
    assert ge.breached(1.0) and not ge.breached(0.99)
    lt = AlertRule(name="r", metric="m", threshold=1.0, op="lt")
    assert lt.breached(0.5) and not lt.breached(1.0)
    le = AlertRule(name="r", metric="m", threshold=1.0, op="le")
    assert le.breached(1.0) and not le.breached(1.01)


# --- evaluation edge cases --------------------------------------------------


def test_empty_timeline_fires_nothing():
    log = evaluate_alerts(make_timeline([]), [QUEUE_RULE])
    assert len(log) == 0
    assert log.summary() == "alerts: none fired"
    assert log.intervals() == []
    assert log.to_jsonl() == ""


def test_fire_and_resolve_pair_into_an_interval():
    timeline = make_timeline(
        [
            (0.25, "node0", {"wait_p99": 0.1}),
            (0.50, "node0", {"wait_p99": 0.9}),
            (0.75, "node0", {"wait_p99": 0.2}),
        ]
    )
    log = evaluate_alerts(timeline, [QUEUE_RULE])
    assert [(e.state, e.time) for e in log.events] == [
        ("firing", 0.50),
        ("resolved", 0.75),
    ]
    (interval,) = log.intervals()
    assert (interval.start, interval.end) == (0.50, 0.75)
    assert interval.resolved
    assert log.active == []


def test_never_resolving_rule_stays_open():
    timeline = make_timeline(
        [(0.25 * i, "node0", {"wait_p99": 0.9}) for i in range(1, 5)]
    )
    log = evaluate_alerts(timeline, [QUEUE_RULE])
    assert [e.state for e in log.events] == ["firing"]
    (interval,) = log.intervals()
    assert interval.end is None and not interval.resolved
    assert log.active == [("queue_wait", "node0")]
    assert log.summary() == "alerts: 1 fired, 0 resolved, 1 still firing"


def test_flapping_metric_never_fires_with_for_duration():
    rule = AlertRule(name="queue_wait", metric="wait_p99", threshold=0.5, for_seconds=0.6)
    # Breaches never hold for 0.6s: every other scrape dips under.
    rows = [
        (0.25 * i, "node0", {"wait_p99": 0.9 if i % 2 else 0.1})
        for i in range(1, 12)
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert len(log) == 0
    # The same flapping metric with no hold time pages on every swing.
    assert len(evaluate_alerts(make_timeline(rows), [QUEUE_RULE])) >= 4


def test_for_duration_fires_after_sustained_breach():
    rule = AlertRule(name="queue_wait", metric="wait_p99", threshold=0.5, for_seconds=0.5)
    rows = [(0.25 * i, "node0", {"wait_p99": 0.9}) for i in range(1, 5)]
    log = evaluate_alerts(make_timeline(rows), [rule])
    # Pending at 0.25, fires once the breach has held 0.5s (at t=0.75).
    assert [(e.state, e.time) for e in log.events] == [("firing", 0.75)]


def test_missing_metric_leaves_state_untouched():
    rule = AlertRule(name="queue_wait", metric="wait_p99", threshold=0.5)
    rows = [
        (0.25, "node0", {"wait_p99": 0.9}),
        (0.50, "node0", {"other": 1.0}),  # no data: still firing
        (0.75, "node0", {"wait_p99": 0.1}),
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert [(e.state, e.time) for e in log.events] == [
        ("firing", 0.25),
        ("resolved", 0.75),
    ]


def test_rate_mode_fires_on_counter_slope_and_resolves():
    rule = AlertRule(name="uplink", metric="bits", threshold=1000.0, mode="rate")
    rows = [
        (1.0, "node0", {"bits": 0.0}),
        (2.0, "node0", {"bits": 5000.0}),  # 5000/s
        (3.0, "node0", {"bits": 5100.0}),  # 100/s
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert [(e.state, e.value) for e in log.events] == [
        ("firing", 5000.0),
        ("resolved", 100.0),
    ]


def test_rate_mode_clamps_counter_reset_after_migration():
    """Regression: a camera migration detaches and re-attaches per-camera
    series, so the next scrape of the destination's counter restarts from
    zero.  The raw delta is negative; the rate must clamp to zero instead of
    reporting a negative slope (which would spuriously resolve gt rules —
    and fire lt rules — on an artifact of the handoff)."""
    rule = AlertRule(name="uplink", metric="bits", threshold=1000.0, mode="rate")
    rows = [
        (1.0, "node1", {"bits": 0.0}),
        (2.0, "node1", {"bits": 5000.0}),  # firing at 5000/s
        (3.0, "node1", {"bits": 100.0}),  # counter restarted mid-run
        (4.0, "node1", {"bits": 6000.0}),  # demand actually still high
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    # The reset reads as zero-rate (resolving cleanly), never negative.
    assert [(e.state, e.value) for e in log.events] == [
        ("firing", 5000.0),
        ("resolved", 0.0),
        ("firing", 5900.0),
    ]
    assert all(e.value >= 0.0 for e in log.events)


def test_rate_mode_reset_does_not_fire_lt_rules():
    """The clamped zero-rate still honors explicit lt thresholds on real
    zero slopes, but a reset alone must not look like negative throughput."""
    rule = AlertRule(
        name="stalled", metric="bits", threshold=-1.0, op="lt", mode="rate"
    )
    rows = [
        (1.0, "node0", {"bits": 1000.0}),
        (2.0, "node0", {"bits": 10.0}),  # reset: clamped to 0.0, not -990
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert not log.events


def test_sources_filter_restricts_evaluation():
    rule = AlertRule(
        name="queue_wait", metric="wait_p99", threshold=0.5, sources=("node1",)
    )
    rows = [
        (0.25, "node0", {"wait_p99": 0.9}),
        (0.25, "node1", {"wait_p99": 0.9}),
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert [e.source for e in log.events] == ["node1"]


# --- burn-rate rules --------------------------------------------------------


def test_burn_rate_with_zero_budget_consumed_never_fires():
    rule = BurnRateRule(name="burn", objective=0.9, threshold=2.0, window_seconds=1.0)
    # Frames flow but violations stay flat: burn is exactly 0.
    rows = [
        (1.0 * i, "node0", {"frames.generated": 100.0 * i, "slo.freshness_violations": 0.0})
        for i in range(1, 5)
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    assert len(log) == 0
    # ... and a window with no new frames burns nothing rather than NaN.
    stalled = [(1.0, "node0", {"frames.generated": 100.0})] + [
        (1.0 + i, "node0", {"frames.generated": 100.0}) for i in range(1, 3)
    ]
    assert len(evaluate_alerts(make_timeline(stalled), [rule])) == 0


def test_burn_rate_fires_when_violations_outpace_budget():
    rule = BurnRateRule(name="burn", objective=0.9, threshold=2.0, window_seconds=2.0)
    rows = [
        (1.0, "node0", {"frames.generated": 100.0, "slo.freshness_violations": 0.0}),
        (4.0, "node0", {"frames.generated": 200.0, "slo.freshness_violations": 50.0}),
    ]
    log = evaluate_alerts(make_timeline(rows), [rule])
    (event,) = log.events
    assert event.state == "firing"
    # 50 violations over 100 frames against a 10% budget: 5x burn.
    assert event.value == pytest.approx(5.0)


def test_slo_burn_rule_inherits_config():
    config = SLOConfig(objective=0.9)
    rule = slo_burn_rule(config, window_seconds=4.0)
    assert rule.objective == 0.9
    assert rule.threshold == 2.0  # the multiple that flags a camera burning
    assert rule.window_seconds == 4.0
    assert rule.severity == "page"


# --- determinism ------------------------------------------------------------


def test_two_evaluations_export_identical_jsonl(tmp_path):
    rows = [
        (0.25 * i, source, {"wait_p99": 0.9 if i % 3 else 0.1})
        for i in range(1, 20)
        for source in ("node0", "node1")
    ]
    first = evaluate_alerts(make_timeline(rows), [QUEUE_RULE])
    second = evaluate_alerts(make_timeline(rows), [QUEUE_RULE])
    assert len(first) > 0
    assert first.to_jsonl() == second.to_jsonl()
    path_a = first.write_jsonl(tmp_path / "a.jsonl")
    path_b = second.write_jsonl(tmp_path / "b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_events_are_globally_ordered():
    rows = [
        (0.25, "node1", {"wait_p99": 0.9}),
        (0.25, "node0", {"wait_p99": 0.9}),
    ]
    log = evaluate_alerts(make_timeline(rows), [QUEUE_RULE])
    assert [e.source for e in log.events] == ["node0", "node1"]


def test_event_round_trips_through_dict():
    event = AlertEvent(
        time=1.0, rule="r", source="node0", state="firing", severity="warn",
        value=2.0, threshold=1.0,
    )
    assert event.to_dict() == {
        "t": 1.0, "rule": "r", "source": "node0", "state": "firing",
        "severity": "warn", "value": 2.0, "threshold": 1.0,
    }
    assert AlertLog(events=(event,)).fired == 1
