"""The per-layer ledger: one traced rep's spans and counts as named metrics.

Times are *self* seconds of the spans in :data:`spans.BOUNDARIES`; counts
come from the same boundaries or, for simulated statistics, from the rep's
own report (``Outcome.counts``) and repeat bit-for-bit.  Every name listed
under ``per_layer`` in ``BENCHMARK.json`` gets a value on every workload --
0 where the layer did not run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from stats import digest_number, percentile

if TYPE_CHECKING:
    from spans import Tracer
    from workloads import Outcome

# metric -> span names whose self seconds it sums.
SELF_SECONDS = {
    "video.render_s": ("video.render",),
    "video.codec_s": ("video.codec",),
    "nn.build_s": ("nn.build",),
    "nn.batched_forward_s": ("nn.batched_forward",),
    "nn.single_forward_s": ("nn.single_forward",),
    "features.extract_self_s": ("features.extract", "features.prime"),
    "core.mc_forward_s": ("core.mc_forward",),
    "core.push_self_s": ("core.push",),
    "core.event_detect_s": ("core.event_detect",),
    "core.finish_s": ("core.finish",),
    "core.stream_init_s": ("core.stream_init",),
    "core.prefetch_self_s": ("core.prefetch", "core.prime"),
    "fleet.start_self_s": ("fleet.start",),
    "fleet.des_self_s": ("fleet.des",),
    "fleet.finalize_self_s": ("fleet.finalize",),
    "fleet.telemetry_snapshot_s": ("fleet.telemetry_snapshot",),
    "fleet.telemetry_merge_s": ("fleet.telemetry_merge",),
    "fleet.placement_s": ("fleet.placement",),
    "fleet.cluster_report_self_s": ("fleet.cluster_report",),
    "control.tick_s": ("control.tick",),
    "obs.scrape_s": ("obs.scrape",),
    "edge.upload_s": ("edge.upload",),
    "edge.drain_s": ("edge.drain",),
    "events.plan_s": ("events.plan",),
    "events.offer_s": ("events.offer",),
    "events.ingest_s": ("events.ingest",),
    # The benchmark's own code: input generation, constructors outside any
    # wrapped boundary, the push loop, event_storm's sort-and-merge driver.
    "bench.driver_self_s": ("bench.setup", "bench.run"),
}

# metric -> span names whose calls it counts.
CALLS = {
    "video.codec_calls": ("video.codec",),
    "nn.models_built": ("nn.build",),
    "nn.batched_calls": ("nn.batched_forward",),
    "nn.single_forward_calls": ("nn.single_forward",),
    "features.extract_calls": ("features.extract",),
    "features.primed_frames": ("features.prime",),
    "core.mc_forward_calls": ("core.mc_forward",),
    "core.push_calls": ("core.push",),
    "core.prefetch_calls": ("core.prefetch",),
    "fleet.telemetry_snapshots": ("fleet.telemetry_snapshot",),
    "obs.scrapes": ("obs.scrape",),
    "edge.uploads": ("edge.upload",),
}

# Outcome.counts entries reported under their own name (0 when absent).
REPORTED_COUNTS = (
    "video.frames_rendered",
    "nn.batched_frames",
    "nn.mean_batch_size",
    "core.events_closed",
    "fleet.des_events",
    "fleet.frames_generated",
    "fleet.frames_scored",
    "fleet.frames_dropped",
    "fleet.frames_rejected",
    "fleet.sim_drop_rate",
    "fleet.sim_queue_wait_p99_s",
    "control.ticks",
    "control.actions",
    "control.migrations",
    "control.payload_bytes_peak",
    "obs.timeline_points",
    "edge.drain_requests",
    "edge.sim_uplink_bits",
    "events.published",
    "events.retried",
    "events.duplicates_suppressed",
    "events.dead_letter",
    "events.sim_latency_p50_s",
    "events.sim_latency_p99_s",
)


# What must repeat bit-for-bit between two runs of one commit, and between a
# commit and a change that claims only to be faster.
EXACT_METRICS = (*CALLS, *REPORTED_COUNTS, "bench.sim_digest")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: "Tracer",
    outcome: "Outcome",
    traced_wall_s: float,
    untraced_wall_s: float,
    cold_wall_s: float,
    calib_gemm_gflops: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced rep, by name."""
    m: dict[str, float] = {}
    for name, spans in SELF_SECONDS.items():
        m[name] = tracer.self_seconds(*spans)
    for name, spans in CALLS.items():
        m[name] = tracer.calls(*spans)
    for name in REPORTED_COUNTS:
        m[name] = outcome.counts.get(name, 0)

    m["video.render_us_per_frame"] = _ratio(m["video.render_s"] * 1e6, m["video.frames_rendered"])
    m["core.mc_us_per_call"] = _ratio(m["core.mc_forward_s"] * 1e6, m["core.mc_forward_calls"])
    m["fleet.des_us_per_event"] = _ratio(m["fleet.des_self_s"] * 1e6, m["fleet.des_events"])

    # Inclusive per-call latency; the p90 because the smallest workload's 120
    # pushes leave at least ten samples beyond it.
    pushes = tracer.durations("core.push")
    m["core.push_ms_p50"] = percentile(pushes, 0.50) * 1e3 if pushes else 0.0
    m["core.push_ms_p90"] = percentile(pushes, 0.90) * 1e3 if pushes else 0.0
    ticks = tracer.durations("control.tick")
    m["control.tick_ms_p50"] = percentile(ticks, 0.50) * 1e3 if ticks else 0.0

    # Computed multiply-adds over measured forward seconds: how far the base
    # DNN runs from what bench.calib_gemm_gflops says the host can do.
    base_madds = outcome.counts.get("nn.base_madds", 0)
    scored = m["fleet.frames_scored"] or m["core.push_calls"]
    m["nn.base_madds_per_frame"] = _ratio(base_madds, scored)
    m["nn.base_gmadds_per_s"] = _ratio(
        base_madds / 1e9, m["nn.batched_forward_s"] + m["nn.single_forward_s"]
    )

    m["bench.coverage_share"] = 1.0 - _ratio(m["bench.driver_self_s"], traced_wall_s)
    m["bench.trace_overhead_share"] = _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
    m["bench.cold_wall_s"] = cold_wall_s
    m["bench.calib_gemm_gflops"] = calib_gemm_gflops
    m["bench.sim_digest"] = digest_number(outcome.digest)
    return m
