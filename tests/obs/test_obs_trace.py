"""Frame-lifecycle tracing: sampling, span trees, and Chrome export."""

import json
import zlib

import pytest

from repro.fleet import DropPolicy, FleetConfig, FleetRuntime, generate_fleet
from repro.fleet.runtime import default_pipeline_factory
from repro.obs.trace import FrameTrace, Span, Tracer


class TestSampling:
    def test_sample_every_one_traces_everything(self):
        tracer = Tracer(sample_every=1)
        assert all(tracer.sampled("cam", i) for i in range(100))

    def test_sampling_matches_crc32_formula(self):
        tracer = Tracer(sample_every=64)
        for index in range(256):
            expected = zlib.crc32(f"cam007/{index}".encode()) % 64 == 0
            assert tracer.sampled("cam007", index) is expected

    def test_sampling_is_identical_across_tracer_instances(self):
        decisions_a = [Tracer(sample_every=8).sampled("cam", i) for i in range(64)]
        decisions_b = [Tracer(sample_every=8).sampled("cam", i) for i in range(64)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_invalid_sample_every_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestSpan:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Span("bad", "test", start=1.0, end=0.5)

    def test_walk_is_depth_first(self):
        leaf = Span("leaf", "t", 0.0, 0.1)
        mid = Span("mid", "t", 0.0, 0.2, children=(leaf,))
        root = Span("root", "t", 0.0, 1.0, children=(mid, Span("tail", "t", 0.2, 1.0)))
        assert [s.name for s in root.walk()] == ["root", "mid", "leaf", "tail"]
        assert root.duration == 1.0


class TestFrameTrace:
    def _full_trace(self):
        trace = FrameTrace(camera_id="cam000", frame_index=3, arrival=1.0)
        trace.admitted = True
        trace.enqueued = True
        trace.dispatched_at = 1.25
        trace.phases = (("decode", 1.25, 1.3), ("base_dnn", 1.3, 1.5))
        trace.completed_at = 1.5
        trace.upload_description = "cam000/primary event"
        trace.upload_start = 1.6
        trace.upload_end = 1.9
        return trace

    def test_end_fallback_chain(self):
        trace = FrameTrace(camera_id="c", frame_index=0, arrival=2.0)
        assert trace.end == 2.0  # nothing happened yet
        trace.dropped_at = 2.5
        assert trace.end == 2.5
        trace.completed_at = 3.0
        assert trace.end == 3.0
        trace.upload_end = 3.5
        assert trace.end == 3.5
        assert trace.end_to_end_seconds == pytest.approx(1.5)

    def test_full_lifecycle_telescopes(self):
        trace = self._full_trace()
        root = trace.to_span()
        assert [c.name for c in root.children] == [
            "queue",
            "service",
            "upload_wait",
            "upload",
        ]
        # Children partition the root exactly: no unaccounted time.
        assert trace.unaccounted_seconds() == pytest.approx(0.0, abs=1e-12)
        service = root.children[1]
        assert [p.name for p in service.children] == ["decode", "base_dnn"]

    def test_root_args_carry_identity_and_annotations(self):
        trace = self._full_trace()
        trace.annotations["match_score"] = 0.9
        trace.annotations["event"] = "e1"
        args = trace.to_span().args
        assert args["camera"] == "cam000"
        assert args["frame_index"] == 3
        assert args["admitted"] is True
        assert args["event"] == "e1" and args["match_score"] == 0.9

    def test_queue_dropped_frame_gets_queue_only_tree(self):
        trace = FrameTrace(camera_id="c", frame_index=1, arrival=0.0)
        trace.admitted = True
        trace.enqueued = True
        trace.dropped_at = 0.4
        trace.drop_reason = "evicted_oldest"
        root = trace.to_span()
        assert [c.name for c in root.children] == ["queue"]
        assert root.args["drop_reason"] == "evicted_oldest"
        assert trace.unaccounted_seconds() == pytest.approx(0.0)

    def test_admission_rejected_frame_is_an_instant(self):
        trace = FrameTrace(camera_id="c", frame_index=2, arrival=0.0)
        trace.admitted = False
        trace.dropped_at = 0.0
        trace.drop_reason = "admission_rejected"
        root = trace.to_span()
        assert root.children == ()
        assert root.duration == 0.0

    def test_scored_but_not_uploaded_has_no_upload_spans(self):
        trace = self._full_trace()
        trace.upload_start = None
        trace.upload_end = None
        root = trace.to_span()
        assert [c.name for c in root.children] == ["queue", "service"]
        assert trace.unaccounted_seconds() == pytest.approx(0.0)


class TestNodeTracer:
    def test_unsampled_frames_are_ignored_everywhere(self):
        tracer = Tracer(sample_every=64)
        node = tracer.node("node0")
        index = next(i for i in range(200) if not tracer.sampled("cam", i))
        assert node.begin_frame("cam", index, 0.0) is None
        # An untraced frame has no record for the runtime to write.
        assert node.trace("cam", index) is None
        assert node.frame_traces() == []

    def test_begin_frame_returns_the_record_it_opens(self):
        node = Tracer(sample_every=1).node("node0")
        trace = node.begin_frame("cam", 3, 0.5)
        assert (trace.camera_id, trace.frame_index, trace.arrival) == ("cam", 3, 0.5)
        assert node.trace("cam", 3) is trace
        assert node.frame_traces() == [trace]

    def test_frame_traces_sorted_by_camera_then_index(self):
        node = Tracer(sample_every=1).node("node0")
        for camera_id, index in [("b", 1), ("a", 2), ("b", 0), ("a", 0)]:
            node.begin_frame(camera_id, index, 0.0)
        keys = [(t.camera_id, t.frame_index) for t in node.frame_traces()]
        assert keys == [("a", 0), ("a", 2), ("b", 0), ("b", 1)]


class TestTracer:
    def test_node_pids_follow_creation_order(self):
        tracer = Tracer()
        node1 = tracer.node("nodeB")
        node0 = tracer.node("nodeA")
        assert (node1.pid, node0.pid) == (1, 2)
        assert tracer.node("nodeB") is node1
        assert tracer.node_ids == ["nodeB", "nodeA"]


def _run_traced_fleet():
    """A small seeded fleet with every frame traced and uploads forced."""
    fleet = generate_fleet(4, seed=0, duration_seconds=1.5)
    tracer = Tracer(sample_every=1)
    runtime = FleetRuntime(
        fleet,
        config=FleetConfig(
            num_workers=2,
            queue_capacity=3,
            drop_policy=DropPolicy.DROP_OLDEST,
            uplink_capacity_bps=200_000.0,
        ),
        pipeline_factory=default_pipeline_factory(threshold=0.05),
        tracer=tracer,
    )
    report = runtime.run()
    return tracer, report


class TestChromeExport:
    @pytest.fixture(scope="class")
    def traced(self):
        return _run_traced_fleet()

    def test_trace_is_valid_chrome_trace_json(self, traced):
        tracer, _ = traced
        doc = json.loads(tracer.chrome_trace_json())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events, "a fully sampled run must emit events"
        for event in events:
            assert {"ph", "pid", "tid", "ts"} <= set(event)
            assert event["ph"] in {"X", "i", "M"}
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_metadata_names_processes_and_threads(self, traced):
        tracer, _ = traced
        events = tracer.to_chrome_trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert thread_names == {t.camera_id for t in tracer.frame_traces()}

    def test_spans_nest_within_their_roots(self, traced):
        tracer, report = traced
        traces = tracer.frame_traces()
        assert len(traces) == report.frames_generated
        uploads = 0
        for trace in traces:
            root = trace.to_span()
            for span in root.walk():
                assert span.start >= root.start - 1e-9
                assert span.end <= root.end + 1e-9
            assert abs(trace.unaccounted_seconds()) < 1e-9
            uploads += trace.upload_end is not None
        assert uploads > 0, "threshold=0.05 must force some uploads"

    def test_export_is_bit_identical_across_runs(self, traced):
        first, _ = traced
        second, _ = _run_traced_fleet()
        assert first.chrome_trace_json() == second.chrome_trace_json()

    def test_write_chrome_trace_round_trips(self, traced, tmp_path):
        tracer, _ = traced
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == tracer.to_chrome_trace()


class TestTraceMatchesCounters:
    """A fully sampled node's traces tell the story its counters count."""

    @pytest.fixture(
        scope="class",
        params=[(policy, quota) for policy in DropPolicy for quota in (None, 1)],
        ids=lambda p: f"{p[0].value}-quota_{p[1]}",
    )
    def run(self, request):
        policy, quota = request.param
        tracer = Tracer(sample_every=1)
        runtime = FleetRuntime(
            generate_fleet(4, seed=0, duration_seconds=1.5),
            config=FleetConfig(
                num_workers=2, queue_capacity=2, drop_policy=policy, per_camera_quota=quota
            ),
            pipeline_factory=default_pipeline_factory(threshold=0.05),
            tracer=tracer,
        )
        report = runtime.run()
        return tracer.frame_traces(), report, runtime.telemetry.counter

    def test_drop_reasons_number_the_drop_counters(self, run):
        traces, report, counter = run
        reasons = [t.drop_reason for t in traces]
        for reason, name in [
            ("admission_rejected", "frames.rejected"),
            ("evicted_oldest", "frames.dropped_oldest"),
            ("dropped_newest", "frames.dropped_newest"),
        ]:
            assert reasons.count(reason) == counter(name).value
        assert len(traces) == report.frames_generated
        assert report.frames_dropped + report.frames_rejected > 0

    def test_enqueued_traces_number_the_admitted_frames(self, run):
        traces, report, counter = run
        enqueued = sum(t.enqueued for t in traces)
        assert enqueued == counter("frames.admitted").value
        assert enqueued == sum(c.frames_admitted for c in report.cameras.values())

    def test_stream_positions_are_each_cameras_scoring_order(self, run):
        traces, report, _ = run
        for camera_id, camera in report.cameras.items():
            positions = [
                t.annotations["stream_position"]
                for t in traces
                if t.camera_id == camera_id and "stream_position" in t.annotations
            ]
            assert sorted(positions) == list(range(camera.frames_scored))

    def test_match_annotations_number_the_matched_frames(self, run):
        traces, _, counter = run
        matches = sum(key.startswith("matched.") for t in traces for key in t.annotations)
        assert matches == counter("frames.matched").value > 0
