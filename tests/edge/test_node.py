"""Tests for the edge node (pipeline + archive + uplink)."""

import pytest

from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.streaming import StreamingPipeline
from repro.edge.archive import FrameArchive
from repro.edge.node import EdgeNode
from repro.edge.uplink import ConstrainedUplink
from repro.video.stream import InMemoryVideoStream


def make_node(extractor, threshold=0.01, capacity_bps=1_000_000, frame_rate=15.0):
    cfg = MicroClassifierConfig("mc", "conv4_2/sep", threshold=threshold, upload_bitrate=50_000)
    mc = build_microclassifier("localized", cfg, extractor.layer_shape("conv4_2/sep"))
    session = StreamingPipeline(extractor, [mc], frame_rate=frame_rate)
    return EdgeNode(session, ConstrainedUplink(capacity_bps), FrameArchive(64 * 1024**2))


class TestEdgeNode:
    def test_archives_every_frame(self, tiny_extractor, tiny_pipeline_stream):
        node = make_node(tiny_extractor)
        report = node.process_stream(tiny_pipeline_stream)
        assert report.archived_frames == len(tiny_pipeline_stream)

    def test_uploads_consume_uplink(self, tiny_extractor, tiny_pipeline_stream):
        node = make_node(tiny_extractor, threshold=0.01)
        report = node.process_stream(tiny_pipeline_stream)
        assert node.uplink.total_bits > 0
        assert report.uplink_utilization > 0

    def test_no_matches_means_no_uploads(self, tiny_extractor, tiny_pipeline_stream):
        node = make_node(tiny_extractor, threshold=0.999)
        report = node.process_stream(tiny_pipeline_stream)
        assert node.uplink.total_bits == 0
        assert report.uplink_utilization == 0
        assert report.within_bandwidth_budget

    def test_narrow_uplink_builds_backlog(self, tiny_extractor, tiny_pipeline_stream):
        wide = make_node(tiny_extractor, capacity_bps=10_000_000)
        narrow = make_node(tiny_extractor, capacity_bps=1_000)
        wide_report = wide.process_stream(tiny_pipeline_stream)
        narrow_report = narrow.process_stream(tiny_pipeline_stream)
        assert narrow_report.uplink_backlog_seconds > wide_report.uplink_backlog_seconds
        assert not narrow_report.within_bandwidth_budget

    def test_demand_fetch_returns_frames_and_charges_uplink(self, tiny_extractor, tiny_pipeline_stream):
        node = make_node(tiny_extractor, threshold=0.999)
        report = node.process_stream(tiny_pipeline_stream)
        bits_before = node.uplink.total_bits
        segment = node.demand_fetch(2, 5, report=report)
        assert [f.index for f in segment.frames] == [2, 3, 4]
        assert node.uplink.total_bits > bits_before
        assert report.demand_fetches == [segment]

    def test_uploads_become_available_after_event_ends(self, tiny_extractor, tiny_pipeline_stream):
        node = make_node(tiny_extractor, threshold=0.01, capacity_bps=10_000_000)
        node.process_stream(tiny_pipeline_stream)
        # The single all-frames event ends at the end of the stream, so the
        # upload cannot start before then.
        assert node.uplink.transfers[0].start_time >= tiny_pipeline_stream.duration - 1e-9

    def test_offset_stream_uploads_what_the_pipeline_encoded(
        self, tiny_extractor, tiny_pipeline_stream
    ):
        # The back half of a feed keeps its source frame indices (6..11), so
        # an event's stream positions (0..5) are not its frames' indices.
        frames = list(tiny_pipeline_stream)
        tail = InMemoryVideoStream(frames[6:], tiny_pipeline_stream.frame_rate)
        node = make_node(tiny_extractor, threshold=0.01)
        report = node.process_stream(tail)
        assert report.pipeline_result.total_uploaded_bits > 0
        assert node.uplink.total_bits == report.pipeline_result.total_uploaded_bits

    def test_second_stream_raises(self, tiny_extractor, tiny_pipeline_stream):
        # A node hosts one session, and a session filters one stream.
        node = make_node(tiny_extractor)
        node.process_stream(tiny_pipeline_stream)
        with pytest.raises(RuntimeError, match="already finished"):
            node.process_stream(tiny_pipeline_stream)

    def test_stream_at_another_frame_rate_raises_before_archiving(
        self, tiny_extractor, tiny_pipeline_stream
    ):
        node = make_node(tiny_extractor, frame_rate=30.0)
        with pytest.raises(ValueError, match="frame rate"):
            node.process_stream(tiny_pipeline_stream)
        assert len(node.archive) == 0
        assert node.uplink.total_bits == 0
