"""Tests for the incremental streaming pipeline and its online primitives.

The load-bearing property: :class:`StreamingPipeline` must produce results
*identical* to scoring the whole stream in batch — probabilities,
smoothed decisions, events, matched indices, and encoded upload bits —
while holding only O(1) state per frame.  The reference below
independently re-implements the original triple-pass batch flow from public
pieces (per-MC feature-map batches from ``extractor.extract`` +
``mc_input_feature_map``, chunked scoring, batch ``EventDetector.detect``,
``codec.encode``) to keep the comparison meaningful.
"""

import numpy as np
import pytest

from repro.core.architectures import build_microclassifier
from repro.core.events import EventDetector
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.pipeline import PipelineConfig, mc_input_feature_map
from repro.core.smoothing import KVotingSmoother, StreamingKVotingSmoother
from repro.core.streaming import StreamingPipeline
from repro.core.training import score_classifier
from repro.edge.archive import FrameArchive
from repro.edge.node import EdgeNode
from repro.edge.uplink import ConstrainedUplink
from repro.features.extractor import FeatureExtractor, FeatureMapCrop
from repro.nn.model import Sequential
from repro.video.frame import Frame
from repro.video.stream import InMemoryVideoStream


# -- online smoother ----------------------------------------------------------
class TestStreamingKVotingSmoother:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 64])
    def test_matches_batch_smoother(self, seed, n):
        rng = np.random.default_rng(seed * 100 + n)
        # Dense, sparse and even draws: runs, lone positives and gaps of every width.
        decisions = (rng.random(n) < (0.5, 0.15, 0.85)[seed % 3]).astype(int)
        batch = KVotingSmoother().smooth(decisions)
        online = StreamingKVotingSmoother()
        emitted = []
        for d in decisions:
            emitted.extend(online.push(int(d)))
        emitted.extend(online.flush())
        np.testing.assert_array_equal(np.array(emitted, dtype=np.int8), batch)

    def test_emission_lookahead_is_bounded(self):
        online = StreamingKVotingSmoother()
        emitted = []
        for i in range(20):
            out = online.push(1)
            emitted.extend(out)
            # smoothed[i] needs decisions through i + 2 (N=5), no more.
            assert (i + 1) - len(emitted) <= 2
        assert len(emitted) == 18
        assert len(online.flush()) == 2

    def test_holds_at_most_one_window_of_decisions(self):
        online = StreamingKVotingSmoother()
        for decision in np.random.default_rng(3).integers(0, 2, size=200):
            online.push(int(decision))
            assert len(online._buffer) <= 5  # N, whatever the stream's length



# -- online event detector ----------------------------------------------------
class TestEventDetectorOnline:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_batch_detection(self, seed):
        rng = np.random.default_rng(seed)
        decisions = rng.integers(0, 2, size=40)
        batch_detector = EventDetector("mc")
        batch_smoothed, batch_events = batch_detector.detect(decisions)

        online = EventDetector("mc")
        smoothed, events = [], []
        for d in decisions:
            finalized, closed = online.push(int(d))
            smoothed.extend(f.smoothed for f in finalized)
            events.extend(closed)
        finalized, closed = online.flush()
        smoothed.extend(f.smoothed for f in finalized)
        events.extend(closed)

        np.testing.assert_array_equal(np.array(smoothed, dtype=np.int8), batch_smoothed)
        assert events == batch_events

    def test_event_ids_assigned_at_run_open(self):
        online = EventDetector("mc")
        assert online.push(1) == ([], []) and online.push(1) == ([], [])  # the 2-frame lookahead
        finalized, closed = online.push(0)
        assert finalized[0].event_id == 1 and not closed
        online.push(0)
        online.push(0)
        finalized, closed = online.push(0)  # frame 3's window holds one positive
        assert finalized[0].event_id is None
        assert [e.event_id for e in closed] == [1]
        online.push(1)
        online.push(1)
        _, closed = online.flush()
        assert [e.event_id for e in closed] == [2]

    def test_flush_closes_open_event(self):
        online = EventDetector("mc")
        for _ in range(3):
            online.push(1)
        _, closed = online.flush()
        assert len(closed) == 1
        assert (closed[0].start, closed[0].end) == (0, 3)

    def test_positions_track_stream_order(self):
        online = EventDetector("mc")
        positions = []
        for d in [0, 1, 0, 0, 0, 1]:
            finalized, _ = online.push(d)
            positions.extend(f.frame_index for f in finalized)
        finalized, _ = online.flush()
        positions.extend(f.frame_index for f in finalized)
        assert positions == list(range(6))


# -- streaming pipeline equivalence -------------------------------------------
def make_mc(extractor, name, architecture="localized", layer="conv4_2/sep", crop=None, threshold=0.5):
    cfg = MicroClassifierConfig(name, layer, crop=crop, threshold=threshold, upload_bitrate=50_000)
    shape = extractor.cropped_layer_shape(layer, crop, (32, 48))
    return build_microclassifier(architecture, cfg, shape)


def collect_feature_maps(extractor, mcs, stream):
    """Each MC's ``(N, H, W, C)`` batch of (cropped) input maps, one base-DNN pass per frame."""
    per_mc = {mc.name: [] for mc in mcs}
    for frame in stream:
        activations = extractor.extract(frame)
        for mc in mcs:
            per_mc[mc.name].append(mc_input_feature_map(mc, frame, activations))
    return {name: np.stack(maps, axis=0) for name, maps in per_mc.items()}


def reference_process(extractor, mcs, stream, codec):
    """The original triple-pass batch flow, re-implemented independently."""
    feature_maps = collect_feature_maps(extractor, mcs, stream)
    frames = list(stream)
    reference = {}
    for mc in mcs:
        maps = feature_maps[mc.name]
        probabilities = score_classifier(mc, maps)
        decisions = (probabilities >= mc.config.threshold).astype(np.int8)
        smoothed, events = EventDetector(mc.name).detect(decisions)
        matched = np.flatnonzero(smoothed)
        encoded = None
        if matched.size:
            encoded = codec.encode(
                [frames[i] for i in matched],
                mc.config.upload_bitrate,
                stream.frame_rate,
                stream.resolution,
                stream_duration=stream.duration,
            )
        reference[mc.name] = (probabilities, decisions, smoothed, events, matched, encoded)
    return reference


@pytest.fixture
def three_mcs(tiny_extractor):
    return [
        make_mc(tiny_extractor, "mc_localized", threshold=0.45),
        make_mc(tiny_extractor, "mc_full_frame", architecture="full_frame", layer="conv5_6/sep", threshold=0.55),
        make_mc(
            tiny_extractor,
            "mc_windowed",
            architecture="windowed",
            crop=FeatureMapCrop(0, 8, 40, 32),
        ),
    ]


def assert_matches_reference(extractor, mcs, stream, config):
    """Streaming == the batch reference: probabilities to 1e-12, everything else exactly."""
    session = StreamingPipeline(
        extractor, mcs, config=config, frame_rate=stream.frame_rate, resolution=stream.resolution
    )
    reference = reference_process(extractor, mcs, stream, session.codec)
    result = session.process_stream(stream)

    assert result.num_frames == len(stream)
    for name, (probabilities, decisions, smoothed, events, matched, encoded) in reference.items():
        mc_result = result.per_mc[name]
        np.testing.assert_allclose(mc_result.probabilities, probabilities, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(mc_result.smoothed, smoothed)
        assert mc_result.events == events
        np.testing.assert_array_equal(mc_result.matched_frame_indices, matched)
        if encoded is None:
            assert mc_result.encoded is None
        else:
            got = [(f.index, f.bits) for f in mc_result.encoded.frames]
            want = [(f.index, f.bits) for f in encoded.frames]
            assert [i for i, _ in got] == [i for i, _ in want]
            np.testing.assert_allclose(
                [b for _, b in got], [b for _, b in want], rtol=0, atol=1e-9
            )


class TestStreamingPipelineEquivalence:
    @pytest.mark.parametrize(
        "seed,num_frames,batch_size",
        [(0, 23, 4), (1, 9, 1), (2, 12, 32), (3, 5, 5), (4, 16, 7)],
    )
    def test_identical_to_batch_reference(
        self, tiny_extractor, three_mcs, seed, num_frames, batch_size
    ):
        """Property: streaming == batch on random synthetic streams."""
        rng = np.random.default_rng(seed)
        arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(num_frames)]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)
        config = PipelineConfig(batch_size=batch_size)
        assert_matches_reference(tiny_extractor, three_mcs, stream, config)

    @pytest.mark.parametrize("seed", range(24))
    def test_drawn_configurations_match_batch_reference(self, tiny_extractor, rng, seed):
        """One MC per seed: drawn batch size, architecture and threshold."""
        draw = np.random.default_rng(2000 + seed)
        config = PipelineConfig(batch_size=int(draw.integers(1, 7)))
        architecture = ["localized", "full_frame", "windowed"][int(draw.integers(3))]
        mc = build_microclassifier(
            architecture,
            MicroClassifierConfig(
                f"sweep{seed}", "conv4_2/sep", threshold=float(draw.uniform(0.3, 0.7))
            ),
            tiny_extractor.layer_shape("conv4_2/sep"),
            rng=np.random.default_rng(seed),
        )
        arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(int(draw.integers(6, 14)))]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=10.0)
        assert_matches_reference(tiny_extractor, [mc], stream, config)

    def test_edge_node_filters_like_a_bare_session(
        self, tiny_extractor, three_mcs, tiny_pipeline_stream
    ):
        """EdgeNode.process_stream == the bare session's process_stream on the same stream."""

        def session():
            return StreamingPipeline(
                tiny_extractor,
                three_mcs,
                config=PipelineConfig(batch_size=4),
                frame_rate=tiny_pipeline_stream.frame_rate,
                annotate_frames=False,
            )

        node = EdgeNode(session(), ConstrainedUplink(10_000_000), FrameArchive(64 * 1024**2))
        node_result = node.process_stream(tiny_pipeline_stream).pipeline_result
        bare_result = session().process_stream(tiny_pipeline_stream)
        for name, mc_result in bare_result.per_mc.items():
            other = node_result.per_mc[name]
            np.testing.assert_array_equal(mc_result.probabilities, other.probabilities)
            np.testing.assert_array_equal(mc_result.smoothed, other.smoothed)
            assert mc_result.events == other.events
        assert node_result.total_uploaded_bits == bare_result.total_uploaded_bits
        assert node.uplink.total_bits == bare_result.total_uploaded_bits


class TestStreamingPipelineBehavior:
    def test_bounded_memory(self, tiny_extractor, three_mcs, rng):
        """Internal buffers must not grow with stream length (O(1) per frame)."""
        config = PipelineConfig(batch_size=4)
        session = StreamingPipeline(
            tiny_extractor, three_mcs, config=config, frame_rate=15.0, resolution=(48, 32)
        )
        for i in range(60):
            pixels = rng.random((32, 48, 3)).astype(np.float32)
            session.push(Frame(index=i, pixels=pixels))
            # Pending frames: at most one chunk plus the smoothing lookahead
            # plus the windowed MC's temporal context.
            assert len(session._pending) <= config.batch_size + 5 + 5
            for bank in session._banks:
                assert len(bank.chunk) < config.batch_size
                if bank.is_windowed:
                    assert len(bank.reduced) <= config.batch_size + bank.first.window + 1
        result = session.finish()
        assert result.num_frames == 60
        assert len(session._pending) == 0

    def test_updates_report_matches_and_events(self, tiny_extractor, tiny_pipeline_stream):
        accept = make_mc(tiny_extractor, "accept", threshold=0.01)
        session = StreamingPipeline(
            tiny_extractor,
            [accept],
            config=PipelineConfig(batch_size=1),
            frame_rate=tiny_pipeline_stream.frame_rate,
            resolution=tiny_pipeline_stream.resolution,
        )
        matches = []
        for frame in tiny_pipeline_stream:
            update = session.push(frame)
            matches.extend(update.new_matches)
        result = session.finish(stream_duration=tiny_pipeline_stream.duration)
        # All matches eventually surface (the tail arrives via finish()).
        assert len(matches) <= result.per_mc["accept"].num_matched_frames
        assert result.per_mc["accept"].num_matched_frames == len(tiny_pipeline_stream)
        assert len(result.per_mc["accept"].events) == 1

    def test_push_after_finish_raises(self, tiny_extractor, tiny_pipeline_stream):
        mc = make_mc(tiny_extractor, "mc")
        session = StreamingPipeline(tiny_extractor, [mc], frame_rate=15.0)
        session.push(tiny_pipeline_stream[0])
        session.finish()
        with pytest.raises(RuntimeError):
            session.push(tiny_pipeline_stream[1])

    def test_finish_is_idempotent(self, tiny_extractor, tiny_pipeline_stream):
        mc = make_mc(tiny_extractor, "mc")
        session = StreamingPipeline(tiny_extractor, [mc], frame_rate=15.0)
        for frame in tiny_pipeline_stream:
            session.push(frame)
        first = session.finish()
        assert session.finish() is first

    def test_annotations_match_batch(self, tiny_extractor, rng):
        # A frame inside two MCs' events holds one membership per MC (Section 3.5).
        accept = make_mc(tiny_extractor, "accept", threshold=0.01)
        also = make_mc(tiny_extractor, "also", architecture="full_frame", threshold=0.01)
        arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(8)]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)
        pipeline = StreamingPipeline(tiny_extractor, [accept, also], frame_rate=15.0)
        result = pipeline.process_stream(stream)
        expected = {name: r.events[0].event_id for name, r in result.per_mc.items()}
        assert stream[3].event_memberships() == expected == {"accept": 1, "also": 1}

    def test_empty_session_finishes_cleanly(self, tiny_extractor):
        mc = make_mc(tiny_extractor, "mc")
        session = StreamingPipeline(tiny_extractor, [mc], frame_rate=15.0, resolution=(48, 32))
        result = session.finish()
        assert result.num_frames == 0
        assert result.per_mc["mc"].probabilities.size == 0
        assert result.total_uploaded_bits == 0.0

    def test_validates_microclassifiers(self, tiny_extractor):
        with pytest.raises(ValueError):
            StreamingPipeline(tiny_extractor, [], frame_rate=15.0)

    @pytest.mark.parametrize(
        "frame_rate,resolution,mismatch",
        [(30.0, None, "frame rate"), (15.0, (32, 48), "resolution")],
        ids=["frame_rate", "resolution"],
    )
    def test_process_stream_rejects_a_stream_the_session_was_not_built_for(
        self, tiny_extractor, tiny_pipeline_stream, frame_rate, resolution, mismatch
    ):
        # Uploads are charged at the session's rate: built at 30 fps, a
        # 15 fps stream would otherwise report half its upload bandwidth.
        session = StreamingPipeline(
            tiny_extractor,
            [make_mc(tiny_extractor, "mc", threshold=0.01)],
            frame_rate=frame_rate,
            resolution=resolution,
        )
        with pytest.raises(ValueError, match=mismatch):
            session.process_stream(tiny_pipeline_stream)
        assert session.finish().num_frames == 0  # nothing was pushed

    def test_set_threshold_overrides_decisions_from_now_on(self, tiny_extractor, rng):
        # Same frames, one session with the trained threshold and one whose
        # threshold is raised to 1-epsilon mid-stream: decisions drained
        # before the change are untouched, later ones go all-negative.
        arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(10)]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)
        # batch_size=1 drains each frame's decision on its own push, so the
        # override's "from now on" boundary is exactly the frame index.
        config = PipelineConfig(batch_size=1)
        plain = StreamingPipeline(
            tiny_extractor,
            [make_mc(tiny_extractor, "mc", threshold=0.01)],
            config=config,
            frame_rate=15.0,
        )
        reference = plain.process_stream(stream)
        session = StreamingPipeline(
            tiny_extractor,
            [make_mc(tiny_extractor, "mc", threshold=0.01)],
            config=config,
            frame_rate=15.0,
        )
        assert session.current_threshold() == 0.01
        for i, frame in enumerate(stream):
            if i == 5:
                session.set_threshold(0.999, mc_name="mc")
                assert session.current_threshold("mc") == 0.999
            session.push(frame)
        result = session.finish()
        # Probabilities are threshold-independent; decisions diverge only
        # after the override landed, and the smoother sees exactly those.
        probabilities = reference.per_mc["mc"].probabilities
        assert np.array_equal(result.per_mc["mc"].probabilities, probabilities)
        decisions = (probabilities >= 0.01).astype(int)
        decisions[5:] = 0
        smoothed, events = EventDetector("mc").detect(decisions)
        np.testing.assert_array_equal(result.per_mc["mc"].smoothed, smoothed)
        assert result.per_mc["mc"].events == events
        assert not np.array_equal(smoothed, reference.per_mc["mc"].smoothed)
        # The MC object itself keeps its configured threshold (shared-model
        # safety: overrides are session state).
        assert session.microclassifiers[0].config.threshold == 0.01

    def test_set_threshold_validation(self, tiny_extractor, tiny_pipeline_stream):
        session = StreamingPipeline(
            tiny_extractor, [make_mc(tiny_extractor, "mc")], frame_rate=15.0
        )
        with pytest.raises(ValueError, match="threshold"):
            session.set_threshold(0.0)
        with pytest.raises(KeyError, match="no_such_mc"):
            session.set_threshold(0.5, mc_name="no_such_mc")
        session.push(tiny_pipeline_stream[0])
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.set_threshold(0.5)

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_decisions_apply_the_threshold(
        self, tiny_extractor, tiny_pipeline_stream, architecture
    ):
        # The threshold changes decisions only: a frame is selected iff its
        # probability reaches the threshold in effect.
        mc = make_mc(tiny_extractor, "mc", architecture=architecture)
        probe = StreamingPipeline(tiny_extractor, [mc], frame_rate=15.0)
        probabilities = probe.process_stream(tiny_pipeline_stream).per_mc["mc"].probabilities
        threshold = float(np.median(probabilities))
        session = StreamingPipeline(tiny_extractor, [mc], frame_rate=15.0)
        session.set_threshold(threshold)
        result = session.process_stream(tiny_pipeline_stream).per_mc["mc"]
        np.testing.assert_array_equal(result.probabilities, probabilities)
        decisions = (probabilities >= threshold).astype(int)
        assert 0 < decisions.sum() < len(tiny_pipeline_stream)
        smoothed, events = EventDetector("mc").detect(decisions)
        np.testing.assert_array_equal(result.smoothed, smoothed)
        assert result.events == events

    def test_frames_outside_every_event_carry_no_membership(self, tiny_extractor, rng):
        arrays = [rng.random((32, 48, 3)).astype(np.float32) for _ in range(8)]
        stream = InMemoryVideoStream.from_arrays(arrays, frame_rate=15.0)
        reject = make_mc(tiny_extractor, "reject", threshold=0.99)
        result = StreamingPipeline(tiny_extractor, [reject], frame_rate=15.0).process_stream(stream)
        assert result.per_mc["reject"].events == []
        assert all(frame.event_memberships() == {} for frame in stream)

    def test_rejects_bad_frame_rate(self, tiny_extractor):
        mc = make_mc(tiny_extractor, "mc")
        with pytest.raises(ValueError):
            StreamingPipeline(tiny_extractor, [mc], frame_rate=0.0)

    @pytest.mark.parametrize("frame_rate", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_frame_rate(self, tiny_extractor, frame_rate):
        # A NaN rate used to push every frame and then fail inside the codec at
        # finish(); an infinite one uploaded every match for 0.0 bits.
        mc = make_mc(tiny_extractor, "mc")
        with pytest.raises(ValueError, match="frame_rate"):
            StreamingPipeline(tiny_extractor, [mc], frame_rate=frame_rate)

    @pytest.mark.parametrize("frame_rate", [-1.0, float("-inf")])
    def test_rejects_a_negative_frame_rate(self, tiny_extractor, frame_rate):
        mc = make_mc(tiny_extractor, "mc")
        with pytest.raises(ValueError, match="frame_rate"):
            StreamingPipeline(tiny_extractor, [mc], frame_rate=frame_rate)


class TestStreamingEventRecords:
    """Closed events surface as first-class EventRecords with global keys."""

    def run_session(self, tiny_extractor, tiny_pipeline_stream, camera_id=None, epoch=0):
        accept = make_mc(tiny_extractor, "accept", threshold=0.01)
        session = StreamingPipeline(
            tiny_extractor,
            [accept],
            config=PipelineConfig(batch_size=1),
            frame_rate=tiny_pipeline_stream.frame_rate,
            resolution=tiny_pipeline_stream.resolution,
        )
        if camera_id is not None:
            session.bind_identity(camera_id, session_epoch=epoch)
        pushed = [session.push(frame) for frame in tiny_pipeline_stream]
        flushed = session.flush()
        result = session.finish(stream_duration=tiny_pipeline_stream.duration)
        return session, result, pushed, flushed

    def records_of(self, tiny_extractor, tiny_pipeline_stream, **identity):
        """Every record the session emits: its pushes' updates, then its flush's."""
        session, result, pushed, flushed = self.run_session(
            tiny_extractor, tiny_pipeline_stream, **identity
        )
        records = [r for update in (*pushed, flushed) for r in update.closed_records]
        return session, result, records

    def test_records_mirror_closed_events(self, tiny_extractor, tiny_pipeline_stream):
        session, result, records = self.records_of(
            tiny_extractor, tiny_pipeline_stream, camera_id="cam007", epoch=3
        )
        events = result.per_mc["accept"].events
        assert len(records) == len(events) == 1
        record = records[0]
        event = events[0]
        assert record.key.camera_id == "cam007"
        assert record.key.session_epoch == 3
        assert record.key.event_id == event.event_id
        assert record.mc_name == "accept"
        assert (record.start, record.end) == (event.start, event.end)
        assert record.source_start == session.source_indices[event.start]
        assert record.source_end == session.source_indices[event.end - 1] + 1
        assert record.peak_score == max(
            result.per_mc["accept"].probabilities[event.start : event.end]
        )
        # The session never stamps wall-clock closure; the runtime does.
        assert record.closed_at == -1.0

    def test_update_records_plus_finish_cover_everything(
        self, tiny_extractor, tiny_pipeline_stream
    ):
        _, result, records = self.records_of(tiny_extractor, tiny_pipeline_stream)
        events = result.per_mc["accept"].events
        assert [(r.mc_name, r.key.event_id, r.start, r.end) for r in records] == [
            (e.mc_name, e.event_id, e.start, e.end) for e in events
        ]

    def test_default_identity(self, tiny_extractor, tiny_pipeline_stream):
        _, _, records = self.records_of(tiny_extractor, tiny_pipeline_stream)
        assert records[0].key.camera_id == "stream"
        assert records[0].key.session_epoch == 0

    def test_flush_returns_only_what_the_end_of_the_stream_resolves(
        self, tiny_extractor, tiny_pipeline_stream
    ):
        _, result, pushed, flushed = self.run_session(tiny_extractor, tiny_pipeline_stream)
        live_matches = [m for update in pushed for m in update.new_matches]
        live_records = [r for update in pushed for r in update.closed_records]
        matched = result.per_mc["accept"].matched_frame_indices.tolist()
        # The smoothing lookahead's last decisions and the still-open event.
        assert flushed.new_matches and flushed.closed_records
        assert [p for _, p in live_matches + list(flushed.new_matches)] == matched
        closed = {(r.key.event_id, r.start, r.end) for r in live_records}
        assert [
            (r.key.event_id, r.start, r.end) for r in flushed.closed_records
        ] == [
            (e.event_id, e.start, e.end)
            for e in result.per_mc["accept"].events
            if (e.event_id, e.start, e.end) not in closed
        ]

    def test_flush_ends_the_stream(self, tiny_extractor, tiny_pipeline_stream):
        session, _, _, _ = self.run_session(tiny_extractor, tiny_pipeline_stream)
        with pytest.raises(RuntimeError, match="already flushed"):
            session.flush()
        with pytest.raises(RuntimeError, match="already finished"):
            session.push(next(iter(tiny_pipeline_stream)))
        with pytest.raises(RuntimeError, match="already finished"):
            session.set_threshold(0.5)

    def test_finish_after_flush_equals_finish_alone(self, tiny_extractor, tiny_pipeline_stream):
        _, flushed_first, _, _ = self.run_session(tiny_extractor, tiny_pipeline_stream)
        accept = make_mc(tiny_extractor, "accept", threshold=0.01)
        alone = StreamingPipeline(
            tiny_extractor,
            [accept],
            config=PipelineConfig(batch_size=1),
            frame_rate=tiny_pipeline_stream.frame_rate,
            resolution=tiny_pipeline_stream.resolution,
        ).process_stream(tiny_pipeline_stream)
        got, want = flushed_first.per_mc["accept"], alone.per_mc["accept"]
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.events == want.events
        assert flushed_first.total_uploaded_bits == alone.total_uploaded_bits

    def test_bind_identity_rejects_negative_epoch(self, tiny_extractor):
        session = StreamingPipeline(
            tiny_extractor, [make_mc(tiny_extractor, "mc")], frame_rate=15.0
        )
        with pytest.raises(ValueError):
            session.bind_identity("cam0", session_epoch=-1)


# -- banks: the MC stage scores same-architecture, same-input MCs together ------
BANK_TAPS = ("conv2_2/sep", "conv3_2/sep")  # (8, 12, 16) and (4, 6, 32) on the tiny base DNN
BANK_CROPS = (FeatureMapCrop(0, 8, 48, 32), FeatureMapCrop(12, 0, 36, 32))


@pytest.fixture
def bank_extractor(tiny_base_dnn):
    return FeatureExtractor(tiny_base_dnn, list(BANK_TAPS), cache_size=4)


def bank_mc(extractor, name, architecture, seed, layer=BANK_TAPS[1], crop=None):
    """An MC with its own weights (``make_mc`` gives every MC the seed-0 weights)."""
    config = MicroClassifierConfig(name, layer, crop=crop, upload_bitrate=50_000)
    shape = extractor.cropped_layer_shape(layer, crop, (32, 48))
    return build_microclassifier(architecture, config, shape, rng=np.random.default_rng(seed))


def mixed_microclassifiers(extractor):
    """All three architectures, two crops and none, two taps: 8 banks of 1-3."""
    specs = [
        ("full_frame", {}),
        ("full_frame", {"layer": BANK_TAPS[0]}),
        ("localized", {"crop": BANK_CROPS[0]}),
        ("localized", {"crop": BANK_CROPS[1]}),
        ("localized", {}),
        ("windowed", {}),
        ("windowed", {"layer": BANK_TAPS[0], "crop": BANK_CROPS[0]}),
    ]
    mcs = []
    for k in range(17):
        architecture, options = specs[k % len(specs)]
        mcs.append(bank_mc(extractor, f"mc{k:02d}", architecture, seed=100 + k, **options))
    mcs.append(bank_mc(extractor, "loner", "full_frame", seed=99, crop=BANK_CROPS[0]))
    return mcs


def bank_frames(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Frame(index=i, pixels=rng.random((32, 48, 3)).astype(np.float32))
        for i in range(count)
    ]


def run_session(extractor, mcs, frames, batch_size, thresholds=None, records=None):
    """Push ``frames`` through one session; ``thresholds`` are per-MC live overrides.

    ``records``, when given, collects every record the updates carry, the flush's last.
    """
    extractor.reset_cache()
    session = StreamingPipeline(
        extractor,
        mcs,
        config=PipelineConfig(batch_size=batch_size),
        frame_rate=15.0,
        annotate_frames=False,
    )
    for name, threshold in (thresholds or {}).items():
        if name in session._states_by_name:
            session.set_threshold(threshold, mc_name=name)
    updates = [session.push(frame) for frame in frames]
    updates.append(session.flush())
    if records is not None:
        records.extend(r for update in updates for r in update.closed_records)
    return session, session.finish()


def assert_mc_results_identical(got, want, label):
    assert got.probabilities.tobytes() == want.probabilities.tobytes(), label
    assert got.smoothed.tobytes() == want.smoothed.tobytes(), label
    assert got.events == want.events, label
    assert got.matched_frame_indices.tobytes() == want.matched_frame_indices.tobytes(), label
    assert (got.encoded is None) == (want.encoded is None), label
    if got.encoded is not None:
        assert got.encoded.total_bits == want.encoded.total_bits, label
        assert [(f.index, f.bits) for f in got.encoded.frames] == [
            (f.index, f.bits) for f in want.encoded.frames
        ], label


class TestBanks:
    def test_banks_are_keyed_at_bind_time(self, bank_extractor):
        mcs = mixed_microclassifiers(bank_extractor)
        session = StreamingPipeline(bank_extractor, mcs, frame_rate=15.0)
        banks = [[state.mc.name for state in bank.states] for bank in session._banks]
        # Installed order is kept inside a bank and between banks' first members.
        assert banks == [
            ["mc00", "mc07", "mc14"],  # full_frame, deep tap
            ["mc01", "mc08", "mc15"],  # full_frame, shallow tap
            ["mc02", "mc09", "mc16"],  # localized, crop 0
            ["mc03", "mc10"],  # localized, crop 1
            ["mc04", "mc11"],  # localized, uncropped
            ["mc05", "mc12"],  # windowed
            ["mc06", "mc13"],  # windowed, other tap and crop
            ["loner"],  # full_frame, cropped
        ]
        assert sorted(name for bank in banks for name in bank) == sorted(mc.name for mc in mcs)
        assert [bank.is_windowed for bank in session._banks] == [False] * 5 + [True] * 2 + [False]

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_mixed_session_equals_one_session_per_mc(self, bank_extractor, batch_size):
        """Field by field: probabilities bytes, smoothed, events, records, bits."""
        mcs = mixed_microclassifiers(bank_extractor)
        frames = bank_frames(14)
        # Thresholds at each MC's own median score, so every MC decides both ways.
        _, probe = run_session(bank_extractor, mcs, frames, batch_size)
        thresholds = {
            name: float(np.clip(np.median(r.probabilities), 1e-6, 1 - 1e-6))
            for name, r in probe.per_mc.items()
        }
        mixed_records: list = []
        _, mixed = run_session(bank_extractor, mcs, frames, batch_size, thresholds, mixed_records)
        assert sum(len(r.events) for r in mixed.per_mc.values()) >= len(mcs) // 2
        total_bits, uploaded = 0.0, set()
        for mc in mcs:
            solo_records: list = []
            _, solo = run_session(bank_extractor, [mc], frames, batch_size, thresholds, solo_records)
            assert_mc_results_identical(mixed.per_mc[mc.name], solo.per_mc[mc.name], mc.name)
            records = [r for r in mixed_records if r.mc_name == mc.name]
            assert records == solo_records, mc.name
            total_bits += solo.total_uploaded_bits
            uploaded.update(solo.uploaded_frame_indices.tolist())
        assert mixed.total_uploaded_bits == pytest.approx(total_bits, rel=1e-12)
        assert mixed.uploaded_frame_indices.tolist() == sorted(uploaded)

    def test_set_threshold_on_one_member_moves_only_that_member(self, bank_extractor):
        mcs = [bank_mc(bank_extractor, f"ff{k}", "full_frame", seed=k) for k in range(3)]
        frames = bank_frames(8)
        _, reference = run_session(bank_extractor, mcs, frames, 1)
        session, result = run_session(bank_extractor, mcs, frames, 1, {"ff1": 1 - 1e-9})
        assert len(session._banks) == 1
        assert session.current_threshold("ff1") == 1 - 1e-9
        assert session.current_threshold("ff0") == session.current_threshold("ff2") == 0.5
        assert not result.per_mc["ff1"].smoothed.any()
        assert result.per_mc["ff1"].events == []
        for name in ("ff0", "ff2"):
            assert_mc_results_identical(result.per_mc[name], reference.per_mc[name], name)
        assert result.per_mc["ff1"].probabilities.tobytes() == (
            reference.per_mc["ff1"].probabilities.tobytes()
        )

    @pytest.mark.parametrize("architecture", ["full_frame", "localized", "windowed"])
    def test_weights_loaded_after_the_first_push_are_used_by_the_next(
        self, bank_extractor, architecture
    ):
        """No stacked copy of the weights: the bank reads each member's at call time."""
        frames = bank_frames(9)
        mcs = [bank_mc(bank_extractor, f"m{k}", architecture, seed=k) for k in range(3)]
        donor = bank_mc(bank_extractor, "m1", architecture, seed=77)
        _, before = run_session(bank_extractor, mcs, frames, 1)
        _, donor_alone = run_session(bank_extractor, [donor], frames, 1)

        bank_extractor.reset_cache()
        session = StreamingPipeline(
            bank_extractor, mcs, config=PipelineConfig(batch_size=1), frame_rate=15.0
        )
        session.push(frames[0])
        models = ["reduce", "head"] if architecture == "windowed" else ["model"]
        for attribute in models:
            target, source = getattr(mcs[1], attribute), getattr(donor, attribute)
            state = {p.name: p.value for p in source.parameters()}
            if isinstance(target, Sequential):
                target.load_state_dict(state)
            else:  # the windowed MC's bare reduce convolution
                for parameter in target.parameters():
                    parameter.value = state[parameter.name].copy()
        for frame in frames[1:]:
            session.push(frame)
        after = session.finish()
        for name in ("m0", "m2"):
            assert after.per_mc[name].probabilities.tobytes() == (
                before.per_mc[name].probabilities.tobytes()
            )
        swapped = after.per_mc["m1"].probabilities
        # A windowed frame's score reads reductions of later frames, so only frames whose
        # whole window postdates the swap must match the donor; the rest must have moved.
        settled = 1 + (2 * mcs[1].window if architecture == "windowed" else 0)
        donor_scores = donor_alone.per_mc["m1"].probabilities
        assert swapped[settled:].tobytes() == donor_scores[settled:].tobytes()
        assert swapped[1:].tobytes() != before.per_mc["m1"].probabilities[1:].tobytes()

    def test_one_mc_in_two_sessions_is_left_unmutated(self, bank_extractor, tiny_base_dnn):
        """Bank state (grouping, the windowed ring) lives on the session, never on the MC."""
        shared = [
            bank_mc(bank_extractor, "shared_ff", "full_frame", seed=1),
            bank_mc(bank_extractor, "shared_win", "windowed", seed=2),
        ]
        before = [(sorted(vars(mc)), [p.value.copy() for p in mc.parameters()]) for mc in shared]
        first_mates = [bank_mc(bank_extractor, "a_ff", "full_frame", seed=3)]
        second_mates = [
            bank_mc(bank_extractor, "b_win", "windowed", seed=4),
            bank_mc(bank_extractor, "b_ff", "full_frame", seed=5),
        ]
        other_extractor = FeatureExtractor(tiny_base_dnn, list(BANK_TAPS), cache_size=4)
        one, two = PipelineConfig(batch_size=1), PipelineConfig(batch_size=2)
        first = StreamingPipeline(bank_extractor, shared + first_mates, config=one, frame_rate=15.0)
        second = StreamingPipeline(other_extractor, second_mates + shared, config=two, frame_rate=15.0)
        frames, other_frames = bank_frames(9, seed=1), bank_frames(7, seed=2)
        for i in range(9):  # interleaved pushes: two rings, two chunkings, one MC object
            first.push(frames[i])
            if i < 7:
                second.push(other_frames[i])
        first_result, second_result = first.finish(), second.finish()
        for mc, (attributes, weights) in zip(shared, before):
            assert sorted(vars(mc)) == attributes
            for parameter, weight in zip(mc.parameters(), weights):
                assert parameter.value.tobytes() == weight.tobytes()
        for mc in shared:
            name = mc.name
            _, alone = run_session(bank_extractor, [mc], frames, 1)
            assert_mc_results_identical(first_result.per_mc[name], alone.per_mc[name], name)
            _, alone = run_session(other_extractor, [mc], other_frames, 2)
            assert_mc_results_identical(second_result.per_mc[name], alone.per_mc[name], name)


class TestBankSharingCounts:
    """The sharing as a count, not a ratio: lowerings and sigmoids per push, per bank."""

    @staticmethod
    def fifty_mcs(extractor, extra_members=0):
        """The ``many_mc_stream`` mix (17 full-frame, 17 localized over 3 crops, 16 windowed)."""
        crops = (*BANK_CROPS, FeatureMapCrop(0, 0, 24, 16))
        mcs = []
        for k in range(50 + extra_members):
            architecture = ("full_frame", "localized", "windowed")[k % 3]
            crop = crops[(k // 3) % 3] if architecture == "localized" else None
            mcs.append(bank_mc(extractor, f"mc{k:02d}", architecture, seed=k, crop=crop))
        return mcs

    @staticmethod
    def count_one_steady_push(monkeypatch, extractor, mcs):
        import repro.core.architectures as architectures
        import repro.nn.batched as batched
        import repro.nn.layers as layers

        session = StreamingPipeline(
            extractor, mcs, config=PipelineConfig(batch_size=1), frame_rate=15.0
        )
        frames = bank_frames(6)
        for frame in frames[:5]:  # past the windowed banks' warm-up: every bank scores a frame
            session.push(frame)
        extractor.extract(frames[5])  # the base DNN's own lowerings stay out of the count
        counts = {"bank": 0, "member": 0, "sigmoid": 0}

        def counted(patch, module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)

            patch.setattr(module, name, wrapper)

        with monkeypatch.context() as patch:
            counted(patch, batched, "conv_columns", "bank")
            counted(patch, batched, "im2col", "bank")
            counted(patch, layers, "conv_columns", "member")
            counted(patch, layers, "im2col", "member")
            counted(patch, architectures, "_SIGMOID", "sigmoid")
            session.push(frames[5])
        return session, counts

    def test_lowerings_and_sigmoids_do_not_grow_with_bank_size(self, monkeypatch, bank_extractor):
        session, counts = self.count_one_steady_push(
            monkeypatch, bank_extractor, self.fifty_mcs(bank_extractor)
        )
        assert [len(bank.states) for bank in session._banks] == [17, 6, 16, 6, 5]
        # full_frame: 3 pointwise convs; localized: 2 x (depthwise + pointwise) in each of 3
        # banks; windowed: the stacked 1x1 reduction (its head's tail has no convolution).
        assert counts["bank"] == 3 + 3 * 4 + 1
        assert counts["sigmoid"] == len(session._banks) == 5
        # A windowed member's private window goes through its own conv1 and conv2.
        assert counts["member"] == 2 * 16

        bank_extractor.reset_cache()
        bigger, more = self.count_one_steady_push(
            monkeypatch, bank_extractor, self.fifty_mcs(bank_extractor, extra_members=12)
        )
        assert [len(bank.states) for bank in bigger._banks] == [21, 7, 20, 7, 7]
        assert more["bank"] == counts["bank"] and more["sigmoid"] == counts["sigmoid"]
        assert more["member"] == 2 * 20

    def test_a_one_frame_chunk_is_not_copied_and_the_crop_is_resolved_once(
        self, monkeypatch, bank_extractor
    ):
        calls = {"stack": 0, "coords": 0}
        real_stack, real_coords = np.stack, FeatureMapCrop.to_feature_coords

        def stack(*args, **kwargs):
            calls["stack"] += 1
            return real_stack(*args, **kwargs)

        def coords(self, *args, **kwargs):
            calls["coords"] += 1
            return real_coords(self, *args, **kwargs)

        mcs = self.fifty_mcs(bank_extractor)
        session = StreamingPipeline(
            bank_extractor, mcs, config=PipelineConfig(batch_size=1), frame_rate=15.0
        )
        monkeypatch.setattr(np, "stack", stack)
        monkeypatch.setattr(FeatureMapCrop, "to_feature_coords", coords)
        for frame in bank_frames(6):
            session.push(frame)
        assert calls == {"stack": 0, "coords": 3}  # three cropped banks, first frame only
