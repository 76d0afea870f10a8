"""Equivalence harness: BatchedScorer ≡ per-camera scoring, bit for bit.

The tentpole claim of the cross-camera batched path is that it changes
wall-clock time and *nothing else*: probabilities, decisions, smoothed
outputs, events, and upload accounting must be bit-identical
(``np.array_equal``, never allclose) whether frames go through the
:class:`BatchedScorer` the way the fleet runtime drives it (``prefetch`` ->
``prime`` -> ``push``, see :func:`score_like_the_runtime`) or one-at-a-time
per-camera pushes — across
randomized seeds, mixed resolutions, ragged batch tails, and live threshold
drift.  The fleet-level composition is the oracle registry's ``batched``
entry (``tests/oracles``); this file pins the core mechanism.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedScorer
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.architectures import build_microclassifier
from repro.core.pipeline import PipelineConfig
from repro.core.streaming import StreamingPipeline
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor, FeatureMapCrop
from repro.nn.layers import sigmoid
from repro.video.frame import Frame

TAP = "conv2_2/sep"


def make_base_dnn(shape=(24, 32, 3), seed=0):
    return build_mobilenet_like(shape, alpha=0.125, rng=np.random.default_rng(seed))


def make_session(base_dnn, camera, seed, architecture="localized", threshold=0.6):
    """A deterministic per-camera session; same (camera, seed) -> same weights."""
    extractor = FeatureExtractor(base_dnn, [TAP], cache_size=4)
    mc = build_microclassifier(
        architecture,
        MicroClassifierConfig(name=f"{camera}/primary", input_layer=TAP, threshold=threshold),
        extractor.layer_shape(TAP),
        rng=np.random.default_rng(seed * 1000 + zlib.crc32(camera.encode()) % 997),
    )
    shape = base_dnn.input_shape
    return StreamingPipeline(
        extractor,
        [mc],
        config=PipelineConfig(batch_size=1),
        frame_rate=10.0,
        resolution=(shape[1], shape[0]),
    )


def make_frames(shape, camera, seed, count):
    rng = np.random.default_rng(seed * 7919 + zlib.crc32(camera.encode()) % 4099)
    return [Frame(i, i / 10.0, rng.random(shape)) for i in range(count)]


def assert_results_identical(a, b):
    """PipelineResults bit-identical in every per-MC and aggregate output."""
    assert a.per_mc.keys() == b.per_mc.keys()
    for name in a.per_mc:
        ra, rb = a.per_mc[name], b.per_mc[name]
        assert np.array_equal(ra.probabilities, rb.probabilities), name
        assert np.array_equal(ra.smoothed, rb.smoothed), name
        assert np.array_equal(ra.matched_frame_indices, rb.matched_frame_indices), name
        assert ra.events == rb.events, name
    assert np.array_equal(a.uploaded_frame_indices, b.uploaded_frame_indices)
    assert a.total_uploaded_bits == b.total_uploaded_bits


def score_like_the_runtime(scorer, entries):
    """Score one tick's frames as ``FleetRuntime._on_completion`` does, in order.

    Every entry is in service at once; each completion whose frame is not
    ready prefetches itself and every frame still in service, then primes
    and pushes its own frame.
    """
    for k, (session, frame) in enumerate(entries):
        if not scorer.has(session, frame):
            scorer.prefetch(entries[k:])
        scorer.prime(session, frame)
        session.push(frame)


def run_both_paths(cameras, seed, ticks=10, drift=None, architecture="localized"):
    """Drive identical sessions through batched and per-camera scoring.

    ``cameras`` maps camera name -> base DNN (cameras sharing an object share
    the resident model, the grouping the scorer batches on).  ``drift`` maps
    a tick index to a threshold override applied to every session at that
    tick (the live threshold-drift case).  Returns (batched, per-camera)
    finished results plus the scorer, keyed by camera.
    """
    drift = drift or {}
    batched_sessions = {
        cam: make_session(dnn, cam, seed, architecture) for cam, dnn in cameras.items()
    }
    scalar_sessions = {
        cam: make_session(dnn, cam, seed, architecture) for cam, dnn in cameras.items()
    }
    frames = {
        cam: make_frames(dnn.input_shape, cam, seed, ticks) for cam, dnn in cameras.items()
    }
    scorer = BatchedScorer()
    for tick in range(ticks):
        if tick in drift:
            for session in (*batched_sessions.values(), *scalar_sessions.values()):
                session.set_threshold(drift[tick])
        entries = [(batched_sessions[cam], frames[cam][tick]) for cam in cameras]
        score_like_the_runtime(scorer, entries)
        for cam in cameras:
            scalar_sessions[cam].push(frames[cam][tick])
    batched = {cam: s.finish() for cam, s in batched_sessions.items()}
    scalar = {cam: s.finish() for cam, s in scalar_sessions.items()}
    return batched, scalar, scorer


class TestScoreTickEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_shared_dnn_batched_is_bit_identical(self, seed):
        dnn = make_base_dnn(seed=seed)
        cameras = {f"cam{i}": dnn for i in range(4)}
        batched, scalar, scorer = run_both_paths(cameras, seed)
        for cam in cameras:
            assert_results_identical(batched[cam], scalar[cam])
        assert scorer.frames_batched == 4 * 10
        assert scorer.batches_run == 10  # one forward per tick, not per camera

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_resolutions_group_per_base_dnn(self, seed):
        small = make_base_dnn((24, 32, 3), seed=seed)
        large = make_base_dnn((32, 48, 3), seed=seed + 50)
        cameras = {"s0": small, "s1": small, "s2": small, "l0": large, "l1": large}
        batched, scalar, scorer = run_both_paths(cameras, seed, ticks=6)
        for cam in cameras:
            assert_results_identical(batched[cam], scalar[cam])
        assert scorer.batches_run == 6 * 2  # one batch per resident base DNN per tick

    def test_ragged_tail_single_camera_batch(self):
        dnn = make_base_dnn()
        batched, scalar, scorer = run_both_paths({"solo": dnn}, seed=3, ticks=8)
        assert_results_identical(batched["solo"], scalar["solo"])
        assert scorer.batches_run == 8 and scorer.frames_batched == 8

    def test_camera_leaving_mid_stream_keeps_equivalence(self):
        """Tick sizes shrink mid-run (N cameras -> N-1): the ragged tail."""
        dnn = make_base_dnn()
        cameras = ["a", "b", "c"]
        seed = 9
        batched_sessions = {c: make_session(dnn, c, seed) for c in cameras}
        scalar_sessions = {c: make_session(dnn, c, seed) for c in cameras}
        frames = {c: make_frames(dnn.input_shape, c, seed, 10) for c in cameras}
        scorer = BatchedScorer()
        for tick in range(10):
            live = cameras if tick < 5 else cameras[:-1]  # "c" departs mid-run
            score_like_the_runtime(scorer, [(batched_sessions[c], frames[c][tick]) for c in live])
            for c in live:
                scalar_sessions[c].push(frames[c][tick])
        for c in cameras:
            assert_results_identical(batched_sessions[c].finish(), scalar_sessions[c].finish())

    @pytest.mark.parametrize("seed", range(3))
    def test_live_threshold_drift_stays_identical(self, seed):
        dnn = make_base_dnn(seed=seed)
        cameras = {f"cam{i}": dnn for i in range(3)}
        batched, scalar, _ = run_both_paths(
            cameras, seed, ticks=12, drift={3: 0.4, 7: 0.75}
        )
        for cam in cameras:
            assert_results_identical(batched[cam], scalar[cam])

    def test_windowed_architecture_is_covered(self):
        dnn = make_base_dnn()
        cameras = {f"cam{i}": dnn for i in range(2)}
        batched, scalar, _ = run_both_paths(cameras, seed=4, ticks=8, architecture="windowed")
        for cam in cameras:
            assert_results_identical(batched[cam], scalar[cam])


ARCHITECTURES = ("full_frame", "localized", "windowed")
CROP = FeatureMapCrop(0, 0, 16, 16)


def build_bank_members(architecture, members, shape, seed):
    """Same architecture and input shape, independent weights (and non-zero biases)."""
    mcs = []
    for k in range(members):
        rng = np.random.default_rng(seed * 101 + k)
        config = MicroClassifierConfig(name=f"member{k}", input_layer=TAP)
        mc = build_microclassifier(architecture, config, shape, rng=rng)
        for parameter in mc.parameters():
            if parameter.value.ndim == 1:
                parameter.value[...] = rng.standard_normal(parameter.value.shape)
        mcs.append(mc)
    return mcs


def sequential_reference(mc, x):
    """The pre-bank path: the MC's own layer-by-layer forward, then the sigmoid."""
    logits = mc.forward_logits(np.asarray(x, dtype=np.float64), training=False)
    return sigmoid(logits[:, 0])


bank_cases = dict(
    members=st.integers(1, 6),
    frames=st.integers(1, 4),
    crop_view=st.booleans(),
    seed=st.integers(0, 2**16),
)


def bank_feature_maps(frames, crop_view, seed):
    x = np.random.default_rng(seed).standard_normal((frames, 9, 11, 6))
    return x[:, 1:8, 2:10, :] if crop_view else x


class TestMicroclassifierBanks:
    """Every member's bank row is, byte for byte, what that member computes alone."""

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @given(**bank_cases)
    @settings(max_examples=40, deadline=None)
    def test_bank_rows_equal_solo_predict_proba_batch(
        self, architecture, members, frames, crop_view, seed
    ):
        x = bank_feature_maps(frames, crop_view, seed)
        mcs = build_bank_members(architecture, members, x.shape[1:], seed)
        rows = mcs[0].predict_proba_batch(x, mcs[1:])
        assert rows.shape == (members, frames)
        for row, mc in zip(rows, mcs):
            assert row.tobytes() == mc.predict_proba_batch(x).tobytes()
            assert row.tobytes() == sequential_reference(mc, x).tobytes()

    @given(**bank_cases)
    @settings(max_examples=40, deadline=None)
    def test_windowed_bank_equals_solo_predict_proba_stream(self, members, frames, crop_view, seed):
        """The streaming recipe — one stacked reduction, then a bank head per window."""
        x = bank_feature_maps(frames + 2, crop_view, seed)
        mcs = build_bank_members("windowed", members, x.shape[1:], seed)
        reduced = mcs[0].reduce_batch(x, mcs[1:])
        assert reduced.shape[:2] == (members, x.shape[0])
        half, last = mcs[0].window // 2, x.shape[0] - 1
        columns = [
            mcs[0].predict_window(
                [reduced[:, min(max(j, 0), last)] for j in range(i - half, i + half + 1)], mcs[1:]
            )
            for i in range(x.shape[0])
        ]
        rows = np.stack(columns, axis=1)
        for row, mc in zip(rows, mcs):
            assert row.tobytes() == mc.predict_proba_stream(x).tobytes()

    def test_a_bank_of_none_still_returns_one_row_per_member(self):
        x = bank_feature_maps(2, False, 1)
        for architecture in ARCHITECTURES:
            (mc,) = build_bank_members(architecture, 1, x.shape[1:], 4)
            solo, rows = mc.predict_proba_batch(x), mc.predict_proba_batch(x, [])
            assert solo.shape == (2,) and rows.shape == (1, 2)
            assert rows[0].tobytes() == solo.tobytes()

    def test_bank_key_separates_what_cannot_share_a_bank(self):
        shape = (7, 8, 6)
        base, *_ = build_bank_members("localized", 1, shape, 0)
        same, *_ = build_bank_members("localized", 1, shape, 9)
        assert base.bank_key() == same.bank_key()  # weights differ, the key does not
        different = [
            build_bank_members("localized", 1, (7, 9, 6), 0)[0],
            build_bank_members("full_frame", 1, shape, 0)[0],
            build_microclassifier(
                "localized", MicroClassifierConfig("other_tap", "conv3_2/sep"), shape
            ),
            build_microclassifier("localized", MicroClassifierConfig("crop", TAP, crop=CROP), shape),
        ]
        for other in different:
            assert other.bank_key() != base.bank_key(), other
        windowed = [
            build_microclassifier("windowed", MicroClassifierConfig("w", tap, crop=crop), shape)
            for tap, crop in ((TAP, None), ("conv3_2/sep", None), (TAP, CROP), (TAP, CROP))
        ]
        keys = [mc.bank_key() for mc in windowed]
        assert len(set(keys)) == 3 and keys[2] == keys[3]
        # Equal keys are equal weight shapes: a bank stacks its members' weights.
        for base_mc, other in ((base, same), (windowed[2], windowed[3])):
            assert [p.value.shape for p in base_mc.parameters()] == [
                p.value.shape for p in other.parameters()
            ]


class TestScorerSemantics:
    def test_prefetch_skips_cached_and_already_prefetched(self):
        dnn = make_base_dnn()
        session = make_session(dnn, "cam", seed=1)
        [frame] = make_frames(dnn.input_shape, "cam", 1, 1)
        scorer = BatchedScorer()
        assert not scorer.has(session, frame)
        assert scorer.prefetch([(session, frame)]) == 1
        assert scorer.has(session, frame)
        assert scorer.prefetch([(session, frame)]) == 0  # already prefetched
        assert scorer.prime(session, frame)
        assert not scorer.prime(session, frame)  # a slice is handed over once
        session.push(frame)  # cache hit: activations were primed
        assert scorer.prefetch([(session, frame)]) == 0  # already in the cache

    def test_prime_without_prefetch_returns_false(self):
        dnn = make_base_dnn()
        session = make_session(dnn, "cam", seed=2)
        [frame] = make_frames(dnn.input_shape, "cam", 2, 1)
        assert not BatchedScorer().prime(session, frame)

    def test_primed_activations_match_extractor_exactly(self):
        dnn = make_base_dnn()
        primed = make_session(dnn, "cam", seed=5)
        direct = make_session(dnn, "cam", seed=5)
        [frame] = make_frames(dnn.input_shape, "cam", 5, 1)
        scorer = BatchedScorer()
        scorer.prefetch([(primed, frame)])
        scorer.prime(primed, frame)
        assert np.array_equal(
            primed.extractor.extract(frame)[TAP], direct.extractor.extract(frame)[TAP]
        )

    def test_resolution_mismatch_raises(self):
        dnn = make_base_dnn((24, 32, 3))
        session = make_session(dnn, "cam", seed=6)
        wrong = Frame(0, 0.0, np.zeros((32, 48, 3)))
        with pytest.raises(ValueError, match="resident base DNN"):
            BatchedScorer().prefetch([(session, wrong)])


class TestExtractorPrime:
    def test_prime_then_extract_runs_base_dnn_once(self, base_dnn_passes):
        dnn = make_base_dnn()
        passes = base_dnn_passes(dnn)
        extractor = FeatureExtractor(dnn, [TAP], cache_size=4)
        [frame] = make_frames(dnn.input_shape, "cam", 8, 1)
        activations = {TAP: extractor.extract_pixels(frame.pixels)[TAP]}
        extractor.prime(frame.index, activations)
        assert extractor.extract(frame)[TAP] is activations[TAP]  # cache hit, no copy
        assert passes == [1]

    def test_prime_missing_tap_raises(self):
        dnn = make_base_dnn()
        extractor = FeatureExtractor(dnn, [TAP], cache_size=4)
        with pytest.raises(KeyError, match="missing tapped layer"):
            extractor.prime(0, {"wrong_layer": np.zeros((1, 1, 1))})

    def test_prime_cached_frame_is_noop(self, base_dnn_passes):
        dnn = make_base_dnn()
        passes = base_dnn_passes(dnn)
        extractor = FeatureExtractor(dnn, [TAP], cache_size=4)
        [frame] = make_frames(dnn.input_shape, "cam", 9, 1)
        original = extractor.extract(frame)
        extractor.prime(frame.index, {TAP: np.zeros_like(original[TAP])})
        assert extractor.extract(frame)[TAP] is original[TAP]
        assert passes == [1]


class TestPushOverhead:
    def test_push_never_rescans_states_by_name(self, monkeypatch):
        """The actuation lookup is bound at init: zero _states_for per push."""
        dnn = make_base_dnn()
        session = make_session(dnn, "cam", seed=10)
        calls = []
        original = StreamingPipeline._states_for

        def counting(self, mc_name):
            calls.append(mc_name)
            return original(self, mc_name)

        monkeypatch.setattr(StreamingPipeline, "_states_for", counting)
        for frame in make_frames(dnn.input_shape, "cam", 10, 5):
            session.push(frame)
        assert calls == []

    def test_bound_lookup_still_resolves_and_rejects(self):
        dnn = make_base_dnn()
        session = make_session(dnn, "cam", seed=11)
        session.set_threshold(0.3, mc_name="cam/primary")
        assert session.current_threshold("cam/primary") == 0.3
        with pytest.raises(KeyError, match="no_such_mc"):
            session.set_threshold(0.5, mc_name="no_such_mc")
