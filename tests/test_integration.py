"""End-to-end integration tests: synthetic camera -> edge node -> events -> metrics.

These exercise the whole stack the way the examples and benchmarks do, on a
miniature scene: generate an annotated video, train a microclassifier on the
train split, deploy it on an edge node with a constrained uplink, filter the
test split, and score the detected events against ground truth.
"""

import numpy as np
import pytest

from repro.core.architectures import build_microclassifier
from repro.core.microclassifier import MicroClassifierConfig
from repro.core.streaming import StreamingPipeline
from repro.core.training import TrainingConfig, train_classifier
from repro.edge.archive import FrameArchive
from repro.edge.node import EdgeNode
from repro.edge.uplink import ConstrainedUplink
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureExtractor
from repro.metrics.event_metrics import event_f1_score
from repro.nn.serialization import load_weights, save_weights
from repro.video.datasets import make_roadway_like


@pytest.fixture(scope="module")
def dataset():
    return make_roadway_like(num_frames=120, width=96, height=40, seed=31)


@pytest.fixture(scope="module")
def deployment(dataset):
    """A trained microclassifier plus the extractor it was trained against."""
    height, width = 40, 96
    base = build_mobilenet_like((height, width, 3), alpha=0.125, rng=np.random.default_rng(0))
    layer = "conv2_2/sep"
    extractor = FeatureExtractor(base, [layer], cache_size=8)
    config = MicroClassifierConfig("red_people", layer, threshold=0.5, upload_bitrate=20_000)
    mc = build_microclassifier("localized", config, extractor.layer_shape(layer))

    train_maps = np.stack(
        [extractor.extract_pixels(frame.pixels)[layer] for frame in dataset.train_stream]
    )
    train_classifier(
        mc,
        train_maps,
        dataset.train_labels.labels,
        TrainingConfig(epochs=3, batch_size=16, learning_rate=2e-3, seed=0),
    )
    extractor.reset_cache()
    return extractor, mc


class TestEndToEnd:
    def test_edge_node_filters_and_uploads_events(self, dataset, deployment):
        extractor, mc = deployment
        session = StreamingPipeline(extractor, [mc], frame_rate=dataset.test_stream.frame_rate)
        node = EdgeNode(session, ConstrainedUplink(capacity_bps=200_000), FrameArchive(256 * 1024**2))
        report = node.process_stream(dataset.test_stream)

        result = report.pipeline_result
        assert result.num_frames == len(dataset.test_stream)
        assert report.archived_frames == len(dataset.test_stream)

        mc_result = result.per_mc["red_people"]
        # The filter must be selective: not everything, and bandwidth bounded.
        assert mc_result.num_matched_frames < result.num_frames
        assert result.average_uplink_bandwidth <= 20_000 * 1.2

        # Events recorded in frame metadata match the detected events.
        for event in mc_result.events:
            middle = dataset.test_stream[event.start]
            assert middle.event_memberships().get("red_people") == event.event_id

    def test_detections_beat_chance_on_ground_truth(self, dataset, deployment):
        extractor, mc = deployment
        pipeline = StreamingPipeline(
            extractor, [mc], frame_rate=dataset.test_stream.frame_rate, annotate_frames=False
        )
        result = pipeline.process_stream(dataset.test_stream)
        smoothed = result.per_mc["red_people"].smoothed
        truth = dataset.test_labels.labels
        f1 = event_f1_score(truth, smoothed)
        # Random guessing at the positive rate would land far below this.
        assert 0.0 <= f1 <= 1.0
        probabilities = result.per_mc["red_people"].probabilities
        positives = probabilities[truth.astype(bool)]
        negatives = probabilities[~truth.astype(bool)]
        if positives.size and negatives.size:
            assert positives.mean() > negatives.mean()

    def test_microclassifier_weights_roundtrip_through_deployment_archive(
        self, dataset, deployment, tmp_path
    ):
        """An MC can be trained offline, serialized, and re-deployed with identical behaviour."""
        extractor, mc = deployment
        path = save_weights(mc.model, tmp_path / "red_people")
        fresh = build_microclassifier(
            "localized",
            mc.config,
            mc.input_shape,
            rng=np.random.default_rng(123),
        )
        load_weights(fresh.model, path, strict=False)
        feature_map = extractor.feature_map(dataset.test_stream[10], mc.input_layer, mc.crop)[None]
        assert fresh.predict_proba_batch(feature_map) == pytest.approx(
            mc.predict_proba_batch(feature_map)
        )

    def test_demand_fetch_retrieves_event_context(self, dataset, deployment):
        extractor, mc = deployment
        session = StreamingPipeline(extractor, [mc], frame_rate=dataset.test_stream.frame_rate)
        node = EdgeNode(session, ConstrainedUplink(capacity_bps=1_000_000), FrameArchive(256 * 1024**2))
        report = node.process_stream(dataset.test_stream)
        events = report.pipeline_result.per_mc["red_people"].events
        if not events:
            pytest.skip("No events detected in this miniature run")
        event = events[0]
        segment = node.demand_fetch(max(0, event.start - 2), event.end + 2, report=report)
        assert segment.frames
        assert report.demand_fetches
