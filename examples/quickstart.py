#!/usr/bin/env python3
"""Quickstart: filter a synthetic surveillance stream with one microclassifier.

This walks the core FilterForward loop end to end in a few minutes on a CPU:

1. generate a small annotated Roadway-like dataset (the *People with red*
   task from the paper),
2. build the shared MobileNet-style base DNN and a feature extractor,
3. train a localized binary classifier microclassifier offline on the
   training video,
4. deploy it in a :class:`StreamingPipeline` and filter the test video,
5. report event-level accuracy and bandwidth use against ground truth.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    MicroClassifierConfig,
    StreamingPipeline,
    TrainingConfig,
    build_microclassifier,
    train_classifier,
)
from repro.features import FeatureExtractor, build_mobilenet_like
from repro.metrics import bits_to_mbps, event_f1_score
from repro.video import make_roadway_like

# Small but representative settings; increase num_frames / resolution for
# numbers closer to the ``python -m repro.experiments.runner`` presets.
NUM_FRAMES = 300
WIDTH, HEIGHT = 128, 54
TAP_LAYER = "conv2_2/sep"  # chosen by the paper's layer-size heuristic at this scale


def main() -> None:
    print("1) Generating the Roadway-like dataset (People with red task) ...")
    dataset = make_roadway_like(num_frames=NUM_FRAMES, width=WIDTH, height=HEIGHT, seed=23)
    print(
        f"   train: {len(dataset.train_stream)} frames, "
        f"{len(dataset.train_labels.events())} events; "
        f"test: {len(dataset.test_stream)} frames, "
        f"{len(dataset.test_labels.events())} events"
    )

    print("2) Building the shared base DNN and feature extractor ...")
    base_dnn = build_mobilenet_like((HEIGHT, WIDTH, 3), alpha=0.25, rng=np.random.default_rng(0))
    extractor = FeatureExtractor(base_dnn, [TAP_LAYER], cache_size=8)
    print(f"   base DNN: {base_dnn.num_parameters():,} weights, "
          f"{base_dnn.multiply_adds() / 1e6:.1f}M multiply-adds per frame")

    print("3) Training the localized binary classifier microclassifier ...")
    config = MicroClassifierConfig(
        name="people_with_red",
        input_layer=TAP_LAYER,
        threshold=0.5,
        upload_bitrate=8_000,  # scaled-down equivalent of the paper's 500 kb/s
    )
    mc = build_microclassifier("localized", config, extractor.layer_shape(TAP_LAYER))
    train_maps = np.stack(
        [extractor.extract_pixels(f.pixels)[TAP_LAYER] for f in dataset.train_stream]
    )
    extractor.reset_cache()
    history = train_classifier(
        mc,
        train_maps,
        dataset.train_labels.labels,
        TrainingConfig(epochs=6, batch_size=16, learning_rate=2e-3, seed=0),
    )
    print(f"   trained for {history.steps} steps; final loss {history.final_loss:.3f}")
    print(f"   marginal cost: {mc.multiply_adds() / 1e6:.2f}M multiply-adds per frame "
          f"({base_dnn.multiply_adds() / mc.multiply_adds():.0f}x cheaper than the base DNN)")

    print("4) Filtering the test stream on the (simulated) edge node ...")
    stream = dataset.test_stream
    result = StreamingPipeline(extractor, [mc], frame_rate=stream.frame_rate).process_stream(stream)
    mc_result = result.per_mc["people_with_red"]
    print(
        f"   matched {mc_result.num_matched_frames}/{result.num_frames} frames "
        f"in {len(mc_result.events)} events"
    )

    print("5) Scoring against ground truth ...")
    breakdown = event_f1_score(
        dataset.test_labels.labels, mc_result.smoothed, return_breakdown=True
    )
    print(
        f"   event F1 {breakdown.f1:.3f} "
        f"(precision {breakdown.precision:.3f}, event recall {breakdown.recall:.3f})"
    )
    raw_mbps = bits_to_mbps(dataset.test_stream.raw_bits_per_second())
    print(
        f"   average upload bandwidth {bits_to_mbps(result.average_uplink_bandwidth):.4f} Mb/s "
        f"(raw stream would be {raw_mbps:.1f} Mb/s; "
        f"upload fraction {result.upload_fraction:.2f})"
    )


if __name__ == "__main__":
    main()
