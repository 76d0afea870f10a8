"""Figure 4: bandwidth use versus event F1 (FilterForward vs. compress everything).

The paper's Figure 4 plots, for the Roadway dataset's *People with red* task
and two microclassifier architectures, the average uplink bandwidth against
the event F1 score of two offload strategies:

* **FilterForward** — filter on the edge using the original stream, re-encode
  only matched frames at a task-chosen bitrate, and upload those;
* **Compress everything** — H.264-compress the entire stream to a low bitrate,
  upload it all, and run the same filter in the cloud on the degraded video.

Our executable datasets run at a reduced spatial scale, so bitrates are swept
over the same *bits-per-pixel* range as the paper and reported both at the
scaled resolution and as paper-equivalent Mb/s (scaled by the area ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import mc_input_feature_map
from repro.core.training import score_classifier
from repro.experiments.common import ExperimentContext, TrainedClassifier
from repro.metrics.bandwidth import bits_to_mbps
from repro.video.codec import H264Simulator

__all__ = ["Figure4Point", "Figure4Result", "run_figure4", "summarize_figure4"]


@dataclass(frozen=True)
class Figure4Point:
    """One (bandwidth, accuracy) point for one offload strategy."""

    strategy: str
    architecture: str
    target_bitrate: float
    average_bandwidth: float
    paper_equivalent_mbps: float
    event_f1: float


@dataclass
class Figure4Result:
    """All points for one microclassifier architecture."""

    architecture: str
    filterforward: list[Figure4Point]
    compress_everything: list[Figure4Point]


def _paper_equivalent_mbps(bits_per_second: float, context: ExperimentContext) -> float:
    """Scale a bandwidth at the generated resolution up to the paper's resolution."""
    spec = context.dataset.spec
    scaled_area = spec.resolution[0] * spec.resolution[1]
    paper_area = spec.paper_resolution[0] * spec.paper_resolution[1]
    return bits_to_mbps(bits_per_second * paper_area / scaled_area)


def default_bitrate_sweep(context: ExperimentContext, num_points: int = 6) -> list[float]:
    """Bitrates (at the generated resolution) spanning the paper's bpp range.

    The paper's compress-everything curve spans roughly 0.004-0.4 bits per
    pixel (0.1-10 Mb/s at 2048x850, 15 fps).
    """
    spec = context.dataset.spec
    pixels_per_second = spec.resolution[0] * spec.resolution[1] * spec.frame_rate
    bpp_values = np.geomspace(0.004, 0.4, num_points)
    return [float(bpp * pixels_per_second) for bpp in bpp_values]


def filterforward_upload_bitrate(context: ExperimentContext, paper_bitrate: float = 500_000.0) -> float:
    """Translate a paper-scale upload bitrate (e.g. 500 kb/s) to the generated resolution."""
    spec = context.dataset.spec
    scaled_area = spec.resolution[0] * spec.resolution[1]
    paper_area = spec.paper_resolution[0] * spec.paper_resolution[1]
    return float(paper_bitrate * scaled_area / paper_area)


def run_figure4(
    context: ExperimentContext,
    architecture: str = "localized",
    compress_bitrates: list[float] | None = None,
    ff_upload_bitrate: float | None = None,
    trained: TrainedClassifier | None = None,
) -> Figure4Result:
    """Produce the Figure 4 series for one microclassifier architecture."""
    codec = H264Simulator()
    compress_bitrates = compress_bitrates or default_bitrate_sweep(context)
    ff_upload_bitrate = (
        ff_upload_bitrate
        if ff_upload_bitrate is not None
        else filterforward_upload_bitrate(context)
    )
    trained = trained or context.train_microclassifier(architecture)
    test_stream = context.dataset.test_stream

    # FilterForward: accuracy comes from filtering the original stream;
    # bandwidth comes from re-encoding only the matched frames.
    matched = np.flatnonzero(trained.smoothed)
    if matched.size:
        matched_frames = [test_stream.frame(int(i)) for i in matched]
        encoded = codec.encode(
            matched_frames,
            ff_upload_bitrate,
            test_stream.frame_rate,
            test_stream.resolution,
            stream_duration=test_stream.duration,
        )
        ff_bandwidth = encoded.average_bandwidth
    else:
        ff_bandwidth = 0.0
    ff_point = Figure4Point(
        strategy="filterforward",
        architecture=architecture,
        target_bitrate=ff_upload_bitrate,
        average_bandwidth=ff_bandwidth,
        paper_equivalent_mbps=_paper_equivalent_mbps(ff_bandwidth, context),
        event_f1=trained.breakdown.f1,
    )

    # Compress everything: degrade the whole stream at each bitrate, run the
    # *same trained MC* on the degraded video, and pay the full-stream bitrate.
    mc = trained.classifier
    compress_points: list[Figure4Point] = []
    for bitrate in compress_bitrates:
        degraded_frames, encoded = codec.transcode_stream(test_stream, bitrate)
        feature_maps = np.stack(
            [
                mc_input_feature_map(mc, frame, context.extractor.extract_pixels(frame.pixels))
                for frame in degraded_frames
            ],
            axis=0,
        )
        probabilities = score_classifier(mc, feature_maps)
        breakdown = context.evaluate_predictions(probabilities, threshold=mc.config.threshold)
        compress_points.append(
            Figure4Point(
                strategy="compress_everything",
                architecture=architecture,
                target_bitrate=float(bitrate),
                average_bandwidth=encoded.average_bandwidth,
                paper_equivalent_mbps=_paper_equivalent_mbps(encoded.average_bandwidth, context),
                event_f1=breakdown.f1,
            )
        )

    return Figure4Result(
        architecture=architecture,
        filterforward=[ff_point],
        compress_everything=compress_points,
    )


def summarize_figure4(result: Figure4Result) -> dict[str, float]:
    """Headline numbers the paper quotes in Section 4.3.

    * ``bandwidth_reduction`` — bandwidth of the cheapest compress-everything
      point that (approximately) matches FilterForward's accuracy, divided by
      FilterForward's bandwidth (claims ``fig4.bandwidth_reduction.*``).
    * ``f1_improvement`` — FilterForward's event F1 divided by the F1 of the
      compress-everything point using a comparable amount of bandwidth
      (claims ``fig4.f1_gain.*``).
    """
    ff = result.filterforward[0]
    points = sorted(result.compress_everything, key=lambda p: p.average_bandwidth)
    if not points or ff.average_bandwidth <= 0:
        # No compression curve to compare against, or FilterForward matched
        # nothing at all (so its bandwidth use is zero — an infinite saving).
        reduction = float("inf") if points else float("nan")
        return {
            "bandwidth_reduction": reduction,
            "f1_improvement": float("nan"),
            "filterforward_f1": float(ff.event_f1),
            "filterforward_mbps_paper_equivalent": float(ff.paper_equivalent_mbps),
        }

    comparable_accuracy = [p for p in points if p.event_f1 >= 0.95 * ff.event_f1]
    reference = comparable_accuracy[0] if comparable_accuracy else points[-1]
    bandwidth_reduction = reference.average_bandwidth / ff.average_bandwidth

    at_similar_bandwidth = min(
        points, key=lambda p: abs(np.log(max(p.average_bandwidth, 1e-9) / max(ff.average_bandwidth, 1e-9)))
    )
    f1_improvement = (
        ff.event_f1 / at_similar_bandwidth.event_f1 if at_similar_bandwidth.event_f1 > 0 else float("inf")
    )
    return {
        "bandwidth_reduction": float(bandwidth_reduction),
        "f1_improvement": float(f1_improvement),
        "filterforward_f1": float(ff.event_f1),
        "filterforward_mbps_paper_equivalent": float(ff.paper_equivalent_mbps),
    }
