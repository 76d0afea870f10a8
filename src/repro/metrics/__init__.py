"""Evaluation metrics: event recall, precision, event F1, bandwidth, throughput."""

from repro.metrics.bandwidth import bandwidth_reduction, bits_to_mbps
from repro.metrics.event_metrics import (
    EventF1Breakdown,
    event_f1_score,
    event_recall,
    existence_score,
    frame_precision,
    overlap_score,
)
from repro.metrics.throughput import ThroughputMeasurement, measure_throughput

__all__ = [
    "EventF1Breakdown",
    "ThroughputMeasurement",
    "bandwidth_reduction",
    "bits_to_mbps",
    "event_f1_score",
    "event_recall",
    "existence_score",
    "frame_precision",
    "measure_throughput",
    "overlap_score",
]
