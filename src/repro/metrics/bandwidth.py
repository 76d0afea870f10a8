"""Bandwidth accounting helpers."""

from __future__ import annotations

__all__ = ["bits_to_mbps", "bandwidth_reduction"]


def bits_to_mbps(bits_per_second: float) -> float:
    """Convert bits/second to megabits/second (paper figures use Mb/s)."""
    return bits_per_second / 1e6


def bandwidth_reduction(baseline_bps: float, filtered_bps: float) -> float:
    """How many times less bandwidth the filtered upload uses than the baseline."""
    # Written so that a NaN fails the guard too.
    if not (baseline_bps >= 0 and filtered_bps >= 0):
        raise ValueError("bandwidths must be non-negative numbers")
    if filtered_bps == 0:
        return float("inf")
    return baseline_bps / filtered_bps
