"""Tests for bandwidth accounting helpers."""

import pytest

from repro.metrics.bandwidth import bandwidth_reduction, bits_to_mbps


class TestConversions:
    def test_bits_to_mbps(self):
        assert bits_to_mbps(2_000_000) == pytest.approx(2.0)

    def test_bandwidth_reduction(self):
        assert bandwidth_reduction(10_000_000, 1_000_000) == pytest.approx(10.0)

    def test_reduction_is_unit_free(self):
        """A 2.6 Mb/s full stream against a 0.2 Mb/s filtered upload is 13x, in b/s or Mb/s."""
        in_bps = bandwidth_reduction(2_600_000, 200_000)
        assert in_bps == pytest.approx(13.0)
        assert bandwidth_reduction(bits_to_mbps(2_600_000), bits_to_mbps(200_000)) == pytest.approx(
            in_bps
        )

    def test_zero_filtered_bandwidth_is_infinite_reduction(self):
        assert bandwidth_reduction(1_000_000, 0.0) == float("inf")

    @pytest.mark.parametrize(
        "baseline, filtered",
        [(-1.0, 1.0), (float("nan"), 1e6), (1e6, float("nan"))],
    )
    def test_negative_bandwidth_rejected(self, baseline, filtered):
        with pytest.raises(ValueError):
            bandwidth_reduction(baseline, filtered)
