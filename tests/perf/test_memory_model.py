"""Tests for the edge-node memory model."""

import pytest

from repro.perf.memory_model import MemoryEstimate, MemoryModel

GIB = 1024**3


@pytest.fixture(scope="module")
def model():
    return MemoryModel()


class TestMemoryModel:
    def test_mobilenets_fit_up_to_about_thirty(self, model):
        assert model.mobilenets_fit(30)
        assert not model.mobilenets_fit(31)

    def test_filterforward_scales_to_many_classifiers(self, model):
        assert model.filterforward_memory(50).fits
        assert model.filterforward_memory(200).fits

    def test_filterforward_memory_grows_slowly(self, model):
        one = model.filterforward_memory(1)
        fifty = model.filterforward_memory(50)
        assert fifty.bytes_used < 3 * one.bytes_used

    def test_estimates_carry_strategy_labels(self, model):
        assert model.mobilenets_memory(2).strategy == "multiple_mobilenets"
        assert model.filterforward_memory(2).strategy == "filterforward"

    def test_invalid_count(self, model):
        with pytest.raises(ValueError):
            model.mobilenets_memory(0)

    def test_filterforward_uses_less_memory_than_mobilenets_for_many_apps(self, model):
        assert (
            model.filterforward_memory(30).bytes_used < model.mobilenets_memory(30).bytes_used
        )


class TestMobileNetConstant:
    """The paper's node and per-MobileNet memory constants, as Figure 5 reads them."""

    def test_mobilenet_footprint_scales_linearly(self, model):
        one = model.mobilenets_memory(1)
        ten = model.mobilenets_memory(10)
        assert ten.bytes_used == pytest.approx(10 * one.bytes_used)
        assert ten.bytes_available == one.bytes_available == 32 * GIB

    def test_gigabytes_used_per_mobilenet(self, model):
        assert model.mobilenets_memory(4).gigabytes_used == pytest.approx(4 * 1.05)

    @pytest.mark.parametrize("method", ["mobilenets_memory", "filterforward_memory"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_count_rejected(self, model, method, count):
        with pytest.raises(ValueError, match="num_classifiers"):
            getattr(model, method)(count)

    def test_exact_capacity_fits(self):
        assert MemoryEstimate("multiple_mobilenets", 4, 4 * GIB, 4 * GIB).fits
        assert not MemoryEstimate("multiple_mobilenets", 5, 5 * GIB, 4 * GIB).fits

    def test_filterforward_footprint_is_one_base_dnn_plus_mcs(self, model):
        estimate = model.filterforward_memory(7)
        assert estimate.bytes_used == pytest.approx(1.05 * GIB + 7 * 40 * 1024**2)
