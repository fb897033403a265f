"""Tests for the analytical latency decomposition."""

import pytest

from repro.core.config import PAPER_DEFAULT_CONFIG
from repro.core.latency import LatencyComponents, LatencyModel
from repro.errors import ValidationError

MODEL = LatencyModel()


class TestLatencyComponents:
    def test_total_is_sum_of_parts(self):
        components = LatencyComponents(10, 20, 300, 40, 5)
        assert components.total_ns == 375

    def test_pcie_fraction_excludes_device_overheads(self):
        components = LatencyComponents(50, 10, 300, 40, 50)
        assert components.pcie_fraction == pytest.approx(350 / 450)

    def test_pcie_fraction_zero_for_empty(self):
        assert LatencyComponents().pcie_fraction == 0.0

    def test_as_dict_roundtrip_total(self):
        components = LatencyComponents(1, 2, 3, 4, 5)
        assert components.as_dict()["total_ns"] == components.total_ns


class TestReadLatency:
    def test_64b_read_in_expected_range(self):
        # The paper measures ~500-550 ns medians on Haswell E5 systems.
        assert 400 <= MODEL.read_latency_ns(64) <= 650

    def test_cache_hit_saves_the_discount(self):
        miss = MODEL.read_latency_ns(64)
        hit = MODEL.read_latency_ns(64, cache_hit=True)
        assert miss - hit == pytest.approx(MODEL.cache_hit_discount_ns)

    def test_latency_grows_with_size(self):
        values = [MODEL.read_latency_ns(size) for size in (64, 256, 1024, 2048)]
        assert values == sorted(values)

    def test_serialisation_component_grows_with_size(self):
        small = MODEL.read_components(64)
        large = MODEL.read_components(2048)
        assert large.completion_serialisation_ns > small.completion_serialisation_ns

    def test_host_dominates_small_read_latency(self):
        components = MODEL.read_components(64)
        assert components.host_processing_ns > 0.5 * components.total_ns

    def test_invalid_size_rejected(self):
        with pytest.raises(ValidationError):
            MODEL.read_latency_ns(0)


class TestWriteReadLatency:
    def test_wrrd_exceeds_rd(self):
        for size in (8, 64, 512, 2048):
            assert MODEL.write_read_latency_ns(size) > MODEL.read_latency_ns(size)

    def test_wrrd_includes_write_serialisation(self):
        small_gap = MODEL.write_read_latency_ns(64) - MODEL.read_latency_ns(64)
        large_gap = MODEL.write_read_latency_ns(2048) - MODEL.read_latency_ns(2048)
        assert large_gap > small_gap


class TestDerivedQuantities:
    def test_inflight_dmas_for_line_rate(self):
        # ~500 ns latency at ~30 ns per packet -> roughly 17-20 in flight.
        inflight = MODEL.inflight_dmas_for_line_rate(128, 29.6)
        assert 10 <= inflight <= 30

    def test_inflight_rejects_bad_budget(self):
        with pytest.raises(ValidationError):
            MODEL.inflight_dmas_for_line_rate(128, 0.0)

    def test_with_replaces_parameters(self):
        slower = MODEL.with_(host_read_ns=800.0)
        assert slower.read_latency_ns(64) > MODEL.read_latency_ns(64)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValidationError):
            LatencyModel(host_read_ns=-1.0)

    def test_config_serialisation_uses_link(self):
        model = LatencyModel(config=PAPER_DEFAULT_CONFIG)
        components = model.read_components(1024)
        expected = PAPER_DEFAULT_CONFIG.link.serialisation_time_ns(
            PAPER_DEFAULT_CONFIG.mps and (4 * 20 + 1024)
        )
        assert components.completion_serialisation_ns == pytest.approx(expected)
