"""Tests for the IOMMU / IOTLB model."""

import pytest

from repro.errors import ValidationError
from repro.sim.iommu import Iommu, IommuConfig, Iotlb
from repro.units import KIB, MIB


class TestIotlb:
    def test_insert_then_lookup_hits(self):
        tlb = Iotlb(4)
        tlb.insert(10)
        assert tlb.lookup(10) is True

    def test_lookup_miss(self):
        assert Iotlb(4).lookup(1) is False

    def test_lru_eviction_order(self):
        tlb = Iotlb(2)
        tlb.insert(1)
        tlb.insert(2)
        tlb.lookup(1)  # make 2 the LRU entry
        evicted = tlb.insert(3)
        assert evicted == 2
        assert 1 in tlb and 3 in tlb and 2 not in tlb

    def test_reinsert_does_not_evict(self):
        tlb = Iotlb(2)
        tlb.insert(1)
        tlb.insert(2)
        assert tlb.insert(1) is None
        assert len(tlb) == 2

    def test_invalidate_all(self):
        tlb = Iotlb(4)
        tlb.insert(1)
        tlb.invalidate_all()
        assert len(tlb) == 0

    def test_zero_entries_rejected(self):
        with pytest.raises(ValidationError):
            Iotlb(0)


class TestIommuConfig:
    def test_reach_is_entries_times_page_size(self):
        config = IommuConfig(enabled=True, iotlb_entries=64, page_size=4 * KIB)
        assert config.reach_bytes == 256 * KIB

    def test_superpage_reach(self):
        config = IommuConfig(enabled=True, iotlb_entries=64, page_size=2 * MIB)
        assert config.reach_bytes == 128 * MIB

    def test_invalid_page_size(self):
        with pytest.raises(ValidationError):
            IommuConfig(page_size=8 * KIB)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValidationError):
            IommuConfig(walk_latency_ns=-1)


class TestIommuTranslate:
    def test_disabled_iommu_is_free(self):
        iommu = Iommu(IommuConfig(enabled=False))
        result = iommu.translate(123456)
        assert result.hit is True
        assert result.latency_ns == 0.0
        assert iommu.stats.translations == 0

    def test_first_access_misses_then_hits(self):
        iommu = Iommu(IommuConfig(enabled=True))
        first = iommu.translate(0)
        second = iommu.translate(8)  # same 4 KiB page
        assert first.hit is False
        assert first.latency_ns == pytest.approx(330.0)
        assert second.hit is True
        assert second.latency_ns == 0.0

    def test_miss_reports_walker_occupancy(self):
        iommu = Iommu(IommuConfig(enabled=True))
        assert iommu.translate(0).walker_occupancy_ns > 0
        assert iommu.translate(64).walker_occupancy_ns == 0.0

    def test_capacity_eviction_produces_misses(self):
        iommu = Iommu(IommuConfig(enabled=True, iotlb_entries=4))
        for page in range(8):
            iommu.translate(page * 4 * KIB)
        # Re-touching the first page misses again: it was evicted.
        assert iommu.translate(0).hit is False

    def test_stats_rates(self):
        iommu = Iommu(IommuConfig(enabled=True))
        iommu.translate(0)
        iommu.translate(0)
        assert iommu.stats.translations == 2
        assert iommu.stats.hit_rate == pytest.approx(0.5)
        assert iommu.stats.miss_rate == pytest.approx(0.5)

    def test_warm_preloads_translations(self):
        iommu = Iommu(IommuConfig(enabled=True))
        iommu.warm(4 * KIB, 2)
        assert iommu.translate(8 * KIB).hit is True
        assert iommu.translate(0).hit is False

    def test_invalidate_clears_and_counts(self):
        iommu = Iommu(IommuConfig(enabled=True))
        iommu.translate(0)
        iommu.invalidate()
        assert iommu.translate(0).hit is False
        assert iommu.stats.invalidations == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValidationError):
            Iommu(IommuConfig(enabled=True)).translate(-1)


class TestExpectedMissRate:
    def test_window_within_reach_has_no_misses(self):
        iommu = Iommu(IommuConfig(enabled=True, iotlb_entries=64))
        assert iommu.expected_miss_rate(64) == 0.0
        assert iommu.expected_miss_rate(32) == 0.0

    def test_miss_rate_grows_with_window(self):
        iommu = Iommu(IommuConfig(enabled=True, iotlb_entries=64))
        assert iommu.expected_miss_rate(128) == pytest.approx(0.5)
        assert iommu.expected_miss_rate(640) == pytest.approx(0.9)

    def test_disabled_iommu_has_zero_miss_rate(self):
        iommu = Iommu(IommuConfig(enabled=False))
        assert iommu.expected_miss_rate(10_000) == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValidationError):
            Iommu().expected_miss_rate(0)
