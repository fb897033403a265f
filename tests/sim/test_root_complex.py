"""Tests for the root complex model (cache, IOMMU, NUMA composition)."""

import pytest

from repro.errors import ValidationError
from repro.sim.cache import CacheState, SetAssociativeCache
from repro.sim.iommu import Iommu, IommuConfig
from repro.sim.noise import TightNoise
from repro.sim.numa import NumaTopology
from repro.sim.rng import SimRng
from repro.sim.root_complex import HostAccess, RootComplex, RootComplexConfig
from repro.units import KIB


def make_root_complex(**kwargs) -> RootComplex:
    """A root complex with zero noise so latencies are deterministic."""
    defaults = dict(
        config=RootComplexConfig(base_read_ns=400.0),
        cache=SetAssociativeCache(64 * KIB, ways=8, ddio_fraction=0.25),
        noise=TightNoise(sigma_ns=0.0, tail_probability=0.0),
        rng=SimRng(1),
    )
    defaults.update(kwargs)
    return RootComplex(**defaults)


class TestHostAccessRecord:
    def test_positional_field_order_and_defaults(self):
        # RootComplex.read/write build the record positionally, so the
        # field order is part of its contract.
        access = HostAccess(1.0, 2.0, 3.0, True, False, True, True)
        assert (
            access.latency_ns,
            access.walker_occupancy_ns,
            access.ingress_occupancy_ns,
            access.cache_hit,
            access.iotlb_hit,
            access.writeback,
            access.remote,
        ) == (1.0, 2.0, 3.0, True, False, True, True)
        default = HostAccess(5.0)
        assert (
            default.walker_occupancy_ns,
            default.ingress_occupancy_ns,
            default.cache_hit,
            default.iotlb_hit,
            default.writeback,
            default.remote,
        ) == (0.0, 0.0, False, True, False, False)
        assert HostAccess(latency_ns=5.0, remote=True) == HostAccess(
            5.0, remote=True
        )

    def test_is_immutable(self):
        access = make_root_complex().read(0, 64)
        with pytest.raises(AttributeError):
            access.latency_ns = 0.0
        with pytest.raises(AttributeError):
            access.cache_hit = True


class TestReads:
    def test_cold_read_pays_dram_penalty(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        access = rc.read(0, 64)
        assert not access.cache_hit
        assert access.latency_ns == pytest.approx(400.0 + 70.0)

    def test_warm_read_hits_llc(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        access = rc.read(0, 64)
        assert access.cache_hit
        assert access.latency_ns == pytest.approx(400.0)

    def test_warm_discount_is_the_dram_penalty(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        cold = rc.read(64, 64).latency_ns
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        warm = rc.read(64, 64).latency_ns
        assert cold - warm == pytest.approx(70.0)

    def test_invalid_access_rejected(self):
        rc = make_root_complex()
        with pytest.raises(ValidationError):
            rc.read(-1, 64)
        with pytest.raises(ValidationError):
            rc.read(0, 0)


class TestWritesAndWriteRead:
    def test_posted_write_commit_time(self):
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        access = rc.write(0, 64)
        assert access.latency_ns >= rc.config.write_commit_ns

    def test_write_read_faster_than_miss_read_plus_write(self):
        # The read after a write always finds the data in the cache.
        rc = make_root_complex()
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        wrrd = rc.write_read(0, 64)
        assert wrrd.latency_ns < 400.0 + 70.0 + 400.0

    def test_write_read_ddio_overflow_costs_writeback(self):
        rc = make_root_complex()
        # Window much larger than the DDIO slice of the small test cache.
        rc.prepare_cache(CacheState.COLD, window_lines=2048)
        baseline = make_root_complex()
        baseline.prepare_cache(CacheState.COLD, window_lines=16)
        small = baseline.write_read(0, 64).latency_ns
        # Fill the DDIO ways of set 0 first so the next allocation evicts.
        step = rc.cache.sets * 64
        for index in range(4):
            rc.write(index * step, 64)
        large = rc.write_read(4 * step, 64).latency_ns
        assert large - small == pytest.approx(70.0)


class TestIommuIntegration:
    def test_iotlb_miss_adds_walk_latency(self):
        iommu = Iommu(IommuConfig(enabled=True, walk_latency_ns=330.0))
        rc = make_root_complex(iommu=iommu)
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        miss = rc.read(0, 64)
        hit = rc.read(0, 64)
        assert miss.latency_ns - hit.latency_ns == pytest.approx(330.0)
        assert not miss.iotlb_hit and hit.iotlb_hit

    def test_walker_occupancy_reported_only_on_miss(self):
        iommu = Iommu(IommuConfig(enabled=True))
        rc = make_root_complex(iommu=iommu)
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        assert rc.read(0, 64).walker_occupancy_ns > 0
        assert rc.read(0, 64).walker_occupancy_ns == 0.0


class TestNumaIntegration:
    def test_remote_buffer_adds_constant_latency(self):
        rc = make_root_complex(numa=NumaTopology.dual_socket(remote_penalty_ns=100.0))
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        local = rc.read(0, 64, buffer_node=0)
        remote = rc.read(64, 64, buffer_node=1)
        assert remote.latency_ns - local.latency_ns == pytest.approx(100.0)
        assert remote.remote and not local.remote

    def test_unknown_node_rejected(self):
        rc = make_root_complex(numa=NumaTopology.dual_socket())
        with pytest.raises(ValidationError):
            rc.read(0, 64, buffer_node=7)


class TestIngressOccupancy:
    def test_ingress_occupancy_scales_with_tlp_count(self):
        rc = make_root_complex(
            config=RootComplexConfig(base_read_ns=400.0, per_tlp_ingress_ns=10.0)
        )
        rc.prepare_cache(CacheState.HOST_WARM, window_lines=64)
        small = rc.read(0, 64).ingress_occupancy_ns
        large = rc.read(0, 1024).ingress_occupancy_ns
        assert small == pytest.approx(10.0)
        assert large == pytest.approx(40.0)

    def test_multi_line_reads_touch_following_lines(self):
        cache = SetAssociativeCache(64 * KIB, ways=8)
        rc = make_root_complex(cache=cache)
        rc.prepare_cache(CacheState.COLD, window_lines=64)
        rc.write(0, 256)  # allocates four lines via DDIO
        assert cache.resident(0) and cache.resident(3)
