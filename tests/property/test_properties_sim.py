"""Property-based tests (hypothesis) for the simulated substrate."""

from hypothesis import given, settings, strategies as st

from repro.bench.stats import LatencyStats
from repro.sim.cache import CacheState, SetAssociativeCache, StatisticalCache
from repro.sim.engine import SerialResource, WorkerPool
from repro.sim.hostbuffer import HostBuffer
from repro.sim.iommu import Iommu, IommuConfig
from repro.sim.rng import SimRng
from repro.units import CACHELINE_BYTES, KIB


class TestHostBufferProperties:
    @given(
        window_kib=st.integers(min_value=4, max_value=1024),
        transfer=st.integers(min_value=1, max_value=2048),
        offset=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=200)
    def test_units_never_overlap_and_fit_window(self, window_kib, transfer, offset):
        window = window_kib * KIB
        if offset + transfer > window:
            return
        buffer = HostBuffer(window_size=window, transfer_size=transfer, offset=offset)
        # Unit size is a cache-line multiple covering offset + transfer.
        assert buffer.unit_size % CACHELINE_BYTES == 0
        assert buffer.unit_size >= offset + transfer
        # Every access stays inside the window.
        last_start = buffer.unit_address(buffer.unit_count - 1)
        assert last_start + transfer <= window
        # Every DMA touches the same number of cache lines (Figure 3).
        spans = {
            (buffer.unit_address(i) + transfer - 1) // CACHELINE_BYTES
            - buffer.unit_address(i) // CACHELINE_BYTES
            for i in range(min(buffer.unit_count, 16))
        }
        assert len(spans) == 1

    @given(
        window_kib=st.integers(min_value=4, max_value=256),
        transfer=st.sampled_from([8, 64, 128, 256, 512]),
        count=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100)
    def test_access_addresses_always_valid_units(self, window_kib, transfer, count, seed):
        buffer = HostBuffer(window_size=window_kib * KIB, transfer_size=transfer)
        addresses = buffer.access_addresses(count, "random", SimRng(seed))
        assert ((addresses % buffer.unit_size) == 0).all()
        assert (addresses >= 0).all()
        assert (addresses + transfer <= window_kib * KIB).all()


class TestCacheProperties:
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=300)
    )
    @settings(max_examples=100)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = SetAssociativeCache(64 * KIB, ways=4)
        capacity = cache.sets * cache.ways
        for line in lines:
            cache.write(line)
            cache.host_touch(line + 1)
        assert cache.occupancy() <= capacity

    @given(
        lines=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=300)
    )
    @settings(max_examples=100)
    def test_read_after_write_always_hits(self, lines):
        cache = SetAssociativeCache(256 * KIB, ways=8)
        for line in lines:
            cache.write(line)
            assert cache.read(line).hit

    @given(
        window_lines=st.integers(min_value=1, max_value=10_000_000),
        state=st.sampled_from(list(CacheState)),
    )
    @settings(max_examples=200)
    def test_statistical_resident_fraction_is_a_probability(self, window_lines, state):
        cache = StatisticalCache(rng=SimRng(1))
        cache.prepare(state, window_lines)
        assert 0.0 <= cache.resident_fraction <= 1.0


class TestIommuProperties:
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=500),
        entries=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100)
    def test_iotlb_never_exceeds_capacity_and_recent_pages_hit(self, pages, entries):
        iommu = Iommu(IommuConfig(enabled=True, iotlb_entries=entries))
        for page in pages:
            iommu.translate(page * 4096)
            assert len(iommu.iotlb) <= entries
        # The most recently touched page is always resident.
        assert iommu.translate(pages[-1] * 4096).hit

class TestEngineProperties:
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=100
        )
    )
    @settings(max_examples=100)
    def test_serial_resource_busy_time_equals_sum_of_durations(self, durations):
        resource = SerialResource("r")
        for duration in durations:
            resource.occupy(0.0, duration)
        assert resource.busy_time == sum(durations)
        assert resource.served == len(durations)

    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=100
        ),
        slots=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100)
    def test_worker_pool_in_flight_bounded_by_slots(self, durations, slots):
        # Alternating acquire/commit pairs, with each release derived from
        # the quoted start (the contract real callers follow: a slot's
        # release is its acquired start plus a non-negative service time).
        pool = WorkerPool(slots)
        for duration in durations:
            start = pool.acquire(0.0)
            pool.commit(start + duration)
            assert pool.in_flight <= slots


class TestStatsProperties:
    @given(
        samples=st.lists(
            st.floats(min_value=0.1, max_value=1e7, allow_nan=False),
            min_size=1,
            max_size=500,
        )
    )
    @settings(max_examples=200)
    def test_latency_stats_are_internally_consistent(self, samples):
        stats = LatencyStats.from_samples(samples)
        tolerance = 1e-6 * max(abs(stats.maximum), 1.0)
        assert stats.minimum <= stats.median <= stats.maximum
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
        assert stats.median <= stats.p90 + tolerance
        assert stats.p90 <= stats.p95 + tolerance
        assert stats.p95 <= stats.p99 + tolerance
        assert stats.p99 <= stats.p999 + tolerance
        assert stats.count == len(samples)
