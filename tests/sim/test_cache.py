"""Tests for the LLC / DDIO cache models (faithful and statistical)."""

import pytest

from repro.errors import ValidationError
from repro.sim.cache import (
    CacheState,
    SetAssociativeCache,
    StatisticalCache,
)
from repro.sim.rng import SimRng
from repro.units import KIB, MIB


class TestCacheState:
    def test_from_string(self):
        assert CacheState.from_value("cold") is CacheState.COLD
        assert CacheState.from_value("warm") is CacheState.HOST_WARM
        assert CacheState.from_value("device_warm") is CacheState.DEVICE_WARM

    def test_invalid(self):
        with pytest.raises(ValidationError):
            CacheState.from_value("lukewarm")


class TestSetAssociativeCache:
    def make(self, **kwargs):
        defaults = dict(llc_bytes=64 * KIB, ways=8, ddio_fraction=0.25)
        defaults.update(kwargs)
        return SetAssociativeCache(**defaults)

    def test_read_miss_then_no_allocation(self):
        cache = self.make()
        assert cache.read(0).hit is False
        # Device reads do not allocate.
        assert cache.read(0).hit is False

    def test_host_touch_makes_reads_hit(self):
        cache = self.make()
        cache.host_touch(7)
        assert cache.read(7).hit is True

    def test_write_allocates_via_ddio(self):
        cache = self.make()
        result = cache.write(11)
        assert result.hit is False and result.allocated is True
        assert cache.read(11).hit is True

    def test_ddio_slice_is_fraction_of_llc(self):
        cache = self.make()
        assert cache.ddio_bytes == pytest.approx(cache.llc_bytes * 0.25, rel=0.01)

    def test_write_beyond_ddio_ways_evicts_and_writes_back(self):
        cache = self.make(ways=4, ddio_fraction=0.25)  # 1 DDIO way per set
        first = 0
        second = cache.sets  # same set, different line
        cache.write(first)
        result = cache.write(second)
        assert result.writeback_required is True
        assert cache.read(first).hit is False
        assert cache.read(second).hit is True

    def test_lru_eviction_within_set(self):
        cache = self.make(ways=2)
        lines = [0, cache.sets, 2 * cache.sets]  # all map to set 0
        cache.host_touch(lines[0])
        cache.host_touch(lines[1])
        cache.host_touch(lines[2])  # evicts lines[0]
        assert cache.read(lines[0]).hit is False
        assert cache.read(lines[1]).hit is True
        assert cache.read(lines[2]).hit is True

    def test_write_hit_updates_in_place_and_takes_no_ddio_way(self):
        cache = self.make(ways=4, ddio_fraction=0.25)  # 1 DDIO way per set
        host_line, device_line = 0, cache.sets  # same set
        cache.host_touch(host_line, dirty=False)
        result = cache.write(host_line)
        assert result.hit is True
        assert result.allocated is False
        assert result.writeback_required is False
        assert cache.occupancy() == 1
        # The hit left the set's DDIO way free: the next write miss
        # allocates into it without evicting anything.
        result = cache.write(device_line)
        assert result.allocated is True
        assert result.writeback_required is False
        assert cache.read(host_line).hit is True
        assert cache.read(device_line).hit is True

    def test_overflow_eviction_frees_the_evicted_lines_ddio_way(self):
        # One set of four ways, two of them DDIO ways.
        cache = SetAssociativeCache(64 * 4, ways=4, ddio_fraction=0.5)
        assert (cache.sets, cache.ddio_ways) == (1, 2)
        cache.write(0)
        for line in (1, 2, 3, 4):
            cache.host_touch(line, dirty=False)
        # The fifth line overflowed the set: LRU line 0 went, DDIO or not.
        assert not cache.resident(0)
        # Line 0's DDIO way went with it, so two writes allocate without a
        # DDIO eviction, each overflowing the set's LRU host line instead.
        for line in (5, 6):
            assert cache.write(line).writeback_required is False
        assert [cache.resident(line) for line in range(7)] == [
            False, False, False, True, True, True, True,
        ]
        # Now both DDIO ways are taken: the next write evicts the oldest
        # DDIO line and writes it back.
        assert cache.write(7).writeback_required is True
        assert [cache.resident(line) for line in (3, 4, 5, 6, 7)] == [
            True, True, False, True, True,
        ]

    def test_thrash_empties_cache(self):
        cache = self.make()
        cache.host_touch(1)
        cache.thrash()
        assert cache.occupancy() == 0
        assert cache.read(1).hit is False

    def test_prepare_host_warm(self):
        cache = self.make()
        cache.prepare(CacheState.HOST_WARM, window_lines=100)
        hits = sum(cache.read(line).hit for line in range(100))
        assert hits == 100

    def test_prepare_cold(self):
        cache = self.make()
        cache.prepare(CacheState.COLD, window_lines=100)
        assert not cache.read(5).hit

    def test_prepare_device_warm_limited_to_ddio(self):
        cache = self.make(ways=8, ddio_fraction=0.25)
        window = cache.sets * 8  # as many lines as the whole cache
        cache.prepare(CacheState.DEVICE_WARM, window_lines=window)
        hits = sum(cache.read(line).hit for line in range(window))
        # Only roughly the DDIO share of the window can be resident.
        assert hits <= window * 0.3

    def test_invalid_construction(self):
        with pytest.raises(ValidationError):
            SetAssociativeCache(0)
        with pytest.raises(ValidationError):
            SetAssociativeCache(64 * KIB, ways=0)
        with pytest.raises(ValidationError):
            SetAssociativeCache(64 * KIB, ddio_fraction=0.0)


class TestStatisticalCache:
    def make(self, **kwargs):
        defaults = dict(llc_bytes=15 * MIB, ddio_fraction=0.1, rng=SimRng(1))
        defaults.update(kwargs)
        return StatisticalCache(**defaults)

    def test_host_warm_small_window_always_hits(self):
        cache = self.make()
        cache.prepare(CacheState.HOST_WARM, window_lines=128)
        assert all(cache.read(i).hit for i in range(200))

    def test_cold_never_hits_reads(self):
        cache = self.make()
        cache.prepare(CacheState.COLD, window_lines=128)
        assert not any(cache.read(i).hit for i in range(200))

    def test_host_warm_large_window_hits_proportionally(self):
        cache = self.make()
        llc_lines = cache.llc_lines
        cache.prepare(CacheState.HOST_WARM, window_lines=4 * llc_lines)
        hits = sum(cache.read(i).hit for i in range(4000))
        assert 0.15 <= hits / 4000 <= 0.35  # about 25% resident

    def test_device_warm_limited_to_ddio_slice(self):
        cache = self.make()
        window = cache.llc_lines  # fits LLC but far exceeds the DDIO slice
        cache.prepare(CacheState.DEVICE_WARM, window_lines=window)
        assert cache.resident_fraction == pytest.approx(
            cache.ddio_lines / window, rel=0.01
        )

    def test_writes_within_ddio_need_no_writeback(self):
        cache = self.make()
        cache.prepare(CacheState.COLD, window_lines=cache.ddio_lines // 2)
        results = [cache.write(i) for i in range(500)]
        assert not any(r.writeback_required for r in results)

    def test_writes_beyond_ddio_mostly_write_back(self):
        cache = self.make()
        cache.prepare(CacheState.COLD, window_lines=cache.ddio_lines * 50)
        results = [cache.write(i) for i in range(500)]
        writebacks = sum(r.writeback_required for r in results)
        assert writebacks > 400

    def test_prepare_requires_positive_window(self):
        with pytest.raises(ValidationError):
            self.make().prepare(CacheState.COLD, window_lines=0)

    def test_invalid_capacity_fraction(self):
        with pytest.raises(ValidationError):
            StatisticalCache(15 * MIB, effective_capacity_fraction=0.0)


class TestSetAssociativeDdioPartition:
    """Per-owner DDIO way budgets (the faithful half of way partitioning)."""

    def make(self, shares=(0.5, 0.5), region=1 << 10):
        cache = SetAssociativeCache(llc_bytes=64 * KIB, ways=8, ddio_fraction=0.5)
        cache.partition_ddio(shares, lambda line: min(len(shares) - 1, line // region))
        return cache, region

    def test_budgets_split_the_ddio_ways(self):
        cache, _ = self.make()
        assert sum(cache.ddio_way_split) <= cache.ddio_ways
        assert all(budget >= 1 for budget in cache.ddio_way_split)
        assert cache.ddio_way_split == (2, 2)

    def test_uneven_shares_trim_to_fit(self):
        cache, _ = self.make(shares=(0.7, 0.2, 0.1))
        assert sum(cache.ddio_way_split) <= cache.ddio_ways
        assert all(budget >= 1 for budget in cache.ddio_way_split)

    def test_one_owner_cannot_evict_anothers_ddio_lines(self):
        cache, region = self.make()
        # Owner 0 allocates its full budget in set 0.
        victims = [0, cache.sets]  # two same-set lines, owner 0
        for line in victims:
            cache.write(line)
        # Owner 1 blows through its own budget in the same set many
        # times over; every eviction must come from its own lines.
        base = region  # owner 1's region
        base -= base % cache.sets  # align to set 0
        for index in range(16):
            cache.write(base + index * cache.sets)
        for line in victims:
            assert cache.read(line).hit is True, "victim line was evicted"

    def test_unpartitioned_behaviour_is_unchanged(self):
        shared = SetAssociativeCache(llc_bytes=64 * KIB, ways=4, ddio_fraction=0.25)
        assert shared.ddio_way_split == (shared.ddio_ways,)
        shared.write(0)
        result = shared.write(shared.sets)  # same set, 1 DDIO way
        assert result.writeback_required is True

    def test_partition_validation(self):
        cache = SetAssociativeCache(llc_bytes=64 * KIB, ways=8, ddio_fraction=0.25)
        with pytest.raises(ValidationError):
            cache.partition_ddio((1.0,), lambda line: 0)  # one share
        with pytest.raises(ValidationError):
            cache.partition_ddio((1.0, 0.0), lambda line: 0)
        with pytest.raises(ValidationError):
            # ddio_ways == 2 here; three owners cannot each get a way.
            cache.partition_ddio((1.0, 1.0, 1.0), lambda line: 0)


class TestStatisticalCachePartition:
    """Per-owner capacity slices (the statistical half of partitioning)."""

    REGION = 1 << 20  # lines per owner region

    def make(self, shares=(0.5, 0.5)):
        cache = StatisticalCache(15 * MIB, ddio_fraction=0.1, rng=SimRng(1))
        cache.partition(
            shares, lambda line: min(len(shares) - 1, line // self.REGION)
        )
        return cache

    def test_partitions_have_independent_residency(self):
        cache = self.make()
        # Owner 0: small warm window -> every access hits.  Owner 1: a
        # window far beyond its slice -> most accesses miss.
        cache.prepare_partition(0, CacheState.HOST_WARM, 128)
        cache.prepare_partition(1, CacheState.HOST_WARM, 10 * cache.llc_lines)
        assert all(cache.read(i).hit for i in range(200))
        misses = sum(
            not cache.read(self.REGION + i).hit for i in range(1000)
        )
        assert misses > 900

    def test_partition_scales_writeback_pressure_to_the_slice(self):
        cache = self.make()
        cache.prepare_partition(0, CacheState.COLD, max(1, cache.ddio_lines // 4))
        cache.prepare_partition(1, CacheState.COLD, cache.ddio_lines)
        # Owner 0's window fits its half-slice: no write-backs.  Owner 1's
        # window is double its half-slice: about half its writes evict.
        assert not any(
            cache.write(i).writeback_required for i in range(300)
        )
        writebacks = sum(
            cache.write(self.REGION + i).writeback_required
            for i in range(1000)
        )
        assert 350 <= writebacks <= 650

    def test_plain_prepare_reverts_to_the_shared_window(self):
        cache = self.make()
        cache.prepare_partition(0, CacheState.HOST_WARM, 128)
        assert cache.partitions == 2
        cache.prepare(CacheState.COLD, window_lines=128)
        assert cache.partitions == 0
        assert not cache.read(0).hit  # shared cold window, owner ignored

    def test_partition_validation(self):
        cache = StatisticalCache(15 * MIB, rng=SimRng(1))
        with pytest.raises(ValidationError):
            cache.partition((1.0,), lambda line: 0)
        with pytest.raises(ValidationError):
            cache.partition((1.0, -1.0), lambda line: 0)
        with pytest.raises(ValidationError):
            cache.prepare_partition(0, CacheState.COLD, 128)  # unpartitioned
        cache.partition((1.0, 1.0), lambda line: 0)
        with pytest.raises(ValidationError):
            cache.prepare_partition(5, CacheState.COLD, 128)
        with pytest.raises(ValidationError):
            cache.prepare_partition(0, CacheState.COLD, 0)
