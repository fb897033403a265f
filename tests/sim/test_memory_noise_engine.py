"""Tests for the memory model, noise models and simulation primitives."""

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.sim.engine import SerialResource, WorkerPool
from repro.sim.memory import MemoryConfig, MemorySystem
from repro.sim.noise import HeavyTailNoise, TightNoise
from repro.sim.rng import SimRng


class TestMemorySystem:
    def test_cache_hit_has_no_dram_penalty(self):
        memory = MemorySystem()
        assert memory.read_penalty_ns(cache_hit=True) == 0.0

    def test_cache_miss_costs_dram_access(self):
        memory = MemorySystem(MemoryConfig(dram_access_ns=70.0))
        assert memory.read_penalty_ns(cache_hit=False) == 70.0

    def test_writeback_penalty(self):
        memory = MemorySystem(MemoryConfig(writeback_ns=70.0))
        assert memory.write_allocation_penalty_ns(writeback_required=True) == 70.0
        assert memory.write_allocation_penalty_ns(writeback_required=False) == 0.0

    def test_bandwidth_cap_in_bytes_per_ns(self):
        memory = MemorySystem(MemoryConfig(channel_bandwidth_gbps=400.0))
        assert memory.bytes_per_ns() == pytest.approx(50.0)

    def test_negative_config_rejected(self):
        with pytest.raises(ValidationError):
            MemoryConfig(dram_access_ns=-1)


def _tight_reference(noise: TightNoise, generator, count: int) -> np.ndarray:
    """The array form of the tight-noise formula (the reference)."""
    jitter = np.abs(generator.normal(0.0, noise.sigma_ns, size=count))
    outliers = generator.random(count) < noise.tail_probability
    return jitter + outliers * noise.tail_extra_ns


def _heavy_tail_reference(noise: HeavyTailNoise, generator, count: int) -> np.ndarray:
    """The array form of the heavy-tail formula (the reference)."""
    jitter = generator.exponential(noise.exponential_scale_ns, size=count)
    stalls = generator.random(count) < noise.stall_probability
    if stalls.any():
        log_low = np.log(noise.stall_min_ns)
        log_high = np.log(noise.stall_max_ns)
        stall_values = np.exp(
            generator.uniform(log_low, log_high, size=int(stalls.sum()))
        )
        jitter = jitter.copy()
        jitter[stalls] += stall_values
    return jitter


def _draws(noise, generator, count: int) -> np.ndarray:
    return np.array([noise.sample(generator) for _ in range(count)])


#: Draws per bit-identity check: enough for every branch at the default
#: tail/stall probabilities (5e-4 and 6e-4: ~50 outliers, ~60 stalls).
IDENTITY_DRAWS = 100_000


class TestOneDrawNoiseMatchesArrayFormula:
    """``sample(generator)`` reproduces the array formula value for value.

    The root complex draws one jitter value per DMA.  Repeated one-draw
    calls on one stream must equal repeated one-element array draws on an
    identically seeded stream, so switching to scalar draws reorders no
    RNG stream and changes no seeded result.  Tail/stall probabilities of
    0.5 and 1.0 make every branch run many times.
    """

    @pytest.mark.parametrize("probability", [None, 0.5, 1.0])
    def test_tight_noise(self, probability):
        noise = (
            TightNoise()
            if probability is None
            else TightNoise(tail_probability=probability)
        )
        reference_stream = SimRng(11).spawn("noise")
        stream = SimRng(11).spawn("noise")
        expected = np.concatenate(
            [
                _tight_reference(noise, reference_stream, 1)
                for _ in range(IDENTITY_DRAWS)
            ]
        )
        actual = _draws(noise, stream, IDENTITY_DRAWS)
        assert actual.tolist() == expected.tolist()
        outliers = int((actual >= noise.tail_extra_ns).sum())
        assert outliers > 0
        # Both streams are at the same position afterwards.
        assert stream.random() == reference_stream.random()

    @pytest.mark.parametrize("probability", [None, 0.5, 1.0])
    def test_heavy_tail_noise(self, probability):
        noise = (
            HeavyTailNoise()
            if probability is None
            else HeavyTailNoise(stall_probability=probability)
        )
        reference_stream = SimRng(11).spawn("noise")
        stream = SimRng(11).spawn("noise")
        expected = np.concatenate(
            [
                _heavy_tail_reference(noise, reference_stream, 1)
                for _ in range(IDENTITY_DRAWS)
            ]
        )
        actual = _draws(noise, stream, IDENTITY_DRAWS)
        assert actual.tolist() == expected.tolist()
        assert int((actual >= noise.stall_min_ns).sum()) > 0
        assert stream.random() == reference_stream.random()

    def test_sample_returns_a_python_float(self):
        stream = SimRng(3).spawn("noise")
        assert type(TightNoise().sample(stream)) is float
        assert type(HeavyTailNoise().sample(stream)) is float
        assert type(HeavyTailNoise(stall_probability=1.0).sample(stream)) is float


class TestNoiseModels:
    def test_tight_noise_is_narrow(self):
        rng = SimRng(1).spawn("test")
        samples = _draws(TightNoise(sigma_ns=8.0), rng, 50_000)
        assert np.percentile(samples, 99) < 50.0
        assert (samples >= 0).all()

    def test_heavy_tail_noise_has_long_tail(self):
        rng = SimRng(1).spawn("test")
        samples = _draws(HeavyTailNoise(), rng, 100_000)
        assert np.median(samples) > 300.0
        assert np.percentile(samples, 99) > 3 * np.median(samples)
        assert samples.max() > 10_000.0

    def test_heavy_tail_stalls_are_rare(self):
        rng = SimRng(2).spawn("test")
        samples = _draws(HeavyTailNoise(stall_probability=1e-3), rng, 100_000)
        assert (samples > 20_000.0).mean() < 5e-3

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValidationError):
            TightNoise(tail_probability=2.0)
        with pytest.raises(ValidationError):
            HeavyTailNoise(stall_probability=-0.1)

    def test_invalid_stall_bounds(self):
        with pytest.raises(ValidationError):
            HeavyTailNoise(stall_min_ns=100.0, stall_max_ns=10.0)


class TestSerialResource:
    def test_back_to_back_requests_queue(self):
        link = SerialResource("link")
        start1 = link.occupy(0.0, 10.0)
        start2 = link.occupy(0.0, 10.0)
        assert start1 == 0.0
        assert start2 == 10.0
        assert link.free_at == 20.0

    def test_idle_gap_is_not_compressed(self):
        link = SerialResource("link")
        link.occupy(0.0, 10.0)
        start = link.occupy(50.0, 5.0)
        assert start == 50.0

    def test_utilisation(self):
        link = SerialResource("link")
        link.occupy(0.0, 25.0)
        assert link.utilisation(100.0) == pytest.approx(0.25)

    def test_reset(self):
        link = SerialResource("link")
        link.occupy(0.0, 10.0)
        link.reset()
        assert link.free_at == 0.0
        assert link.served == 0

    def test_invalid_arguments(self):
        link = SerialResource("link")
        with pytest.raises(ValidationError):
            link.occupy(-1.0, 5.0)
        with pytest.raises(ValidationError):
            link.occupy(0.0, -5.0)
        with pytest.raises(ValidationError):
            link.utilisation(0.0)


class TestWorkerPool:
    def test_slots_available_immediately(self):
        pool = WorkerPool(2)
        assert pool.acquire(5.0) == 5.0

    def test_full_pool_waits_for_earliest_completion(self):
        pool = WorkerPool(2)
        pool.commit(10.0)
        pool.commit(20.0)
        assert pool.acquire(0.0) == 10.0

    def test_commit_replaces_earliest_slot_when_full(self):
        pool = WorkerPool(1)
        pool.commit(10.0)
        assert pool.acquire(0.0) == 10.0
        pool.commit(30.0)
        assert pool.acquire(0.0) == 30.0

    def test_in_flight_count(self):
        pool = WorkerPool(4)
        pool.commit(1.0)
        pool.commit(2.0)
        assert pool.in_flight == 2

    def test_reset(self):
        pool = WorkerPool(4)
        pool.commit(1.0)
        pool.reset()
        assert pool.in_flight == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)
        pool = WorkerPool(1)
        with pytest.raises(ValidationError):
            pool.acquire(-1.0)
        with pytest.raises(ValidationError):
            pool.commit(-1.0)
