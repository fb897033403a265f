"""Block draws give exactly the values the scalar draws they replace give.

The host layer takes its payload-unit indices and its statistical-cache
uniforms from blocks (``repro.sim.rng.block_draws``) and its Gaussian
jitter from a scaled standard normal.  Two kinds of test hold that to
bit-identity:

* the numpy contracts the change rests on — ``integers(0, n, size=k)``
  and ``random(k)`` return the values of k scalar calls and leave the
  generator in the same state, and ``abs(standard_normal() * sigma)``
  equals ``abs(normal(0.0, sigma))`` drawn interleaved with
  ``random()`` as the noise model draws them;
* the simulator against its scalar-draw form, kept here as the
  reference: a :class:`StatisticalCache` and a :class:`HostCoupling`
  driven many times must give the hit/miss/write-back and payload-address
  sequences that one scalar draw per access gives.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.transactions import OpKind
from repro.sim.cache import CacheState, StatisticalCache
from repro.sim.nichost import SharedHost
from repro.sim.nicsim import NicSimParams
from repro.sim.rng import DRAW_BLOCK, SimRng, block_draws
from repro.units import MIB

seeds = st.integers(min_value=0, max_value=2**64 - 1)
#: Block sizes up to past two of the simulator's blocks.
block_sizes = st.lists(
    st.integers(min_value=1, max_value=2 * DRAW_BLOCK + 1), min_size=1, max_size=4
)
#: Every range a payload window or a test could ask for, up to 2**40.
ranges = st.integers(min_value=1, max_value=2**40)
#: Accesses driven through the simulator: up to a few blocks' worth.
accesses = st.integers(min_value=1, max_value=3 * DRAW_BLOCK + 7)


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return (
        np.random.Generator(np.random.PCG64(seed)),
        np.random.Generator(np.random.PCG64(seed)),
    )


@given(seed=seeds, sizes=block_sizes, high=ranges, lead=st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_integer_blocks_equal_scalar_draws(seed, sizes, high, lead):
    blocked, scalar = _twins(seed)
    # A few scalar draws first, so a half-used 32-bit buffer carries into
    # the first block exactly as it carries into the next scalar draw.
    for _ in range(lead):
        assert blocked.integers(0, high) == scalar.integers(0, high)
    for size in sizes:
        assert blocked.integers(0, high, size=size).tolist() == [
            int(scalar.integers(0, high)) for _ in range(size)
        ]
    assert blocked.bit_generator.state == scalar.bit_generator.state


@given(seed=seeds, sizes=block_sizes)
@settings(max_examples=80, deadline=None)
def test_uniform_blocks_equal_scalar_draws(seed, sizes):
    blocked, scalar = _twins(seed)
    for size in sizes:
        assert blocked.random(size).tolist() == [
            scalar.random() for _ in range(size)
        ]
    assert blocked.bit_generator.state == scalar.bit_generator.state


@given(
    seed=seeds,
    sigma=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    ),
    draws=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=80, deadline=None)
def test_scaled_standard_normal_equals_normal(seed, sigma, draws):
    scaled, normal = _twins(seed)
    for _ in range(draws):
        jitter = abs(scaled.standard_normal() * sigma)
        assert jitter == abs(normal.normal(0.0, sigma))
        assert scaled.random() == normal.random()
    assert scaled.bit_generator.state == normal.bit_generator.state


@given(seed=seeds, high=ranges, count=accesses)
@settings(max_examples=40, deadline=None)
def test_block_draws_helper_yields_the_scalar_sequence(seed, high, count):
    blocked, scalar = _twins(seed)
    values = block_draws(partial(blocked.integers, 0, high))
    assert [next(values) for _ in range(count)] == [
        int(scalar.integers(0, high)) for _ in range(count)
    ]


# -- the simulator against its scalar-draw reference ---------------------------


def _reference_cache(generator, resident, writeback, operations):
    """``(hit, writeback)`` per access, one scalar draw per decision."""
    outcomes = []
    for is_write in operations:
        if generator.random() < resident:
            outcomes.append((True, False))
        elif is_write:
            outcomes.append((False, generator.random() < writeback))
        else:
            outcomes.append((False, False))
    return outcomes


#: At least this many accesses, so a wrong value shows in the outcomes.
MIN_ACCESSES = 64


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    operations=st.lists(
        st.booleans(), min_size=MIN_ACCESSES, max_size=3 * DRAW_BLOCK + 7
    ),
    split=st.floats(min_value=0.25, max_value=0.75),
)
@settings(max_examples=40, deadline=None)
def test_statistical_cache_matches_scalar_reference(seed, operations, split):
    """Hit/miss/write-back sequence, with a rebuilt cache taking over.

    A host in ``auto`` cache mode rebuilds its statistical cache on the
    same random source between benchmarks; the rebuilt cache continues
    the stream where its predecessor stopped, as scalar draws did.
    """
    turn = int(len(operations) * split)
    window_lines = 32 * MIB // 64  # past the DDIO slice and the LLC
    rng = SimRng(seed)
    first = StatisticalCache(12 * MIB, rng=rng)
    first.prepare(CacheState.HOST_WARM, window_lines)
    second = StatisticalCache(12 * MIB, rng=rng)
    second.prepare(CacheState.HOST_WARM, window_lines)
    resident = first.resident_fraction
    writeback = max(0.0, 1.0 - first.ddio_lines / window_lines)
    assert 0.0 < resident < 1.0 and 0.0 < writeback < 1.0

    observed = []
    for index, is_write in enumerate(operations):
        cache = first if index < turn else second
        result = cache.write(index) if is_write else cache.read(index)
        observed.append((result.hit, result.writeback_required))
    reference = _reference_cache(
        SimRng(seed).spawn("cache.statistical"), resident, writeback, operations
    )
    assert observed == reference


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    operations=st.lists(
        st.booleans(), min_size=MIN_ACCESSES, max_size=2 * DRAW_BLOCK + 7
    ),
)
@settings(max_examples=15, deadline=None)
def test_host_coupling_matches_scalar_reference(seed, operations):
    """Payload addresses and cache outcomes of payload DMAs, access by access."""
    device = NicSimParams(
        system="NFP6000-HSW", payload_window=64 * MIB, ring_depth=64
    )
    coupling = SharedHost([device], seed=seed).couplings[0]
    root_complex = coupling.payload_rc
    addresses: list[int] = []

    def spy(method):
        def record(address, size, *, buffer_node):
            addresses.append(address)
            return method(address, size, buffer_node=buffer_node)

        return record

    root_complex.read = spy(root_complex.read)
    root_complex.write = spy(root_complex.write)
    outcomes = []
    for is_write in operations:
        access = coupling.access(
            OpKind.DMA_WRITE if is_write else OpKind.DMA_READ,
            direction="rx" if is_write else "tx",
            payload=True,
            size=1500,
        )
        outcomes.append((access.cache_hit, access.writeback))

    first = coupling.payload_buffer.unit_address(0)
    unit_size = coupling.payload_buffer.unit_size
    units = coupling.payload_buffer.unit_count
    unit_stream = SimRng(seed).spawn("nicsim.host.payload_units")
    assert addresses == [
        first + int(unit_stream.integers(0, units)) * unit_size
        for _ in operations
    ]
    cache = root_complex.cache
    window_lines = coupling.payload_buffer.window_cachelines
    assert outcomes == _reference_cache(
        SimRng(seed).spawn("cache.statistical"),
        cache.resident_fraction,
        max(0.0, 1.0 - cache.ddio_lines / window_lines),
        operations,
    )
