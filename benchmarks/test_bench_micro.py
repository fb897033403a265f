"""Micro-benchmarks of the simulator's hot paths (classic pytest-benchmark use).

These time the library itself rather than reproducing a paper figure: how
fast the analytical model evaluates, and how many simulated DMAs per second
the transaction-level simulation sustains.  Useful when extending the
simulator to check for performance regressions.
"""

from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.core.bandwidth import effective_bidirectional_bandwidth_gbps
from repro.core.config import PAPER_DEFAULT_CONFIG
from repro.core.nic import MODERN_NIC_KERNEL
from repro.sim.dma import DmaEngine
from repro.sim.host import HostSystem
from repro.units import KIB


def test_micro_model_bandwidth_evaluation(benchmark):
    """Analytical effective-bandwidth evaluation over the Figure 1 size range."""

    def run():
        return [
            effective_bidirectional_bandwidth_gbps(size, PAPER_DEFAULT_CONFIG)
            for size in range(64, 1537, 16)
        ]

    values = benchmark(run)
    assert len(values) == 93


def test_micro_nic_model_evaluation(benchmark):
    """NIC interaction model throughput evaluation."""

    def run():
        return MODERN_NIC_KERNEL.throughput_sweep(range(64, 1537, 64))

    values = benchmark(run)
    assert len(values) == 24


def test_micro_simulated_latency_samples(benchmark):
    """Per-transaction latency simulation rate (LAT_RD, warm 8 KiB buffer)."""
    host = HostSystem.from_profile("NFP6000-HSW", seed=1)
    engine = DmaEngine(host)
    buffer = host.allocate_buffer(8 * KIB, 64)
    host.prepare(buffer, "host_warm")

    result = benchmark.pedantic(
        lambda: engine.measure_latency(buffer, "read", 1000),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.samples_ns.shape == (1000,)


def test_micro_simulated_bandwidth_run(benchmark):
    """Pipelined bandwidth simulation rate (BW_RD, warm 8 KiB buffer)."""
    host = HostSystem.from_profile("NFP6000-HSW", seed=1)
    engine = DmaEngine(host)
    buffer = host.allocate_buffer(8 * KIB, 64)
    host.prepare(buffer, "host_warm")

    result = benchmark.pedantic(
        lambda: engine.measure_bandwidth(buffer, "read", 1000),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.transactions == 1000


def test_micro_streaming_mode_memory_is_o1_in_packet_count():
    """``retain_samples=False`` memory does not grow with the packet count.

    The sketch's bucket occupancy is a function of the latency *dynamic
    range*, not of how many packets were summarised: quadrupling the run
    length must leave the number of occupied buckets essentially flat
    (never the 4x a retained sample store pays).  This is the regression
    guard for the fleet-scale O(1)-memory contract.
    """
    runs = {}
    params = NicSimParams(
        model="dpdk",
        workload="imix",
        offered_load_gbps=20.0,
        retain_samples=False,
        seed=7,
    )
    for packets in (1_000, 4_000):
        result = run_nicsim_benchmark(params.with_(packets=packets))
        sketch = result.tx.latency.sketch
        assert sketch is not None
        assert sketch.count >= packets // 2
        runs[packets] = sketch.bucket_count
    # A generous fixed allowance for newly-touched tail buckets; the 4x
    # run would need ~4x the buckets if memory scaled with packet count.
    assert runs[4_000] <= runs[1_000] + 64
    assert runs[4_000] < runs[1_000] * 2
