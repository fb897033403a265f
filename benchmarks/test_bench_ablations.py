"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures: they vary one modelling/design knob at
a time and print the resulting curve, so the effect of each mechanism
(payload sizes, driver batching, IOTLB capacity, DMA concurrency) can be
inspected in isolation.
"""

import pytest

from repro.analysis.table import format_series_table
from repro.bench.params import BenchmarkParams
from repro.bench.runner import BenchmarkRunner
from repro.core.bandwidth import effective_write_bandwidth_gbps
from repro.core.config import PCIeConfig
from repro.core.nic import MODERN_NIC_KERNEL, SIMPLE_NIC
from repro.sim.dma import DmaEngine
from repro.sim.host import HostSystem
from repro.sim.profiles import get_profile
from repro.units import KIB, MIB

SIZES = (64, 256, 1024)


def test_ablation_mps_mrrs(benchmark):
    """Effective write bandwidth as MPS grows: the protocol-overhead knob."""

    def run():
        series = {}
        for mps in (128, 256, 512, 1024):
            config = PCIeConfig(mps=mps, mrrs=max(512, mps))
            series[f"MPS={mps}"] = [
                (size, effective_write_bandwidth_gbps(size, config)) for size in SIZES
            ]
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(format_series_table(series, x_label="size (B)", title="MPS ablation (Gb/s)"))
    # Larger MPS always helps large transfers.
    assert series["MPS=1024"][-1][1] > series["MPS=128"][-1][1]


def test_ablation_descriptor_batching(benchmark):
    """Throughput of the simple NIC as descriptor batching is turned up."""

    def run():
        series = {}
        for batch in (1, 4, 16, 64):
            model = SIMPLE_NIC.with_(
                name=f"batch={batch}",
                tx_descriptor_batch=float(batch),
                rx_freelist_batch=float(batch),
                doorbell_batch=float(batch),
                interrupt_moderation=float(batch),
            )
            series[f"batch={batch}"] = model.throughput_sweep(SIZES)
        series["Modern NIC (kernel driver)"] = MODERN_NIC_KERNEL.throughput_sweep(SIZES)
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(
        format_series_table(
            series, x_label="size (B)", title="Descriptor batching ablation (Gb/s)"
        )
    )
    assert series["batch=64"][0][1] > series["batch=1"][0][1]


def test_ablation_iotlb_capacity(benchmark):
    """64 B read bandwidth over a 16 MiB window as the IOTLB grows."""

    def run():
        points = []
        for entries in (16, 64, 256, 1024):
            host = HostSystem.from_profile(
                get_profile("NFP6000-BDW").with_(iotlb_entries=entries),
                iommu_enabled=True,
                seed=7,
            )
            engine = DmaEngine(host)
            buffer = host.allocate_buffer(16 * MIB, 64)
            host.prepare(buffer, "host_warm")
            points.append((entries, engine.measure_bandwidth(buffer, "read", 1500).gbps))
        return {"64B BW_RD, 16MiB window": points}

    series = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(
        format_series_table(
            series, x_label="IOTLB entries", title="IOTLB capacity ablation (Gb/s)"
        )
    )
    points = series["64B BW_RD, 16MiB window"]
    assert points[-1][1] > points[0][1]


def test_ablation_dma_concurrency(benchmark):
    """64 B read bandwidth as the device's in-flight DMA window grows."""

    def run():
        points = []
        for inflight in (4, 8, 16, 32, 64):
            host = HostSystem.from_profile("NFP6000-HSW", seed=7)
            device = host.device.with_engine(max_inflight=inflight)
            engine = DmaEngine(host, device=device)
            buffer = host.allocate_buffer(8 * KIB, 64)
            host.prepare(buffer, "host_warm")
            points.append(
                (inflight, engine.measure_bandwidth(buffer, "read", 1500).gbps)
            )
        return {"64B BW_RD": points}

    series = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(
        format_series_table(
            series,
            x_label="in-flight DMAs",
            title="DMA concurrency ablation (Gb/s)",
        )
    )
    points = series["64B BW_RD"]
    # More concurrency helps until the engine issue rate / link takes over.
    assert points[2][1] > points[0][1]


def test_ablation_window_size_cache_pressure(benchmark):
    """Warm-cache 64 B read bandwidth vs window size on one host (BDW, 25 MiB LLC)."""

    def run():
        runner = BenchmarkRunner()
        base = BenchmarkParams(
            kind="BW_RD",
            transfer_size=64,
            cache_state="host_warm",
            system="NFP6000-BDW",
            transactions=1200,
        )
        results = runner.sweep_window_size(
            base, [64 * KIB, 1 * MIB, 16 * MIB, 64 * MIB]
        )
        return {
            "64B BW_RD (warm)": [
                (r.params.window_size, r.bandwidth_gbps) for r in results
            ]
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(
        format_series_table(
            series, x_label="window (B)", title="Cache pressure ablation (Gb/s)"
        )
    )
    points = series["64B BW_RD (warm)"]
    assert points[0][1] >= points[-1][1]
