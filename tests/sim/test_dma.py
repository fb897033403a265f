"""Tests for the DMA engine simulation (latency and bandwidth measurement)."""

import numpy as np
import pytest

from repro.errors import BenchmarkError, ValidationError
from repro.sim.devices import NETFPGA, NFP6000
from repro.sim.dma import DmaEngine, DmaOperation
from repro.sim.host import HostSystem
from repro.units import KIB, MIB


@pytest.fixture
def host():
    return HostSystem.from_profile("NFP6000-HSW", seed=99)


@pytest.fixture
def engine(host):
    return DmaEngine(host)


def warm_buffer(host, window, size, **kwargs):
    buffer = host.allocate_buffer(window, size, **kwargs)
    host.prepare(buffer, "host_warm")
    return buffer


class TestDmaOperation:
    def test_aliases(self):
        assert DmaOperation.from_value("rd") is DmaOperation.READ
        assert DmaOperation.from_value("rdwr") is DmaOperation.READ_WRITE
        assert DmaOperation.from_value("WRRD") is DmaOperation.WRITE_READ

    def test_invalid(self):
        with pytest.raises(ValidationError):
            DmaOperation.from_value("copy")


class TestLatencyMeasurement:
    def test_read_latency_in_plausible_range(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        result = engine.measure_latency(buffer, "read", 500)
        median = float(np.median(result.samples_ns))
        assert 400 <= median <= 800
        assert result.samples_ns.shape == (500,)

    def test_write_read_slower_than_read(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        read = engine.measure_latency(buffer, "read", 300)
        wrrd = engine.measure_latency(buffer, "write_read", 300)
        assert np.median(wrrd.samples_ns) > np.median(read.samples_ns)

    def test_latency_grows_with_transfer_size(self, host, engine):
        small = engine.measure_latency(warm_buffer(host, 8 * KIB, 64), "read", 300)
        large = engine.measure_latency(warm_buffer(host, 8 * KIB, 2048), "read", 300)
        assert np.median(large.samples_ns) > np.median(small.samples_ns)

    def test_samples_quantised_to_device_resolution(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        result = engine.measure_latency(buffer, "read", 200)
        resolution = host.device.engine.timestamp_resolution_ns
        remainders = np.mod(result.samples_ns / resolution, 1.0)
        assert np.allclose(np.minimum(remainders, 1 - remainders), 0.0, atol=1e-6)

    def test_command_interface_is_faster_for_small_transfers(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 8)
        dma = engine.measure_latency(buffer, "read", 300, use_command_interface=False)
        cmd = engine.measure_latency(buffer, "read", 300, use_command_interface=True)
        assert np.median(cmd.samples_ns) < np.median(dma.samples_ns)

    def test_command_interface_rejected_for_large_transfers(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 2048)
        with pytest.raises(BenchmarkError):
            engine.measure_latency(buffer, "read", 10, use_command_interface=True)

    def test_command_interface_rejected_on_netfpga(self):
        host = HostSystem.from_profile("NetFPGA-HSW", seed=1)
        engine = DmaEngine(host)
        buffer = warm_buffer(host, 8 * KIB, 8)
        with pytest.raises(BenchmarkError):
            engine.measure_latency(buffer, "read", 10, use_command_interface=True)

    def test_bandwidth_operation_rejected(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        with pytest.raises(BenchmarkError):
            engine.measure_latency(buffer, "write", 10)

    def test_zero_count_rejected(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        with pytest.raises(ValidationError):
            engine.measure_latency(buffer, "read", 0)

    def test_cache_hit_rate_reported(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        result = engine.measure_latency(buffer, "read", 200)
        assert result.cache_hit_rate == pytest.approx(1.0)


class TestBandwidthMeasurement:
    def test_write_bandwidth_between_zero_and_link_limit(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 256)
        result = engine.measure_bandwidth(buffer, "write", 1500)
        assert 0 < result.gbps <= engine.config.tlp_bandwidth_gbps

    def test_read_bandwidth_small_transfers_latency_limited(self, host, engine):
        small = engine.measure_bandwidth(warm_buffer(host, 8 * KIB, 64), "read", 1500)
        large = engine.measure_bandwidth(warm_buffer(host, 8 * KIB, 1024), "read", 1500)
        assert small.gbps < large.gbps

    def test_netfpga_reads_faster_than_nfp_at_64b(self):
        results = {}
        for profile in ("NFP6000-HSW", "NetFPGA-HSW"):
            host = HostSystem.from_profile(profile, seed=5)
            engine = DmaEngine(host)
            buffer = warm_buffer(host, 8 * KIB, 64)
            results[profile] = engine.measure_bandwidth(buffer, "read", 1500).gbps
        assert results["NetFPGA-HSW"] > results["NFP6000-HSW"]

    def test_rdwr_reports_per_direction_payload(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 512)
        rdwr = engine.measure_bandwidth(buffer, "read_write", 1500)
        assert rdwr.gbps <= engine.config.tlp_bandwidth_gbps

    def test_rdwr_books_the_exact_half_of_an_odd_total(self, host, engine):
        # 5 transactions of 3 bytes move 15 bytes; the per-direction
        # payload is 7.5 bytes, not the 7 a floor division books.
        buffer = warm_buffer(host, 8 * KIB, 3)
        rdwr = engine.measure_bandwidth(buffer, "read_write", 5)
        assert rdwr.gbps == 5 * 3 / 2 * 8 / rdwr.elapsed_ns

    def test_link_utilisation_bounded(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 1024)
        result = engine.measure_bandwidth(buffer, "read", 1000)
        assert 0.0 <= result.link_utilisation_up <= 1.0
        assert 0.0 <= result.link_utilisation_down <= 1.0
        # Large reads saturate the completion direction.
        assert result.link_utilisation_down > 0.8

    def test_iommu_misses_reduce_read_bandwidth(self):
        results = {}
        for enabled in (False, True):
            host = HostSystem.from_profile("NFP6000-BDW", iommu_enabled=enabled, seed=3)
            engine = DmaEngine(host)
            buffer = warm_buffer(host, 16 * MIB, 64)
            results[enabled] = engine.measure_bandwidth(buffer, "read", 1500).gbps
        assert results[True] < 0.6 * results[False]

    def test_remote_placement_reduces_small_read_bandwidth(self):
        host = HostSystem.from_profile("NFP6000-BDW", seed=3)
        engine = DmaEngine(host)
        local = engine.measure_bandwidth(
            warm_buffer(host, 16 * KIB, 64, node="local"), "read", 1500
        ).gbps
        remote = engine.measure_bandwidth(
            warm_buffer(host, 16 * KIB, 64, node="remote"), "read", 1500
        ).gbps
        assert remote < local

    def test_write_read_rejected_for_bandwidth(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        with pytest.raises(BenchmarkError):
            engine.measure_bandwidth(buffer, "write_read", 100)

    def test_transactions_per_second_consistent(self, host, engine):
        buffer = warm_buffer(host, 8 * KIB, 64)
        result = engine.measure_bandwidth(buffer, "write", 1000)
        expected = result.transactions / (result.elapsed_ns * 1e-9)
        assert result.transactions_per_second == pytest.approx(expected)

    def test_explicit_device_override(self, host):
        engine = DmaEngine(host, device=NETFPGA)
        assert engine.device is NETFPGA
        default_engine = DmaEngine(host)
        assert default_engine.device is NFP6000
