"""End-to-end tests of the latency/bandwidth benchmark entry points and runner."""

import pytest

from repro.bench.micro import (
    bw_rd,
    bw_rdwr,
    bw_wr,
    lat_rd,
    lat_wrrd,
    run_micro_benchmark,
)
from repro.bench.params import BenchmarkKind, BenchmarkParams
from repro.bench.runner import BenchmarkRunner, full_suite_params
from repro.errors import BenchmarkError
from repro.units import KIB, MIB

FAST = {"transactions": 400}


class TestLatencyEntryPoints:
    def test_lat_rd_returns_latency_result(self):
        result = lat_rd(64, **FAST)
        assert result.latency is not None
        assert result.bandwidth_gbps is None
        assert 300 <= result.latency.median <= 1000

    def test_lat_wrrd_slower_than_lat_rd(self):
        rd = lat_rd(64, seed=11, **FAST)
        wrrd = lat_wrrd(64, seed=11, **FAST)
        assert wrrd.latency.median > rd.latency.median

    def test_cold_cache_slower_than_warm(self):
        warm = lat_rd(64, cache_state="host_warm", seed=7, **FAST)
        cold = lat_rd(64, cache_state="cold", seed=7, **FAST)
        assert cold.latency.median > warm.latency.median

    def test_keep_samples(self):
        params = BenchmarkParams(kind="LAT_RD", transfer_size=64, transactions=50)
        result = run_micro_benchmark(params, keep_samples=True)
        assert result.samples_ns is not None and len(result.samples_ns) == 50


@pytest.mark.parametrize(
    "helper", [lat_rd, lat_wrrd, bw_rd, bw_wr, bw_rdwr], ids=lambda h: h.__name__
)
def test_default_window_holds_one_unit(helper):
    # 8193 B rounds up to an 8256-byte unit, more than the 8 KiB default;
    # an offset joins the unit too.
    assert helper(8193, transactions=10).params.window_size == 8256
    assert helper(8192, offset=8, transactions=10).params.window_size == 8256
    assert helper(64, transactions=10).params.window_size == 8 * KIB


class TestBandwidthEntryPoints:
    def test_bw_rd_reports_bandwidth(self):
        result = bw_rd(256, **FAST)
        assert result.bandwidth_gbps is not None
        assert 0 < result.bandwidth_gbps < 60

    def test_bw_wr_small_transfers_issue_limited(self):
        small = bw_wr(64, **FAST)
        large = bw_wr(1024, **FAST)
        assert small.bandwidth_gbps < large.bandwidth_gbps

    def test_bw_rdwr_most_constrained_at_small_sizes(self):
        rd = bw_rd(64, seed=3, **FAST)
        rdwr = bw_rdwr(64, seed=3, **FAST)
        assert rdwr.bandwidth_gbps < rd.bandwidth_gbps

    def test_iommu_flag_propagates(self):
        off = bw_rd(64, window_size=16 * MIB, iommu_enabled=False,
                    system="NFP6000-BDW", **FAST)
        on = bw_rd(64, window_size=16 * MIB, iommu_enabled=True,
                   system="NFP6000-BDW", **FAST)
        assert on.bandwidth_gbps < off.bandwidth_gbps
        assert on.iotlb_miss_rate > 0.5


class TestRunner:
    def test_runner_caches_hosts_per_configuration(self):
        runner = BenchmarkRunner()
        a = BenchmarkParams(kind="BW_RD", transfer_size=64, transactions=50)
        b = a.with_(transfer_size=128)
        c = a.with_(iommu_enabled=True)
        runner.run(a)
        runner.run(b)
        runner.run(c)
        assert len(runner._hosts) == 2

    def test_sweep_transfer_size_orders_results(self):
        runner = BenchmarkRunner()
        base = BenchmarkParams(kind="BW_WR", transfer_size=64, transactions=200)
        results = runner.sweep_transfer_size(base, [64, 256, 1024])
        assert [r.params.transfer_size for r in results] == [64, 256, 1024]

    def test_sweep_window_size(self):
        runner = BenchmarkRunner()
        base = BenchmarkParams(kind="BW_RD", transfer_size=64, transactions=200)
        results = runner.sweep_window_size(base, [4 * KIB, 64 * KIB])
        assert [r.params.window_size for r in results] == [4 * KIB, 64 * KIB]

    def test_sweep_cache_state(self):
        runner = BenchmarkRunner()
        base = BenchmarkParams(kind="LAT_RD", transfer_size=64, transactions=200)
        results = runner.sweep_cache_state(base)
        assert len(results) == 2

    def test_progress_callback_invoked(self):
        calls = []
        runner = BenchmarkRunner(progress=lambda i, n, p: calls.append((i, n)))
        base = BenchmarkParams(kind="BW_WR", transfer_size=64, transactions=50)
        runner.run_all([base, base.with_(transfer_size=128)])
        assert calls == [(0, 2), (1, 2)]

    def test_save_json_and_csv(self, tmp_path):
        runner = BenchmarkRunner()
        results = [runner.run(BenchmarkParams(kind="BW_WR", transfer_size=64, transactions=50))]
        runner.save(results, tmp_path / "r.json", fmt="json")
        runner.save(results, tmp_path / "r.csv", fmt="csv")
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "r.csv").exists()
        with pytest.raises(BenchmarkError):
            runner.save(results, tmp_path / "r.xml", fmt="xml")

    def test_full_suite_params_cross_product(self):
        params = full_suite_params(
            transfer_sizes=(64, 128),
            windows=(4 * KIB, 64 * KIB),
            cache_states=("cold",),
            kinds=(BenchmarkKind.BW_RD, BenchmarkKind.LAT_RD),
        )
        assert len(params) == 8
        assert all(p.window_size >= p.transfer_size for p in params)

    def test_full_suite_skips_windows_smaller_than_transfer(self):
        params = full_suite_params(
            transfer_sizes=(8 * KIB,),
            windows=(4 * KIB,),
            cache_states=("cold",),
            kinds=(BenchmarkKind.BW_RD,),
        )
        assert params == []

    def test_full_suite_skips_windows_that_cannot_hold_one_unit(self):
        # An 8-byte transfer occupies a whole 64-byte cache-line unit, so
        # the suite skips an 8-byte window for it.
        params = full_suite_params(
            transfer_sizes=(8, 64),
            windows=(8, 64),
            cache_states=("cold",),
            kinds=(BenchmarkKind.BW_RD,),
        )
        assert [(p.transfer_size, p.window_size) for p in params] == [
            (8, 64),
            (64, 64),
        ]
