"""Tests for benchmark parameter validation and serialisation."""

import pytest

from repro.bench.params import (
    COMMON_TRANSFER_SIZES,
    WINDOW_SWEEP,
    BenchmarkKind,
    BenchmarkParams,
    NumaPlacement,
)
from repro.errors import ValidationError
from repro.sim.cache import CacheState
from repro.sim.hostbuffer import AccessPattern
from repro.units import KIB, MIB


class TestBenchmarkKind:
    def test_latency_vs_bandwidth_partition(self):
        latency = {k for k in BenchmarkKind if k.is_latency}
        bandwidth = {k for k in BenchmarkKind if k.is_bandwidth}
        assert latency == {BenchmarkKind.LAT_RD, BenchmarkKind.LAT_WRRD}
        assert bandwidth == {
            BenchmarkKind.BW_RD,
            BenchmarkKind.BW_WR,
            BenchmarkKind.BW_RDWR,
        }

    def test_dma_operation_mapping(self):
        assert BenchmarkKind.LAT_RD.dma_operation == "read"
        assert BenchmarkKind.LAT_WRRD.dma_operation == "write_read"
        assert BenchmarkKind.BW_RDWR.dma_operation == "read_write"

    def test_from_value_case_insensitive(self):
        assert BenchmarkKind.from_value("bw_rd") is BenchmarkKind.BW_RD

    def test_from_value_invalid(self):
        with pytest.raises(ValidationError):
            BenchmarkKind.from_value("BW_SIDEWAYS")


class TestBenchmarkParams:
    def test_string_coercion_of_enums(self):
        params = BenchmarkParams(
            kind="BW_RD",
            transfer_size=64,
            cache_state="warm",
            pattern="sequential",
            placement="remote",
        )
        assert params.kind is BenchmarkKind.BW_RD
        assert params.cache_state is CacheState.HOST_WARM
        assert params.pattern is AccessPattern.SEQUENTIAL
        assert params.placement is NumaPlacement.REMOTE

    def test_window_must_cover_transfer(self):
        with pytest.raises(ValidationError):
            BenchmarkParams(kind="BW_RD", transfer_size=8 * KIB, window_size=4 * KIB)

    def test_window_must_hold_one_unit(self):
        # A unit is offset plus transfer size, rounded up to a cache line:
        # the host buffer's own layout rule, checked at construction.
        with pytest.raises(ValidationError, match="single 4160-byte unit"):
            BenchmarkParams(
                kind="LAT_RD", transfer_size=4096, window_size=4096, offset=8
            )
        with pytest.raises(ValidationError, match="single 64-byte unit"):
            BenchmarkParams(kind="BW_RD", transfer_size=8, window_size=8)
        fits = BenchmarkParams(
            kind="LAT_RD", transfer_size=4096, window_size=4160, offset=8
        )
        assert fits.window_size == 4160
        assert BenchmarkParams(kind="BW_RD", transfer_size=8, window_size=64)

    def test_offset_bounds(self):
        with pytest.raises(ValidationError):
            BenchmarkParams(kind="BW_RD", transfer_size=64, offset=64)

    def test_default_transaction_counts_differ_by_kind(self):
        latency = BenchmarkParams(kind="LAT_RD", transfer_size=64)
        bandwidth = BenchmarkParams(kind="BW_RD", transfer_size=64)
        assert latency.effective_transactions > bandwidth.effective_transactions

    def test_explicit_transactions_override_default(self):
        params = BenchmarkParams(kind="BW_RD", transfer_size=64, transactions=123)
        assert params.effective_transactions == 123

    def test_invalid_transactions(self):
        with pytest.raises(ValidationError):
            BenchmarkParams(kind="BW_RD", transfer_size=64, transactions=0)

    def test_with_replaces_and_revalidates(self):
        params = BenchmarkParams(kind="BW_RD", transfer_size=64)
        bigger = params.with_(transfer_size=1024, window_size=1 * MIB)
        assert bigger.transfer_size == 1024
        with pytest.raises(ValidationError):
            params.with_(transfer_size=0)

    def test_label_mentions_key_facts(self):
        params = BenchmarkParams(
            kind="BW_RD",
            transfer_size=64,
            window_size=64 * MIB,
            cache_state="cold",
            placement="remote",
            iommu_enabled=True,
        )
        label = params.label()
        assert "BW_RD" in label and "64B" in label and "win=64M" in label
        assert "remote" in label and "iommu" in label

    def test_as_dict_from_dict_round_trip(self):
        params = BenchmarkParams(
            kind="LAT_WRRD",
            transfer_size=128,
            window_size=4 * MIB,
            cache_state="cold",
            iommu_enabled=True,
            system="NFP6000-BDW",
            transactions=500,
        )
        rebuilt = BenchmarkParams.from_dict(params.as_dict())
        assert rebuilt == params.with_(transactions=500)

    def test_from_dict_parses_window_strings(self):
        params = BenchmarkParams.from_dict(
            {"kind": "BW_RD", "transfer_size": 64, "window_size": "8K"}
        )
        assert params.window_size == 8 * KIB

    def test_from_dict_rejects_a_window_without_a_unit(self):
        # 60 bytes at offset 8 span two cache lines: a 64-byte window
        # covers the transfer but cannot hold its 128-byte unit.
        with pytest.raises(ValidationError, match="single 128-byte unit"):
            BenchmarkParams.from_dict(
                {
                    "kind": "BW_RD",
                    "transfer_size": 60,
                    "window_size": "64",
                    "offset": 8,
                }
            )


class TestSweepConstants:
    def test_window_sweep_spans_4k_to_64m(self):
        assert WINDOW_SWEEP[0] == 4 * KIB
        assert WINDOW_SWEEP[-1] == 64 * MIB

    def test_common_transfer_sizes_cover_paper_range(self):
        assert 64 in COMMON_TRANSFER_SIZES and 2048 in COMMON_TRANSFER_SIZES
