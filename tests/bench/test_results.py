"""Tests for benchmark result records and their (de)serialisation."""

import json

import numpy as np
import pytest

from repro.bench.contention import ContentionParams
from repro.bench.fleet import FleetHostResult, FleetParams
from repro.bench.nicsim import NicSimParams
from repro.bench.params import BenchmarkKind, BenchmarkParams
from repro.bench.results import (
    BenchmarkResult,
    filter_results,
    load_results_json,
    save_results_csv,
    save_results_json,
)
from repro.bench.stats import LatencyStats
from repro.errors import AnalysisError, ValidationError
from repro.control import ControlAction
from repro.sim.engine import EngineProfile
from repro.sim.fabric import DeviceContentionResult, FabricPortStats
from repro.sim.nichost import HostSideStats
from repro.sim.nicsim import (
    DmaTagStats,
    LatencySummary,
    NicSimResult,
    PathResult,
    RingStats,
)


def latency_result(size=64, system="NFP6000-HSW"):
    params = BenchmarkParams(kind="LAT_RD", transfer_size=size, system=system)
    stats = LatencyStats.from_samples([500.0, 510.0, 520.0, 530.0])
    return BenchmarkResult(params=params, latency=stats, cache_hit_rate=1.0)


def bandwidth_result(size=64, gbps=30.0):
    params = BenchmarkParams(kind="BW_RD", transfer_size=size)
    return BenchmarkResult(
        params=params,
        bandwidth_gbps=gbps,
        transactions_per_second=1e6,
        iotlb_miss_rate=0.0,
    )


class TestBenchmarkResult:
    def test_latency_kind_requires_latency_stats(self):
        params = BenchmarkParams(kind="LAT_RD", transfer_size=64)
        with pytest.raises(ValidationError):
            BenchmarkResult(params=params, bandwidth_gbps=10.0)

    def test_bandwidth_kind_requires_bandwidth(self):
        params = BenchmarkParams(kind="BW_RD", transfer_size=64)
        with pytest.raises(ValidationError):
            BenchmarkResult(
                params=params, latency=LatencyStats.from_samples([1.0, 2.0])
            )

    def test_metric_selects_median_or_bandwidth(self):
        assert latency_result().metric == pytest.approx(515.0)
        assert bandwidth_result(gbps=42.0).metric == 42.0

    def test_dict_round_trip_latency(self):
        original = latency_result()
        rebuilt = BenchmarkResult.from_dict(original.as_dict())
        # Serialisation records the effective transaction count that ran, so
        # compare against the original with that count made explicit.
        assert rebuilt.params == original.params.with_(
            transactions=original.params.effective_transactions
        )
        assert rebuilt.latency.median == original.latency.median

    def test_dict_round_trip_bandwidth(self):
        original = bandwidth_result()
        rebuilt = BenchmarkResult.from_dict(original.as_dict())
        assert rebuilt.bandwidth_gbps == original.bandwidth_gbps
        assert rebuilt.transactions_per_second == original.transactions_per_second

    def test_samples_included_only_on_request(self):
        params = BenchmarkParams(kind="LAT_RD", transfer_size=64)
        result = BenchmarkResult(
            params=params,
            latency=LatencyStats.from_samples([1.0, 2.0]),
            samples_ns=np.array([1.0, 2.0]),
        )
        assert "samples_ns" not in result.as_dict()
        assert result.as_dict(include_samples=True)["samples_ns"] == [1.0, 2.0]


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        results = [latency_result(), bandwidth_result()]
        path = tmp_path / "results.json"
        save_results_json(results, path)
        loaded = load_results_json(path)
        assert len(loaded) == 2
        assert loaded[0].params.kind is BenchmarkKind.LAT_RD
        assert loaded[1].bandwidth_gbps == pytest.approx(30.0)

    def test_json_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(AnalysisError):
            load_results_json(path)

    def test_json_rejects_non_object_records(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[3]")
        with pytest.raises(AnalysisError, match="got int"):
            load_results_json(path)

    def test_csv_contains_one_row_per_result(self, tmp_path):
        results = [bandwidth_result(64), bandwidth_result(128, gbps=40.0)]
        path = tmp_path / "results.csv"
        save_results_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert "bandwidth_gbps" in lines[0]

    def test_csv_requires_results(self, tmp_path):
        with pytest.raises(AnalysisError):
            save_results_csv([], tmp_path / "empty.csv")


def _load_records(tmp_path, records):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(records))
    return load_results_json(path)


#: Nested records with a malformed field or a missing key.
NESTED_MALFORMED = [
    (LatencySummary, {"count": "x"}),
    (FabricPortStats, {"requests": "x"}),
    (PathResult, {}),
    (RingStats, {}),
    (DmaTagStats, {}),
    (HostSideStats, {}),
    (DeviceContentionResult, {}),
    (ControlAction, {}),
    (BenchmarkParams, {}),
    (FleetParams, {"hosts": "x"}),
    (FleetHostResult, {}),
]


class TestMalformedRecords:
    """A malformed record raises the library's ValidationError, naming
    the record type, instead of whichever built-in error its first bad
    field trips."""

    @pytest.mark.parametrize(
        "read,record_type",
        [
            (lambda tmp: _load_records(tmp, [{"kind": "NICSIM"}]), "NicSimResult"),
            (
                lambda tmp: _load_records(tmp, [{"kind": "CONTENTION"}]),
                "ContentionResult",
            ),
            (lambda tmp: _load_records(tmp, [{"kind": "FLEET"}]), "FleetResult"),
            (lambda tmp: _load_records(tmp, [{}]), "BenchmarkResult"),
            (lambda tmp: NicSimResult.from_dict({}), "NicSimResult"),
            (lambda tmp: EngineProfile.from_dict({}), "EngineProfile"),
            (
                lambda tmp: ContentionParams.from_dict({"devices": 3}),
                "ContentionParams",
            ),
            (lambda tmp: NicSimParams.from_dict({"packets": "x"}), "NicSimParams"),
            # The retired hybrid engine: such records no longer load.
            (lambda tmp: NicSimParams.from_dict({"mode": "hybrid"}), "NicSimParams"),
        ],
        ids=[
            "load-nicsim-without-model",
            "load-contention-without-system",
            "load-fleet-without-params",
            "load-benchmark-without-params",
            "nicsim-result-empty",
            "engine-profile-empty",
            "contention-params-devices-not-a-list",
            "nicsim-params-packets-not-a-number",
            "nicsim-params-hybrid-mode",
        ],
    )
    def test_raises_validation_error_naming_the_record(
        self, tmp_path, read, record_type
    ):
        with pytest.raises(ValidationError, match=f"malformed {record_type} record"):
            read(tmp_path)

    @pytest.mark.parametrize(
        "record_type,data",
        NESTED_MALFORMED,
        ids=[record_type.__name__ for record_type, _ in NESTED_MALFORMED],
    )
    def test_nested_record_raises_validation_error(self, record_type, data):
        # Nested records are read on their own too (result files, the
        # fleet's worker records), so each reader guards its boundary.
        with pytest.raises(
            ValidationError, match=f"malformed {record_type.__name__} record"
        ):
            record_type.from_dict(data)



class TestFiltering:
    def test_filter_by_kind_and_size(self):
        results = [latency_result(64), latency_result(128), bandwidth_result(64)]
        selected = filter_results(results, kind=BenchmarkKind.LAT_RD, transfer_size=64)
        assert len(selected) == 1
        assert selected[0].params.transfer_size == 64

    def test_filter_accepts_string_values(self):
        results = [latency_result(system="NFP6000-HSW")]
        assert filter_results(results, system="NFP6000-HSW")

    def test_filter_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            filter_results([latency_result()], flavour="vanilla")
