"""Result records produced by the benchmarks, plus (de)serialisation helpers.

The real pcie-bench control programs write raw measurements to files and
post-process them into summary metrics (§5.4).  This module plays that role:
every benchmark run yields a :class:`BenchmarkResult` that couples the input
parameters with either latency statistics or bandwidth figures and can be
round-tripped through JSON/CSV for later analysis.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..errors import AnalysisError, ValidationError, record_reader
from ..sim.fabric import ContentionResult
from ..sim.nicsim import NicSimResult
from .fleet import FleetResult
from .params import BenchmarkParams
from .stats import LatencyStats


@dataclass(frozen=True)
class BenchmarkResult:
    """Outcome of one micro-benchmark run.

    Exactly one of ``latency`` / ``bandwidth_gbps`` is populated, matching
    the benchmark kind in ``params``.
    """

    params: BenchmarkParams
    latency: LatencyStats | None = None
    bandwidth_gbps: float | None = None
    transactions_per_second: float | None = None
    cache_hit_rate: float | None = None
    iotlb_miss_rate: float | None = None
    samples_ns: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.params.kind.is_latency and self.latency is None:
            raise ValidationError(
                f"{self.params.kind.value} result requires latency statistics"
            )
        if self.params.kind.is_bandwidth and self.bandwidth_gbps is None:
            raise ValidationError(
                f"{self.params.kind.value} result requires a bandwidth figure"
            )

    # -- convenience accessors ----------------------------------------------------

    @property
    def metric(self) -> float:
        """The headline number: median latency (ns) or bandwidth (Gb/s)."""
        if self.latency is not None:
            return self.latency.median
        assert self.bandwidth_gbps is not None
        return self.bandwidth_gbps

    def as_dict(self, *, include_samples: bool = False) -> dict[str, object]:
        """Serialisable representation (samples omitted by default)."""
        record: dict[str, object] = {"params": self.params.as_dict()}
        if self.latency is not None:
            record["latency"] = self.latency.as_dict()
        if self.bandwidth_gbps is not None:
            record["bandwidth_gbps"] = self.bandwidth_gbps
        if self.transactions_per_second is not None:
            record["transactions_per_second"] = self.transactions_per_second
        if self.cache_hit_rate is not None:
            record["cache_hit_rate"] = self.cache_hit_rate
        if self.iotlb_miss_rate is not None:
            record["iotlb_miss_rate"] = self.iotlb_miss_rate
        if include_samples and self.samples_ns is not None:
            record["samples_ns"] = [float(value) for value in self.samples_ns]
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "BenchmarkResult":
        """Rebuild a result from :meth:`as_dict` output."""
        params = BenchmarkParams.from_dict(dict(data["params"]))  # type: ignore[arg-type]
        latency = None
        if "latency" in data:
            stats = dict(data["latency"])  # type: ignore[arg-type]
            latency = LatencyStats(
                count=int(stats["count"]),
                mean=float(stats["mean"]),
                median=float(stats["median"]),
                minimum=float(stats["min"]),
                maximum=float(stats["max"]),
                std=float(stats["std"]),
                p90=float(stats["p90"]),
                p95=float(stats["p95"]),
                p99=float(stats["p99"]),
                p999=float(stats["p99.9"]),
            )
        samples = None
        if "samples_ns" in data:
            samples = np.asarray(data["samples_ns"], dtype=np.float64)
        return cls(
            params=params,
            latency=latency,
            bandwidth_gbps=_optional_float(data.get("bandwidth_gbps")),
            transactions_per_second=_optional_float(
                data.get("transactions_per_second")
            ),
            cache_hit_rate=_optional_float(data.get("cache_hit_rate")),
            iotlb_miss_rate=_optional_float(data.get("iotlb_miss_rate")),
            samples_ns=samples,
        )


def _optional_float(value: object) -> float | None:
    return None if value is None else float(value)


# ---------------------------------------------------------------------------
# Collections of results
# ---------------------------------------------------------------------------


def save_results_json(
    results: Sequence[
        "BenchmarkResult | NicSimResult | ContentionResult | FleetResult"
    ],
    path: str | Path,
    *,
    include_samples: bool = False,
) -> None:
    """Write results to a JSON file (micro-benchmark, simulation, contention, fleet)."""
    records = [
        result.as_dict(include_samples=include_samples)
        if isinstance(result, BenchmarkResult)
        else result.as_dict()
        for result in results
    ]
    Path(path).write_text(json.dumps(records, indent=2))


def load_results_json(
    path: str | Path,
) -> list["BenchmarkResult | NicSimResult | ContentionResult | FleetResult"]:
    """Read results back from saved JSON.

    Handles both plain micro-benchmark files and mixed files written by
    :meth:`repro.bench.runner.BenchmarkRunner.save`: records tagged
    ``"kind": "NICSIM"`` are rebuilt as
    :class:`~repro.sim.nicsim.NicSimResult`, records tagged
    ``"kind": "CONTENTION"`` as
    :class:`~repro.sim.fabric.ContentionResult`, and records tagged
    ``"kind": "FLEET"`` as :class:`~repro.bench.fleet.FleetResult`.
    """
    text = Path(path).read_text()
    records = json.loads(text)
    if not isinstance(records, list):
        raise AnalysisError(f"expected a list of results in {path}")
    rebuilt: list[
        "BenchmarkResult | NicSimResult | ContentionResult | FleetResult"
    ] = []
    for record in records:
        if not isinstance(record, dict):
            raise AnalysisError(
                f"expected result objects in {path}, got {type(record).__name__}"
            )
        if record.get("kind") == "NICSIM":
            rebuilt.append(NicSimResult.from_dict(record))
        elif record.get("kind") == "CONTENTION":
            rebuilt.append(ContentionResult.from_dict(record))
        elif record.get("kind") == "FLEET":
            rebuilt.append(FleetResult.from_dict(record))
        else:
            rebuilt.append(BenchmarkResult.from_dict(record))
    return rebuilt


def save_results_csv(results: Sequence[BenchmarkResult], path: str | Path) -> None:
    """Write a flat CSV with one row per result (summary metrics only)."""
    if not results:
        raise AnalysisError("no results to save")
    rows = []
    for result in results:
        row: dict[str, object] = dict(result.params.as_dict())
        if result.latency is not None:
            row.update(
                {f"latency_{key}": value for key, value in result.latency.as_dict().items()}
            )
        if result.bandwidth_gbps is not None:
            row["bandwidth_gbps"] = result.bandwidth_gbps
        if result.transactions_per_second is not None:
            row["transactions_per_second"] = result.transactions_per_second
        if result.cache_hit_rate is not None:
            row["cache_hit_rate"] = result.cache_hit_rate
        if result.iotlb_miss_rate is not None:
            row["iotlb_miss_rate"] = result.iotlb_miss_rate
        rows.append(row)
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def filter_results(
    results: Iterable[BenchmarkResult], **criteria: object
) -> list[BenchmarkResult]:
    """Select results whose parameters match all the given criteria.

    Example::

        filter_results(all_results, kind=BenchmarkKind.BW_RD, transfer_size=64)
    """
    selected = []
    for result in results:
        params_dict = result.params.as_dict()
        match = True
        for key, wanted in criteria.items():
            if key not in params_dict:
                raise ValidationError(f"unknown parameter {key!r} in filter")
            actual = params_dict[key]
            wanted_value = getattr(wanted, "value", wanted)
            if actual != wanted_value and actual != wanted:
                match = False
                break
        if match:
            selected.append(result)
    return selected
