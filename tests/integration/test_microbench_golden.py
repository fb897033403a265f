"""Bit-exact golden for the paper's micro-benchmarks (LAT_* and BW_*, §4).

``microbench_seeded.json`` holds a fixed list of :class:`BenchmarkParams`,
300 transactions each, covering the five kinds; cold, host-warm and
device-warm caches; faithful (at most 64 KiB) and statistical windows;
one-line and multi-line transfers; the IOMMU on and off, with 4 KiB and
2 MiB pages; remote placement on the dual-socket NFP6000-BDW; the
heavy-tailed NFP6000-HSW-E3 with an offset and sequential order; and the
command interface.  Each entry is recorded twice:

* through ``BenchmarkRunner.run_all``, which builds a fresh host per run
  (the ``suite`` command and Figures 4, 5 and 7);
* in order through one runner's ``run``, which shares a host between
  entries of one configuration (``pcie-bench run``, Figures 8 and 9 and
  Table 2), so cache and RNG state carry from one entry to the next.

The record also holds a SHA-256 digest of the raw samples of one latency
run.  ``scripts/check_goldens.py`` (``microbench_record``) applies the same
exact check and reports a per-field diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.micro import run_micro_benchmark
from repro.bench.params import BenchmarkParams
from repro.bench.runner import BenchmarkRunner
from repro.sim.host import FAITHFUL_CACHE_LINE_LIMIT
from repro.units import CACHELINE_BYTES

GOLDEN = Path(__file__).parent.parent / "golden" / "microbench_seeded.json"


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load()


@pytest.fixture(scope="module")
def params_list(golden) -> list[BenchmarkParams]:
    return [BenchmarkParams.from_dict(params) for params in golden["params"]]


def test_params_round_trip(golden, params_list):
    assert [params.as_dict() for params in params_list] == golden["params"]
    assert all(params.transactions == 300 for params in params_list)
    assert len(set(params_list)) == len(params_list)


def test_fresh_and_shared_hosts_are_bit_identical(golden, params_list):
    # To regenerate after an intentional behaviour change, rebuild the
    # record exactly as below (scripts/check_goldens.py: microbench_record).
    shared = BenchmarkRunner()
    fresh = {
        "run_all": [
            result.as_dict() for result in BenchmarkRunner().run_all(params_list)
        ],
        "run": [shared.run(params).as_dict() for params in params_list],
    }
    # Round-trip through JSON so float repr and int/float typing match the
    # serialised form, then compare exactly.
    fresh = json.loads(json.dumps(fresh))
    assert fresh["run_all"] == golden["result"]["run_all"]
    assert fresh["run"] == golden["result"]["run"]


def test_raw_samples_are_bit_identical(golden):
    params = BenchmarkParams.from_dict(golden["samples_params"])
    assert params.kind.is_latency
    samples = run_micro_benchmark(params, keep_samples=True).samples_ns
    assert len(samples) == params.transactions
    encoded = json.dumps([float(value) for value in samples]).encode()
    assert hashlib.sha256(encoded).hexdigest() == golden["result"]["samples_sha256"]


def test_golden_covers_the_micro_benchmark_space(params_list):
    faithful_limit = FAITHFUL_CACHE_LINE_LIMIT * CACHELINE_BYTES
    assert {params.kind.value for params in params_list} == {
        "LAT_RD", "LAT_WRRD", "BW_RD", "BW_WR", "BW_RDWR",
    }
    assert {params.cache_state.value for params in params_list} == {
        "cold", "host_warm", "device_warm",
    }
    windows = {params.window_size for params in params_list}
    assert min(windows) <= faithful_limit < max(windows)
    assert {64, 512, 2048} <= {params.transfer_size for params in params_list}
    assert {params.iommu_enabled for params in params_list} == {False, True}
    assert {params.iommu_page_size for params in params_list} == {4096, 2 << 20}
    assert any(
        params.system == "NFP6000-BDW" and params.placement.value == "remote"
        for params in params_list
    )
    e3 = [params for params in params_list if params.system == "NFP6000-HSW-E3"]
    assert any(params.offset for params in e3)
    assert any(params.pattern.value == "sequential" for params in e3)
    assert any(params.use_command_interface for params in params_list)


def test_shared_hosts_carry_state_between_entries(golden):
    result = golden["result"]
    changed = [a != b for a, b in zip(result["run_all"], result["run"])]
    # The first entry of each host configuration runs on a fresh host
    # either way; most later entries see the state earlier ones left.
    assert not changed[0]
    assert sum(changed) > len(changed) // 2
    assert any(entry.get("iotlb_miss_rate", 0.0) > 0.5 for entry in result["run_all"])
