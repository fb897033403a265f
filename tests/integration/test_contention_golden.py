"""Bit-exact golden tests for seeded multi-device contention runs.

Three records pin the contended scenarios the solo and fleet goldens miss:

* ``contention_pair_iommu_seeded.json`` — the noisy-neighbour pair on a
  flat fcfs fabric sharing one IOMMU (``pcie-bench contend --iommu``);
* ``contention_tree_sliced_control_seeded.json`` — four devices on a
  switch tree with sliced 8:1:1:2 grants, a DDIO partition, the IOMMU and
  a threshold controller, including its action log;
* ``contention_pair_wrr_control_seeded.json`` — the same pair with the
  IOMMU under wrr grants weighted 1:16 and a threshold controller, whose
  mid-run ``set_weights`` retunes the wrr pick (the CI controller smoke's
  flags, at seed 7).

Unlike the tolerance-based nicsim goldens, these compare the serialised
record *exactly*: the host-access and arbitration layers are optimised
under a bit-identity contract, and these runs are where both dominate.
``scripts/check_goldens.py`` applies the same exact check and reports a
per-field diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.sim.fabric import ContentionResult

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDENS = (
    "contention_pair_iommu_seeded.json",
    "contention_tree_sliced_control_seeded.json",
    "contention_pair_wrr_control_seeded.json",
)


def _load(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text())


@pytest.mark.parametrize("name", GOLDENS)
def test_params_round_trip(name):
    golden = _load(name)
    params = ContentionParams.from_dict(golden["params"])
    assert params.as_dict() == golden["params"]
    assert params.seed == 7


@pytest.mark.parametrize("name", GOLDENS)
def test_seeded_run_is_bit_identical(name):
    # To regenerate after an intentional behaviour change:
    #   params = ContentionParams.from_dict(golden["params"])
    #   json.dump({"params": params.as_dict(),
    #              "result": run_contention_benchmark(params).as_dict()}, ...)
    golden = _load(name)
    result = run_contention_benchmark(ContentionParams.from_dict(golden["params"]))
    # Round-trip through JSON so float repr and int/float typing match the
    # serialised form, then compare exactly.
    assert json.loads(json.dumps(result.as_dict())) == golden["result"]


def test_pair_golden_covers_two_devices_on_a_shared_iommu():
    golden = _load(GOLDENS[0])
    assert golden["params"]["iommu_enabled"] is True
    devices = golden["result"]["devices"]
    assert [device["name"] for device in devices] == ["victim", "aggressor"]
    assert sum(d["result"]["host"]["iotlb_misses"] for d in devices) > 0


def test_tree_golden_covers_sliced_partitioned_controlled_tree():
    golden = _load(GOLDENS[1])
    params = golden["params"]
    assert params["arbiter"] == "sliced"
    assert params["ddio_partition"] == [1.0, 2.0, 1.0, 1.0]
    assert params["controller"] == "threshold"
    assert golden["result"]["topology_depth"] == 2
    assert golden["result"]["control_actions"]


def test_wrr_golden_covers_retuned_weighted_pair():
    golden = _load(GOLDENS[2])
    params = golden["params"]
    assert params["arbiter"] == "wrr"
    assert params["weights"] == [1.0, 16.0]
    assert params["controller"] == "threshold"
    assert params["iommu_enabled"] is True
    devices = golden["result"]["devices"]
    assert [device["name"] for device in devices] == ["victim", "aggressor"]
    actions = golden["result"]["control_actions"]
    assert actions
    assert all(action["actuator"] == "weights" for action in actions)
    assert any(action["before"] != action["after"] for action in actions)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_record_round_trips_through_dict(name):
    golden = _load(name)
    restored = ContentionResult.from_dict(golden["result"])
    assert json.loads(json.dumps(restored.as_dict())) == golden["result"]
