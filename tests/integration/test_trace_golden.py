"""Bit-exact golden for a traced switch-tree contention run.

``trace_tree_sliced_seeded.json`` pins the span stream of four devices on
a switch tree (sliced 8:1:1:2 grants, a DDIO partition, the IOMMU and a
threshold controller) at seed 7: the latency attribution table, the span
count per stage — including the per-hop ``arb:<resource>@sw0`` waits the
switch tree emits — and a SHA-256 digest of the JSONL export, which
covers every span's device, lane, packet, stage, start and duration.
The tracer is sized so that nothing is evicted.

``scripts/check_goldens.py`` checks the same record and reports a
per-field diff.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.analysis import attribute_spans
from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.obs import ARB_PREFIX, Tracer
from repro.sim.topology import FabricTopology

GOLDEN = Path(__file__).parent.parent / "golden" / "trace_tree_sliced_seeded.json"


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_params_round_trip():
    golden = _load()
    params = ContentionParams.from_dict(golden["params"])
    assert params.as_dict() == golden["params"]
    assert params.seed == 7
    assert FabricTopology.parse(params.topology).switch_names == ("sw0",)


def test_traced_tree_run_is_bit_identical():
    # To regenerate after an intentional behaviour change, rebuild the
    # record exactly as below (scripts/check_goldens.py: traced_record).
    golden = _load()
    tracer = Tracer(golden["tracer_capacity"])
    run_contention_benchmark(
        ContentionParams.from_dict(golden["params"]), tracer=tracer
    )
    spans = tracer.spans
    lines = "\n".join(tracer.jsonl_lines()).encode()
    fresh = {
        "attribution": attribute_spans(spans),
        "stage_counts": dict(sorted(Counter(s.stage for s in spans).items())),
        "recorded": tracer.recorded,
        "evicted": tracer.evicted,
        "jsonl_sha256": hashlib.sha256(lines).hexdigest(),
    }
    # Round-trip through JSON so float repr and int/float typing match the
    # serialised form, then compare exactly.
    assert json.loads(json.dumps(fresh)) == golden["result"]


def test_golden_covers_per_hop_switch_spans():
    result = _load()["result"]
    assert result["evicted"] == 0
    assert result["recorded"] == sum(result["stage_counts"].values())
    for resource in ("ingress", "walker"):
        for node in ("sw0", "root"):
            assert result["stage_counts"][f"{ARB_PREFIX}{resource}@{node}"] > 0
    devices = [record["device"] for record in result["attribution"]]
    assert devices == sorted(["victim", "aggressor", "bulk2", "streamer"])
