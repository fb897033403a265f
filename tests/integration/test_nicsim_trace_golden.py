"""Bit-exact golden for a traced, metrics-attached single-device nicsim run.

``trace_nicsim_multiqueue_seeded.json`` pins the span stream and the
metrics snapshot of one host-coupled device at seed 7: four RSS queues,
16 DMA tags, the IOMMU, 32-entry rings and a 40 Gb/s IMIX load, so the
run drops packets, queues TX packets for a ring entry (``ring`` spans of
positive width) and waits on the single-device ingress and walker
(``arb:ingress``, ``arb:walker`` and ``walker`` spans).  The record holds
the span count per stage, recorded/evicted, a SHA-256 digest of the JSONL
export (every span's device, lane, packet, stage, start and duration) and
the run's metrics snapshot.  It also holds the metrics snapshot of the
flat noisy-neighbour pair from ``contention_pair_iommu_seeded.json``.
The tracer is sized so that nothing is evicted.

``scripts/check_goldens.py`` (``traced_nicsim_record``) checks the same
record and reports a per-field diff.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.obs import (
    ARB_PREFIX,
    STAGE_DROP,
    STAGE_RING,
    STAGE_WALKER,
    MetricsRegistry,
    Tracer,
)

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN = GOLDEN_DIR / "trace_nicsim_multiqueue_seeded.json"


def _load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def traced_run():
    """The golden's traced nicsim run and its pair's metrics, run once."""
    golden = _load()
    tracer = Tracer(golden["tracer_capacity"])
    result = run_nicsim_benchmark(
        NicSimParams.from_dict(golden["params"]),
        tracer=tracer,
        metrics=MetricsRegistry(),
    )
    pair = run_contention_benchmark(
        ContentionParams.from_dict(golden["pair_params"]),
        metrics=MetricsRegistry(),
    )
    return tracer, result, pair


def test_params_derive_from_the_seeded_goldens():
    golden = _load()
    multiqueue = _load(GOLDEN_DIR / "nicsim_multiqueue_seeded.json")["params"]
    changed = {"ring_depth": 32, "offered_load_gbps": 40.0, "seed": 7}
    assert golden["params"] == {**multiqueue, **changed}
    assert NicSimParams.from_dict(golden["params"]).as_dict() == golden["params"]
    pair = _load(GOLDEN_DIR / "contention_pair_iommu_seeded.json")["params"]
    assert golden["pair_params"] == pair


def test_traced_nicsim_run_is_bit_identical(traced_run):
    # To regenerate after an intentional behaviour change, rebuild the
    # record exactly as below (scripts/check_goldens.py:
    # traced_nicsim_record).
    tracer, result, pair = traced_run
    lines = "\n".join(tracer.jsonl_lines()).encode()
    fresh = {
        "stage_counts": dict(
            sorted(Counter(span.stage for span in tracer.spans).items())
        ),
        "recorded": tracer.recorded,
        "evicted": tracer.evicted,
        "jsonl_sha256": hashlib.sha256(lines).hexdigest(),
        "metrics": result.metrics,
        "pair_metrics": pair.metrics,
    }
    # Round-trip through JSON so float repr and int/float typing match the
    # serialised form, then compare exactly.
    assert json.loads(json.dumps(fresh)) == _load()["result"]


def test_golden_covers_every_traced_branch(traced_run):
    tracer, _result, _pair = traced_run
    counts = _load()["result"]["stage_counts"]
    assert _load()["result"]["evicted"] == 0
    for stage in (
        STAGE_DROP,
        ARB_PREFIX + "ingress",
        ARB_PREFIX + "walker",
        STAGE_WALKER,
    ):
        assert counts[stage] > 0, stage
    # Packets that waited for a ring entry record a ring span of positive
    # width; packets admitted on arrival record a zero-width one.
    widths = [span.duration_ns for span in tracer.spans if span.stage == STAGE_RING]
    assert any(width > 0.0 for width in widths)
    assert any(width == 0.0 for width in widths)
    assert len({span.lane for span in tracer.spans}) > 2  # per-queue lanes
