"""Exact (bit-for-bit) golden reproduction check for the event-core refactor.

The golden *tests* compare within a 1e-6 relative tolerance; this script
holds the simulator to the stricter standard the refactor promises: the
serialised result records must be **exactly** equal to the committed golden
files, value for value.  Run it after any change to the event core:

    PYTHONPATH=src python scripts/check_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def _diff(path: str, old: object, new: object, out: list[str]) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old:
                out.append(f"{path}.{key}: only in new")
            elif key not in new:
                out.append(f"{path}.{key}: only in golden")
            else:
                _diff(f"{path}.{key}", old[key], new[key], out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: length {len(old)} != {len(new)}")
        for index, (a, b) in enumerate(zip(old, new)):
            _diff(f"{path}[{index}]", a, b, out)
    elif old != new:
        out.append(f"{path}: golden {old!r} != new {new!r}")


def check(name: str, produce) -> bool:
    golden = json.loads((GOLDEN_DIR / name).read_text())
    fresh = produce(golden)
    # Round-trip through JSON so float repr and int/float typing match the
    # serialised form exactly, as a regenerated file would.
    fresh = json.loads(json.dumps(fresh))
    problems: list[str] = []
    _diff("$", golden["result"], fresh, problems)
    status = "OK (bit-identical)" if not problems else "MISMATCH"
    print(f"{name}: {status}")
    for line in problems[:20]:
        print(f"  {line}")
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    return not problems


def span_record(tracer) -> dict:
    """Per-stage span counts, recorded/evicted and a digest of the JSONL export."""
    lines = "\n".join(tracer.jsonl_lines()).encode()
    return {
        "stage_counts": dict(
            sorted(Counter(span.stage for span in tracer.spans).items())
        ),
        "recorded": tracer.recorded,
        "evicted": tracer.evicted,
        "jsonl_sha256": hashlib.sha256(lines).hexdigest(),
    }


def traced_record(golden: dict) -> dict:
    """Attribution, per-stage span counts and a digest of one traced run."""
    from repro.analysis import attribute_spans
    from repro.bench.contention import ContentionParams, run_contention_benchmark
    from repro.obs import Tracer

    tracer = Tracer(golden["tracer_capacity"])
    run_contention_benchmark(
        ContentionParams.from_dict(golden["params"]), tracer=tracer
    )
    return {"attribution": attribute_spans(tracer.spans), **span_record(tracer)}


def traced_nicsim_record(golden: dict) -> dict:
    """A traced, metrics-attached nicsim run plus a flat pair's metrics."""
    from repro.bench.contention import ContentionParams, run_contention_benchmark
    from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
    from repro.obs import MetricsRegistry, Tracer

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
    return {
        **span_record(tracer),
        "metrics": result.metrics,
        "pair_metrics": pair.metrics,
    }


def main() -> int:
    from repro.bench.contention import ContentionParams, run_contention_benchmark
    from repro.bench.fleet import FleetParams, run_fleet_benchmark
    from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark

    ok = True
    for name in ("nicsim_seeded.json", "nicsim_multiqueue_seeded.json"):
        ok &= check(
            name,
            lambda g: run_nicsim_benchmark(
                NicSimParams.from_dict(g["params"])
            ).as_dict(),
        )
    ok &= check(
        "fleet_seeded.json",
        lambda g: run_fleet_benchmark(
            FleetParams.from_dict(g["params"])
        ).as_dict(),
    )
    for name in (
        "contention_pair_iommu_seeded.json",
        "contention_tree_sliced_control_seeded.json",
        "contention_pair_wrr_control_seeded.json",
    ):
        ok &= check(
            name,
            lambda g: run_contention_benchmark(
                ContentionParams.from_dict(g["params"])
            ).as_dict(),
        )
    ok &= check("trace_tree_sliced_seeded.json", traced_record)
    ok &= check("trace_nicsim_multiqueue_seeded.json", traced_nicsim_record)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
