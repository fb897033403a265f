"""Exact (bit-for-bit) reproduction check of every seeded golden.

Some golden *tests* compare within a 1e-6 relative tolerance; this script
holds the simulator to the stricter standard every speed-only change
promises: the serialised result records must be **exactly** equal to the
committed golden files, value for value.  Each file in ``tests/golden`` is
rebuilt by its entry in :data:`CHECKERS`; a file without one fails the
check, so no golden goes unchecked.  Run it after any change to the
simulator:

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
    elif old != new and not (old != old and new != new):  # NaN matches NaN
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


def microbench_record(golden: dict) -> dict:
    """The golden's micro-benchmarks on fresh and on shared hosts.

    ``run_all`` builds a fresh host per entry; one runner's ``run`` goes
    through the list in order on the hosts it shares between entries of
    one configuration.  The record ends with a digest of one latency run's
    raw samples.
    """
    from repro.bench.micro import run_micro_benchmark
    from repro.bench.params import BenchmarkParams
    from repro.bench.runner import BenchmarkRunner

    params_list = [BenchmarkParams.from_dict(params) for params in golden["params"]]
    shared = BenchmarkRunner()
    samples = run_micro_benchmark(
        BenchmarkParams.from_dict(golden["samples_params"]), keep_samples=True
    ).samples_ns
    encoded = json.dumps([float(value) for value in samples]).encode()
    return {
        "run_all": [
            result.as_dict() for result in BenchmarkRunner().run_all(params_list)
        ],
        "run": [shared.run(params).as_dict() for params in params_list],
        "samples_sha256": hashlib.sha256(encoded).hexdigest(),
    }


def nicsim_record(golden: dict) -> dict:
    from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark

    return run_nicsim_benchmark(NicSimParams.from_dict(golden["params"])).as_dict()


def fleet_record(golden: dict) -> dict:
    from repro.bench.fleet import FleetParams, run_fleet_benchmark

    return run_fleet_benchmark(FleetParams.from_dict(golden["params"])).as_dict()


def contention_record(golden: dict) -> dict:
    from repro.bench.contention import ContentionParams, run_contention_benchmark

    return run_contention_benchmark(
        ContentionParams.from_dict(golden["params"])
    ).as_dict()


def experiment_record(result) -> dict:
    """Every series point, table row and check of one experiment result."""
    return {
        "series": result.series,
        "table_rows": result.table_rows,
        "checks": [
            {
                "description": check.description,
                "passed": check.passed,
                "detail": check.detail,
            }
            for check in result.checks
        ],
    }


def experiments_record(golden: dict) -> dict:
    """The golden's experiments, run quick, keyed by experiment id."""
    from repro.experiments import run_experiment

    return {
        experiment_id: experiment_record(run_experiment(experiment_id, quick=True))
        for experiment_id in golden["experiments"]
    }


#: The checker of every file in ``tests/golden``, in the order they run.
CHECKERS = {
    "nicsim_seeded.json": nicsim_record,
    "nicsim_multiqueue_seeded.json": nicsim_record,
    "fleet_seeded.json": fleet_record,
    "contention_pair_iommu_seeded.json": contention_record,
    "contention_tree_sliced_control_seeded.json": contention_record,
    "contention_pair_wrr_control_seeded.json": contention_record,
    "trace_tree_sliced_seeded.json": traced_record,
    "trace_nicsim_multiqueue_seeded.json": traced_nicsim_record,
    "microbench_seeded.json": microbench_record,
    "experiments_solo_seeded.json": experiments_record,
    "experiments_contention_seeded.json": experiments_record,
    "experiments_micro_seeded.json": experiments_record,
}


def main() -> int:
    # A golden nobody checks pins nothing: every file needs a checker.
    unchecked = sorted(
        path.name for path in GOLDEN_DIR.iterdir() if path.name not in CHECKERS
    )
    for name in unchecked:
        print(f"{name}: UNCHECKED (no checker in CHECKERS)")
    ok = not unchecked
    for name, produce in CHECKERS.items():
        ok &= check(name, produce)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
