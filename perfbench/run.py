"""The simulator's benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pair-iommu [--seed 7] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --describe     # inputs, reasons, predictions
    python3 perfbench/run.py --spec         # the BENCHMARK.json these tables define

One process, one thread, a closed loop: each simulator run starts when the
previous one returns.  A run is set up (package import timed in fresh
interpreters, one untimed warm-up run whose record every later run must
reproduce), then measured for ``--seconds``:

* ``--trace 0`` times untraced runs and reports the end-to-end metrics;
* ``--trace 1`` alternates untraced and traced runs (:mod:`layers` wraps
  each layer's public functions) and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no simulator sources under {SRC}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from calibration import calibrate  # noqa: E402
from catalogue import WORKLOADS, run  # noqa: E402
from layers import LAYER_NAMES, LayerTrace  # noqa: E402
from repro.sim.engine import EngineProfile  # noqa: E402

RUN_SECONDS = 20
DEFAULT_SEED = 7

#: Fresh-interpreter imports timed per benchmark run; ``setup_s`` uses
#: their median.
SETUP_REPEATS = 7

#: ``setup_s`` is in reference seconds: measured set-up seconds times
#: this over the interpreter calibration pass timed around the imports
#: (about its median on the 2-core x86 container the benchmark was tuned
#: on).  Raw set-up medians moved by up to 1.48x between rounds of ten
#: runs 20-60 minutes apart; scaled, the two halves of a 7-minute series of
#: import timings agreed within 5% where raw ones differed by 24%.
REFERENCE_CALIBRATION_S = 0.045

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import repro.bench.contention, repro.bench.nicsim\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: End-to-end metrics with a regression bound: the ``--trace 0`` result.
END_TO_END = (
    Metric("pkts_per_s_cal", "pkt/cal", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
)

FAIL_RATIO = Metric("fail_ratio", "ratio", "lower")

#: End-to-end numbers printed beside them without a bound.  Raw host time
#: drifts up to 1.5x within minutes on a shared machine: over five seeds
#: the quartile spread of ``wall_s`` reached 0.32 of its median, more
#: than any bound may be.  ``fail_ratio`` is 0 on a passing run and
#: ``engine_err`` is 0 by definition on exact-engine workloads.
UNBOUNDED = (
    Metric("wall_s", "s", "lower"),
    Metric("pkts_per_s", "pkt/s", "higher"),
    Metric("setup_raw_s", "s", "lower"),
    FAIL_RATIO,
    Metric("engine_err", "ratio", "lower"),
)

PER_LAYER = (
    *(
        Metric(f"{layer}.{kind}", unit, "lower")
        for layer in LAYER_NAMES
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ),
    Metric("engine.events", "count", "lower"),
    Metric("engine.events_per_s", "1/s", "higher"),
    Metric("engine.build_s", "s", "lower"),
    Metric("engine.events_s", "s", "lower"),
    Metric("engine.stats_s", "s", "lower"),
    Metric("fastpath.solve_s", "s", "lower"),
    Metric("model.host_accesses", "count", "lower"),
    Metric("model.iotlb_misses", "count", "lower"),
    Metric("model.payload_hit_ratio", "ratio", "higher"),
    Metric("model.walker_wait_ns_mean", "ns", "lower"),
    Metric("model.ingress_wait_ns_mean", "ns", "lower"),
    Metric("model.tag_wait_ns_mean", "ns", "lower"),
    Metric("model.drops", "count", "lower"),
    Metric("model.control_actions", "count", "lower"),
    Metric("engine_err", "ratio", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
)


@dataclass(frozen=True)
class Sample:
    """One measured simulator run.

    ``calibration_s`` is the mean of the calibration passes timed just
    before and just after the run.
    """

    wall_s: float
    calibration_s: float
    profile: EngineProfile
    problems: list[str]


def import_seconds() -> float:
    """Package import time in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def setup_scale() -> tuple[float, float]:
    """Median fresh-interpreter import seconds, and the reference scale."""
    before = calibrate(("interpreter",))
    import_s = median(import_seconds() for _ in range(SETUP_REPEATS))
    after = calibrate(("interpreter",))
    return import_s, REFERENCE_CALIBRATION_S * 2 / (before + after)


class Runner:
    """Times back-to-back runs of one workload, calibrating between them."""

    def __init__(self, params, check, passes: tuple[str, ...]) -> None:
        self.params = params
        self.check = check
        self.passes = passes
        gc.collect()
        self.calibration_s = calibrate(passes)

    def measure(self, trace: LayerTrace | None = None) -> Sample:
        """Time one run (traced if ``trace``) and check its result."""
        sink: list[EngineProfile] = []
        with trace or nullcontext():
            start = perf_counter()
            result = run(self.params, sink)
            wall_s = perf_counter() - start
        problems = self.check(result, sink[0])
        del result
        gc.collect()
        before, self.calibration_s = self.calibration_s, calibrate(self.passes)
        return Sample(
            wall_s, (before + self.calibration_s) / 2, sink[0], problems
        )


def median(values) -> float:
    return statistics.median(list(values))


def spec() -> dict:
    """The ``BENCHMARK.json`` record these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def describe() -> list[dict]:
    """Each workload's inputs (at the default seed), reason and predictions."""
    return [
        {
            "name": workload.name,
            "why": workload.why,
            "inputs": workload.params(DEFAULT_SEED).as_dict(),
            "predictions": dict(workload.predictions),
        }
        for workload in WORKLOADS.values()
    ]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if not (args.spec or args.describe or args.workload):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(samples: list[Sample], packets: int, setup_s: float) -> dict:
    return {
        "wall_s": median(s.wall_s for s in samples),
        "pkts_per_s": median(packets / s.wall_s for s in samples),
        "pkts_per_s_cal": median(
            packets / s.wall_s * s.calibration_s for s in samples
        ),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(
    plain: list[Sample], traced: list[tuple[Sample, LayerTrace]]
) -> dict:
    profiles = [s.profile for s in plain]
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = traced[0][1].calls[layer]
        metrics[f"{layer}.self_s"] = median(t.self_s[layer] for _, t in traced)
    metrics.update(
        {
            "engine.events": profiles[0].events,
            "engine.events_per_s": median(p.events_per_sec for p in profiles),
            "engine.build_s": median(p.build_s for p in profiles),
            "engine.events_s": median(p.events_s for p in profiles),
            "engine.stats_s": median(p.stats_s for p in profiles),
            "fastpath.solve_s": median(p.solve_s for p in profiles),
            "trace.overhead": median(s.wall_s for s, _ in traced)
            / median(s.wall_s for s in plain),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.spec or args.describe:
        print(json.dumps(spec() if args.spec else describe(), indent=2))
        return 0
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)

    # -- set-up: imports, the untimed warm-up run, the exact reference ------
    import_s, scale = setup_scale()
    sink: list[EngineProfile] = []
    reference = run(params, sink)
    warmup = sink[0]
    exact = None
    engine_err = 0.0
    if params.mode != "exact":
        exact = run(params.with_(mode="exact"), [])
        engine_err = checks.engine_error(reference, exact)

    reference_digest = checks.digest(reference)

    def check(result, profile: EngineProfile) -> list[str]:
        return checks.run_problems(
            result,
            profile,
            requested_mode=params.mode,
            reference_digest=reference_digest,
            exact_reference=exact,
        )

    problems = [check(reference, warmup)]

    # -- measurement: a closed loop for --seconds ----------------------------
    runner = Runner(params, check, workload.calibration)
    deadline = perf_counter() + args.seconds
    if args.trace:
        plain: list[Sample] = []
        traced: list[tuple[Sample, LayerTrace]] = []
        while not traced or perf_counter() < deadline:
            plain.append(runner.measure())
            trace = LayerTrace()
            sample = runner.measure(trace)
            if traced and trace.calls != traced[0][1].calls:
                sample.problems.append("layer call counts differ between runs")
            traced.append((sample, trace))
        samples = plain + [s for s, _ in traced]
        metrics = per_layer(plain, traced)
        metrics.update(checks.model_metrics(reference))
        table, shown = PER_LAYER, PER_LAYER + (FAIL_RATIO,)
    else:
        samples = []
        while not samples or perf_counter() < deadline:
            samples.append(runner.measure())
        metrics = end_to_end(
            samples,
            checks.offered_packets(reference),
            (import_s + warmup.build_s) * scale,
        )
        metrics["setup_raw_s"] = import_s + warmup.build_s
        table, shown = END_TO_END, UNBOUNDED + END_TO_END
    problems += [s.problems for s in samples]
    failed = sum(1 for found in problems if found)
    metrics["fail_ratio"] = failed / len(problems)
    metrics["engine_err"] = engine_err

    print(
        f"workload {workload.name}  seed {args.seed}  engine {params.mode}  "
        f"runs {len(samples)}  digest {reference_digest[:16]}  calibration "
        f"{median(s.calibration_s for s in samples) * 1e3:.1f} ms"
    )
    for index, found in enumerate(problems):
        for problem in found:
            print(f"FAIL check {index}: {problem}")
    for metric in shown:
        print(f"{metric.name:<30} {metrics[metric.name]:.6g} {metric.unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(problems),
                "failed": failed,
                "metrics": {
                    metric.name: {"value": metrics[metric.name], "unit": metric.unit}
                    for metric in table
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
