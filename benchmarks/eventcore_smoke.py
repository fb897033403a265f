"""Event-core perf smoke: gate the engines' throughput against a baseline.

Runs the profiled IMIX bursty scenario (the canonical hot-path workload:
``dpdk`` model, ``bursty-imix`` at 24 Gb/s, 4000 packets per direction,
seed 7 — the exact scenario the event-core rework was measured on) once
per engine mode and writes ``BENCH_eventcore.json`` with one entry per
mode (achieved events/sec, wall time per phase, peak RSS).

Wall-clock throughput is not comparable across machines, so the exact
engine's gate is **calibrated**: a fixed pure-Python busy loop is timed
on the same machine, and the score compared across runs is
``events_per_sec / calibration_ops_per_sec`` — events retired per
calibration op, a machine-speed-normalised measure of how much work the
engine does per unit of interpreter throughput.  The run fails (exit 1)
when that normalised score regresses more than ``REGRESSION_BUDGET``
below the committed baseline.

The batch engine's gate needs no calibration at all: exact and batch run
back to back in the same process, so their **total wall-time ratio** is
machine-independent.  Batch must finish the scenario at least
``BATCH_SPEEDUP_FLOOR``x faster end to end than the exact engine did in
the same invocation.

Usage::

    PYTHONPATH=src python benchmarks/eventcore_smoke.py              # gate
    PYTHONPATH=src python benchmarks/eventcore_smoke.py --mode exact,batch
    PYTHONPATH=src python benchmarks/eventcore_smoke.py --rebaseline
"""

from __future__ import annotations

import heapq
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.engine import MODES  # noqa: E402
from repro.sim.nicsim import NicDatapathSimulator, NicSimParams  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_eventcore.json"

#: Fail when the exact engine's calibrated score drops more than this
#: below baseline.
REGRESSION_BUDGET = 0.30

#: Fail when batch is not at least this much faster (total wall time)
#: than the exact engine measured in the same invocation.
BATCH_SPEEDUP_FLOOR = 3.0

#: The scenario under test — keep in lockstep with the README table.
MODEL = "dpdk"
WORKLOAD = "bursty-imix"
LOAD_GBPS = 24.0
PACKETS = 4000
SEED = 7
ROUNDS = 5

#: Iterations of the calibration busy loop (a mix of float arithmetic,
#: lambda dispatch and heap churn — the same interpreter operations the
#: event loop spends its time on).
CALIBRATION_OPS = 200_000


def calibrate() -> float:
    """Interpreter speed score: calibration ops per second (best of 3)."""

    def burn() -> float:
        heap: list[float] = []
        acc = 0.0
        push, pop = heapq.heappush, heapq.heappop
        for i in range(CALIBRATION_OPS):
            acc += (lambda x: x * 1.0000001)(float(i))
            if i & 7 == 0:
                push(heap, acc)
            if i & 63 == 0 and heap:
                acc -= pop(heap)
        return acc

    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        burn()
        best = min(best, perf_counter() - start)
    return CALIBRATION_OPS / best


def measure(mode: str) -> dict[str, float | int | str]:
    """Warm up once, then take the best-of-ROUNDS profiled run of ``mode``.

    Best-of selects on **total** wall time (build + events + stats): the
    batch engine moves work out of the event phase into array build and
    vectorised statistics, so only the end-to-end time compares engines
    fairly.
    """
    simulator = NicDatapathSimulator(
        NicSimParams(
            model=MODEL,
            workload=WORKLOAD,
            offered_load_gbps=LOAD_GBPS,
            packets=PACKETS,
            seed=SEED,
            mode=mode,
        )
    )
    simulator.run()  # warm caches
    best = None
    for _ in range(ROUNDS):
        simulator.run()
        profile = simulator.last_profile
        assert profile is not None
        if best is None or profile.total_s < best.total_s:
            best = profile
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mode": best.mode,
        "events": best.events,
        "events_wall_s": best.events_s,
        "events_per_sec": best.events_per_sec,
        "total_wall_s": best.total_s,
        "solve_wall_s": best.solve_s,
        "peak_rss_kib": peak_rss_kib,
    }


def main(argv: list[str]) -> int:
    rebaseline = "--rebaseline" in argv
    modes = list(MODES)
    for index, arg in enumerate(argv):
        if arg == "--mode":
            modes = [m.strip() for m in argv[index + 1].split(",") if m.strip()]
        elif arg.startswith("--mode="):
            modes = [
                m.strip()
                for m in arg.split("=", 1)[1].split(",")
                if m.strip()
            ]
    unknown = [m for m in modes if m not in MODES]
    if unknown:
        print(f"unknown mode(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    record = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    calibration = calibrate()
    measured: dict[str, dict] = {}
    for mode in modes:
        current = measure(mode)
        current["calibration_ops_per_sec"] = calibration
        current["calibrated_score"] = (
            current["events_per_sec"] / calibration
        )
        measured[mode] = current
        print(
            f"{mode}: {current['events']} events in "
            f"{current['events_wall_s'] * 1e3:.1f} ms, total "
            f"{current['total_wall_s'] * 1e3:.1f} ms "
            f"({current['events_per_sec']:,.0f} events/s), "
            f"peak RSS {current['peak_rss_kib'] / 1024:.0f} MiB"
        )

    record["scenario"] = {
        "model": MODEL,
        "workload": WORKLOAD,
        "load_gbps": LOAD_GBPS,
        "packets": PACKETS,
        "seed": SEED,
        "rounds": ROUNDS,
    }
    record.setdefault("modes", {}).update(measured)
    exit_code = 0

    # -- exact: calibrated regression gate ---------------------------------
    if "exact" in measured:
        current = measured["exact"]
        score = current["calibrated_score"]
        print(
            f"calibration: {calibration:,.0f} ops/s -> exact score "
            f"{score:.4f} events per calibration op"
        )
        record["current"] = current
        baseline = record.get("baseline")
        if rebaseline or baseline is None:
            record["baseline"] = dict(current)
            print("baseline " + ("rewritten" if baseline else "recorded"))
            baseline = record["baseline"]
        floor = baseline["calibrated_score"] * (1.0 - REGRESSION_BUDGET)
        ratio = score / baseline["calibrated_score"]
        print(
            f"exact vs baseline: {ratio:.2f}x "
            f"(floor {1.0 - REGRESSION_BUDGET:.0%} of baseline)"
        )
        if score < floor:
            print(
                f"FAIL: calibrated score {score:.4f} regressed more than "
                f"{REGRESSION_BUDGET:.0%} below the baseline "
                f"{baseline['calibrated_score']:.4f}",
                file=sys.stderr,
            )
            exit_code = 1

    # -- batch: same-invocation speedup gate --------------------------------
    if "batch" in measured:
        if "exact" in measured:
            speedup = (
                measured["exact"]["total_wall_s"]
                / measured["batch"]["total_wall_s"]
            )
            record["batch_speedup"] = speedup
            print(
                f"batch vs exact: {speedup:.2f}x total wall time "
                f"(floor {BATCH_SPEEDUP_FLOOR:.1f}x)"
            )
            if speedup < BATCH_SPEEDUP_FLOOR:
                print(
                    f"FAIL: batch engine is only {speedup:.2f}x faster "
                    f"than exact (needs >= {BATCH_SPEEDUP_FLOOR:.1f}x)",
                    file=sys.stderr,
                )
                exit_code = 1
        else:
            print(
                "batch speedup gate skipped: no exact measurement in "
                "this invocation (run with --mode exact,batch)"
            )

    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {RESULT_PATH}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
