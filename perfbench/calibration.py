"""Machine-speed calibration: fixed workloads timed beside every run.

Raw host time drifts by up to 1.5x on a shared machine within minutes.
``pkts_per_s_cal`` cancels that drift by multiplying the packet rate by
the seconds a fixed calibration workload takes in the same process right
before and after the run.  Neither pass depends on the simulator, so a
change to the simulator cannot change the yardstick.

The drift does not slow all code alike: pure interpreter work slowed
~1.75x while vectorised numpy work slowed much less.  So there are two
passes, and each benchmark workload names the mix that matches its own
work (``catalogue.Workload.calibration``):

* ``interpreter`` -- a tiny two-link datapath on a binary-heap event
  queue: closures, slotted objects, float arithmetic and heap churn, the
  work of the scalar event loop;
* ``vector`` -- the same datapath solved as numpy columns: argsort,
  cumulative sums and max-plus scans over 40k-element arrays (the
  batch engine's column length on the solo workloads), its work.

Over 100 s series of back-to-back runs, the matching mix kept the spread
of 20 s medians of the calibrated rate at 3-5%, against 8-48% for raw
host time.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

import numpy as np

SIZES = (64, 576, 1500)


class _Link:
    __slots__ = ("free_at", "busy", "served")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy = 0.0
        self.served = 0

    def occupy(self, earliest: float, duration: float) -> float:
        start = max(self.free_at, earliest)
        self.free_at = start + duration
        self.busy += duration
        self.served += 1
        return start


def _interpreter_pass(packets: int = 6000) -> float:
    """Event-driven run (~30-55 ms); returns its median latency."""
    rng = random.Random(12345)
    events: list = []
    sequence = 0
    up, down = _Link(), _Link()
    latencies: list[float] = []

    def at(time: float, fn) -> None:
        nonlocal sequence
        sequence += 1
        heapq.heappush(events, (time, sequence, fn))

    def arrival(size: int, arrived: float):
        def issue(now: float) -> None:
            start = up.occupy(now, size * 0.01)

            def payload(now: float) -> None:
                served = down.occupy(now, 8.0 + size * 0.002)
                at(served + 400.0, lambda done: latencies.append(done - arrived))

            at(start + size * 0.01, payload)

        return issue

    now = 0.0
    for _ in range(packets):
        now += rng.expovariate(0.02)
        at(now, arrival(rng.choice(SIZES), now))
    while events:
        time, _, fn = heapq.heappop(events)
        fn(time)
    latencies.sort()
    return latencies[len(latencies) // 2]


def _serve(request: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """FIFO service start times of one link (a max-plus scan)."""
    order = np.argsort(request, kind="stable")
    before = np.cumsum(duration[order]) - duration[order]
    start = np.maximum.accumulate(request[order] - before) + before
    served = np.empty_like(start)
    served[order] = start
    return served


def _vector_pass(packets: int = 40_000, rounds: int = 4, sweeps: int = 6) -> float:
    """Column-wise relaxation of the same datapath (~45-55 ms)."""
    rng = np.random.default_rng(12345)
    for _ in range(rounds):
        arrivals = np.cumsum(rng.exponential(50.0, packets))
        sizes = rng.choice(np.array(SIZES, dtype=np.float64), packets)
        up, down = sizes * 0.01, 8.0 + sizes * 0.002
        issue = arrivals
        for _ in range(sweeps):
            payload = _serve(_serve(issue, up) + up, down)
            issue = np.maximum(arrivals, payload - 400.0)
    return float(np.median(payload + down - arrivals))


PASSES = {"interpreter": _interpreter_pass, "vector": _vector_pass}


def calibrate(passes: tuple[str, ...]) -> float:
    """Seconds the named calibration passes take right now."""
    start = perf_counter()
    for name in passes:
        PASSES[name]()
    return perf_counter() - start
