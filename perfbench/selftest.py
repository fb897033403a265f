"""Self-tests of the benchmark's tracer and checks.

Usage (from the repository root; ~20 s)::

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.  The checks:

* on every workload, two untraced runs and one traced run produce the
  same result digest (wrapping a layer changes no simulated statistic);
* on ``pair-iommu`` at seed 7, ``host.access.calls`` equals the result's
  summed ``host.accesses`` (830 victim + 10067 aggressor = 10897);
* on both solo workloads every ``host.*``, ``arb.*`` and ``control.*``
  call count is 0;
* a run that raises inside a traced layer leaves every wrapped function
  restored and the nesting stack empty.
"""

from __future__ import annotations

import sys

import run  # noqa: F401  (puts the simulator sources on sys.path)
from catalogue import WORKLOADS
from catalogue import run as simulate
from checks import devices, digest
from layers import LAYER_NAMES, LayerTrace, current_functions
from repro.sim.engine import EventLoop

SEED = 7
PAIR_HOST_ACCESSES = 10_897
IDLE_ON_SOLO = tuple(
    layer for layer in LAYER_NAMES if layer.startswith(("host.", "arb.", "control."))
)

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def traced_run(name: str) -> tuple[object, LayerTrace]:
    """Run ``name`` twice untraced and once traced; check the digests."""
    params = WORKLOADS[name].params(SEED)
    first, second = simulate(params, []), simulate(params, [])
    with LayerTrace() as trace:
        traced = simulate(params, [])
    expect(
        digest(first) == digest(second) == digest(traced),
        f"{name}: repeated and traced runs share one digest",
    )
    return traced, trace


def check_workloads() -> None:
    for name in WORKLOADS:
        result, trace = traced_run(name)
        if name == "pair-iommu":
            accesses = sum(nic.host.accesses for _, nic in devices(result))
            expect(
                trace.calls["host.access"] == accesses == PAIR_HOST_ACCESSES,
                f"{name}: host.access.calls {trace.calls['host.access']} == "
                f"summed host.accesses {accesses} == {PAIR_HOST_ACCESSES}",
            )
        if name.startswith("solo-"):
            busy = {layer: trace.calls[layer] for layer in IDLE_ON_SOLO}
            expect(
                not any(busy.values()),
                f"{name}: host/arb/control layers never called ({busy})",
            )


def check_restored_after_raise() -> None:
    before = current_functions()
    loop = EventLoop()
    loop.at(0.0, lambda now: 1 / 0)
    trace = LayerTrace()
    try:
        with trace:
            loop.run()
    except ZeroDivisionError:
        pass
    after = current_functions()
    expect(
        len(before) == len(after)
        and all(a[2] is b[2] for a, b in zip(before, after)),
        f"all {len(before)} wrapped functions restored after a raising run",
    )
    expect(
        trace.calls["engine.loop"] == 1 and not trace._stack,
        "the raising call was counted and the nesting stack unwound",
    )


def main() -> int:
    check_workloads()
    check_restored_after_raise()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
