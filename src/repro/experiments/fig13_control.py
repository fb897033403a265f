"""Figure 13 (new): closed-loop control over the shared-host QoS knobs.

Figure 10 showed that *hand-tuned* QoS knobs (weighted arbitration, RSS
steering, DDIO shares) cure shared-host contention — but hand-tuning
presumes an operator who already knows which device is the victim and
which flow is the elephant.  This experiment closes the loop: the
:mod:`repro.control` runtime watches per-window streamed stats inside
the event loop and retunes the same knobs mid-run, with no workload
foreknowledge.  Two pathologies, three policies each:

* **Scenario A — noisy neighbour, weights knob.**  The figure-10 pair
  (latency-sensitive victim, bulk IMIX aggressor) on one IOMMU-enabled
  host, but with the ``wrr`` weights *mis*-tuned 1:16 in the
  aggressor's favour (yesterday's tuning for today's workload).  The
  reactive policies must notice the victim's wait-dominated windows and
  shift weight back, recovering most of the victim-p99 gap between the
  mis-tuned and hand-tuned (8:1) static configurations.
* **Scenario B — single hot flow, RSS knob.**  One multi-queue device
  whose flow population hides one elephant (75% of packets); the
  default identity indirection table lands it on a queue shared with
  mice, and that queue's backlog dominates p99.  The reactive policies
  must spot the hot-queue pathology from per-queue window counts and
  rewrite the indirection table to isolate the elephant, approaching
  the hand-tuned isolation table.

**The bar** (for both scenarios): the threshold policy recovers at
least half of the victim-p99 gap between the untuned-static and
hand-tuned-static runs — closed-loop control does most of the
operator's job.  The AIMD policy must at least improve on untuned.
"""

from __future__ import annotations

import numpy as np

from ..bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from ..bench.nicsim import NicSimParams
from ..control import steering_table_length
from ..sim.fabric import ContentionResult, FabricSimulator
from ..sim.rng import DEFAULT_SEED
from ..workloads import SingleHotFlow, rss_buckets
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-13-control"
TITLE = (
    "Closed-loop QoS control: reactive policies recover the hand-tuned "
    "victim tail without workload foreknowledge"
)

#: Shared host profile (scenario A needs the IOMMU on, like figure 10).
SYSTEM = "NFP6000-HSW"
#: Reactive policies under test (static is the untuned baseline).
REACTIVE_POLICIES = ("threshold", "aimd")
#: Scenario A: mis-tuned wrr weights (victim, aggressor) — the operator
#: tuned for a workload where the *other* device was latency-sensitive.
UNTUNED_WEIGHTS = (1.0, 16.0)
#: Scenario A: hand-tuned weights, the figure-10 cure.
HANDTUNED_WEIGHTS = (8.0, 1.0)
#: Scenario A control window: ~25 windows over the victim's run.
WINDOW_A_NS = 50_000.0
#: Scenario B: one elephant flow carrying 75% of packets among 64 flows.
HOT_FLOWS = 64
HOT_FRACTION = 0.75
#: Scenario B: 512 B fixed frames at 42 Gb/s — past the single-queue
#: knee (so the elephant's queue saturates) but below the shared-device
#: limit (so a balanced table drains comfortably).
HOT_SIZE = 512
HOT_LOAD_GBPS = 42.0
HOT_QUEUES = 2
HOT_RING_DEPTH = 32
#: Scenario B control window: shorter run, tighter loop.
WINDOW_B_NS = 20_000.0
#: Recovery floor: reactive policies must close >= 50% of the
#: untuned-to-hand-tuned victim-p99 gap.
RECOVERY_FLOOR = 0.5


def _params_a(
    quick: bool,
    *,
    weights: tuple[float, float],
    controller: str = "static",
) -> ContentionParams:
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=600 if quick else 1200,
        aggressor_packets=5000 if quick else 10000,
    )
    return ContentionParams(
        devices=(victim, aggressor),
        names=("victim", "aggressor"),
        system=SYSTEM,
        iommu_enabled=True,
        arbiter="wrr",
        weights=weights,
        controller=controller,
        control_window_ns=WINDOW_A_NS if controller != "static" else None,
    )


def handtuned_hot_table(num_queues: int, *, seed: int) -> tuple[int, ...]:
    """The operator's isolation table for the single-elephant workload.

    Pins the elephant's indirection bucket to its own queue and
    round-robins every other bucket over the remaining queues — the
    standard "give the heavy hitter a dedicated queue" mitigation.
    """
    length = steering_table_length(num_queues)
    elephant_bucket = int(
        rss_buckets(np.asarray([0]), length, seed=seed)[0]
    )
    hot_queue = elephant_bucket % num_queues
    cool = [queue for queue in range(num_queues) if queue != hot_queue]
    table = []
    spin = 0
    for bucket in range(length):
        if bucket == elephant_bucket:
            table.append(hot_queue)
        else:
            table.append(cool[spin % len(cool)])
            spin += 1
    return tuple(table)


def _run_b(
    quick: bool,
    *,
    rss_table: tuple[int, ...] | None = None,
    controller: str = "static",
) -> ContentionResult:
    device = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=HOT_SIZE,
        offered_load_gbps=HOT_LOAD_GBPS,
        packets=3000 if quick else 6000,
        ring_depth=HOT_RING_DEPTH,
        num_queues=HOT_QUEUES,
        rss_table=rss_table,
    )
    params = ContentionParams(
        devices=(device,),
        system=SYSTEM,
        controller=controller,
        control_window_ns=WINDOW_B_NS if controller != "static" else None,
    )
    # No record names a single elephant among mice: the device's own
    # fixed-size traffic gets the hot-flow population.
    workload = device.build_workload().with_(
        flows=SingleHotFlow(flows=HOT_FLOWS, hot_fraction=HOT_FRACTION)
    )
    return FabricSimulator(params, workloads=(workload,)).run()


def _victim_p99(result: ContentionResult, name: str) -> float:
    device = result.device(name).result
    assert device.tx.latency is not None
    return device.tx.latency.p99


def _recovery(untuned: float, handtuned: float, reactive: float) -> float:
    """Fraction of the untuned-to-hand-tuned p99 gap the policy closed."""
    gap = untuned - handtuned
    if gap <= 0:
        return 0.0
    return (untuned - reactive) / gap


def run(quick: bool = True) -> ExperimentResult:
    """Run both pathologies under static/threshold/aimd; check recovery."""
    # Scenario A: mis-tuned vs hand-tuned weights, then the reactive
    # policies starting from the mis-tuned weights.
    a_untuned = run_contention_benchmark(
        _params_a(quick, weights=UNTUNED_WEIGHTS)
    )
    a_handtuned = run_contention_benchmark(
        _params_a(quick, weights=HANDTUNED_WEIGHTS)
    )
    a_reactive = {
        policy: run_contention_benchmark(
            _params_a(quick, weights=UNTUNED_WEIGHTS, controller=policy)
        )
        for policy in REACTIVE_POLICIES
    }
    a_p99 = {
        "untuned": _victim_p99(a_untuned, "victim"),
        "handtuned": _victim_p99(a_handtuned, "victim"),
        **{
            policy: _victim_p99(result, "victim")
            for policy, result in a_reactive.items()
        },
    }

    # Scenario B: identity vs isolation indirection table, then the
    # reactive policies starting from the identity table.
    hot_table = handtuned_hot_table(HOT_QUEUES, seed=DEFAULT_SEED)
    b_untuned = _run_b(quick)
    b_handtuned = _run_b(quick, rss_table=hot_table)
    b_reactive = {
        policy: _run_b(quick, controller=policy)
        for policy in REACTIVE_POLICIES
    }
    name_b = b_untuned.devices[0].name
    b_p99 = {
        "untuned": _victim_p99(b_untuned, name_b),
        "handtuned": _victim_p99(b_handtuned, name_b),
        **{
            policy: _victim_p99(result, name_b)
            for policy, result in b_reactive.items()
        },
    }

    recovery = {
        ("A", policy): _recovery(
            a_p99["untuned"], a_p99["handtuned"], a_p99[policy]
        )
        for policy in REACTIVE_POLICIES
    }
    recovery.update(
        {
            ("B", policy): _recovery(
                b_p99["untuned"], b_p99["handtuned"], b_p99[policy]
            )
            for policy in REACTIVE_POLICIES
        }
    )

    checks = [
        Check(
            "Scenario A has a gap worth closing: mis-tuned wrr weights "
            "(1:16) at least double the victim's TX p99 vs hand-tuned (8:1)",
            a_p99["untuned"] >= 2.0 * a_p99["handtuned"],
            f"p99 {a_p99['untuned']:.0f} ns mis-tuned vs "
            f"{a_p99['handtuned']:.0f} ns hand-tuned",
        ),
        Check(
            "Scenario B has a gap worth closing: the identity indirection "
            "table costs the hot-flow device >= 1.5x the isolation table's p99",
            b_p99["untuned"] >= 1.5 * b_p99["handtuned"],
            f"p99 {b_p99['untuned']:.0f} ns identity vs "
            f"{b_p99['handtuned']:.0f} ns isolated",
        ),
        Check(
            "Threshold control recovers >= 50% of the victim-p99 gap in "
            "scenario A (weights knob, no workload foreknowledge)",
            recovery[("A", "threshold")] >= RECOVERY_FLOOR,
            f"recovered {recovery[('A', 'threshold')] * 100:.0f}% "
            f"(p99 {a_p99['threshold']:.0f} ns)",
        ),
        Check(
            "Threshold control recovers >= 50% of the victim-p99 gap in "
            "scenario B (RSS knob, hot flow never named)",
            recovery[("B", "threshold")] >= RECOVERY_FLOOR,
            f"recovered {recovery[('B', 'threshold')] * 100:.0f}% "
            f"(p99 {b_p99['threshold']:.0f} ns)",
        ),
        Check(
            "AIMD control improves on untuned in both scenarios "
            "(gentler ramp, same direction)",
            a_p99["aimd"] < a_p99["untuned"]
            and b_p99["aimd"] < b_p99["untuned"],
            f"A: {a_p99['untuned']:.0f} -> {a_p99['aimd']:.0f} ns "
            f"({recovery[('A', 'aimd')] * 100:.0f}%), "
            f"B: {b_p99['untuned']:.0f} -> {b_p99['aimd']:.0f} ns "
            f"({recovery[('B', 'aimd')] * 100:.0f}%)",
        ),
        Check(
            "The reactive runs actually actuated: every threshold/aimd "
            "run carries a non-empty control-action log",
            all(
                len(result.control_actions) > 0
                for result in (*a_reactive.values(), *b_reactive.values())
            ),
            ", ".join(
                f"{scenario}/{policy}: {len(result.control_actions)}"
                for scenario, runs in (("A", a_reactive), ("B", b_reactive))
                for policy, result in runs.items()
            ),
        ),
        Check(
            "The untuned baselines never actuated: static runs carry no "
            "controller state at all",
            all(
                result.controller == "static" and not result.control_actions
                for result in (a_untuned, a_handtuned, b_untuned, b_handtuned)
            ),
            "4/4 static runs clean",
        ),
    ]

    table_rows = []
    for scenario, p99s in (("A: aggressor", a_p99), ("B: hot flow", b_p99)):
        for config in ("untuned", "handtuned", *REACTIVE_POLICIES):
            key = (scenario[0], config)
            table_rows.append(
                [
                    f"{scenario}, {config}",
                    p99s[config],
                    f"{recovery[key] * 100:.0f}%" if key in recovery else "-",
                ]
            )

    actions_note = ", ".join(
        f"{scenario}/{policy}: {len(result.control_actions)} action(s)"
        for scenario, runs in (("A", a_reactive), ("B", b_reactive))
        for policy, result in runs.items()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        table_headers=["scenario, config", "victim TX p99 (ns)", "gap recovered"],
        table_rows=table_rows,
        checks=checks,
        notes=[
            "recovery = (p99_untuned - p99_reactive) / "
            "(p99_untuned - p99_handtuned)",
            f"control windows: A {WINDOW_A_NS / 1000:g} us, "
            f"B {WINDOW_B_NS / 1000:g} us",
            f"actions: {actions_note}",
        ],
    )
