"""The benchmark's workload catalogue: fixed inputs, reasons, predictions.

Every workload is one seeded simulator run described entirely by the
public parameter records (:class:`~repro.bench.nicsim.NicSimParams`,
:class:`~repro.bench.contention.ContentionParams`).  The benchmark builds
those records from the workload seed and hands only them to the public
entry points ``run_nicsim_benchmark`` / ``run_contention_benchmark``.

``predictions`` is each workload's row of the prediction table: which
per-layer metric should move which end-to-end metric on this workload
(``"-"`` means "must not move").  The shares quoted are self-time shares
of the traced run (``python3 perfbench/run.py --trace 1``), measured on a
2-core x86 container with Python 3.11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.bench.contention import (
    FOUR_DEVICE_NAMES,
    ContentionParams,
    four_device_mix,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark

Params = Union[NicSimParams, ContentionParams]

#: Packets per direction of the solo workloads: eventcore's scenario
#: (``benchmarks/eventcore_smoke.py``) at ten times its length.
SOLO_PACKETS = 40_000

#: ``four_device_mix`` packet counts of the tree workload: a third of the
#: defaults, so one run takes ~1.3 s and a 20 s measurement holds ~15
#: runs while the threshold controller still retunes the fabric (9
#: actions at seed 7).
TREE_VICTIM_PACKETS = 200
TREE_AGGRESSOR_PACKETS = 1_600

TREE_TOPOLOGY = "victim=root,aggressor=sw0,bulk2=sw0,streamer=root,sw0=root"

#: ``engine_err`` on ``solo-imix-batch``: what the batch engine's
#: saturated-run tolerance contract (``sim.fastpath``: throughput 1%,
#: p50 3%, p99 8%) looks like on these inputs.  The p50 error exceeds the
#: documented 3% at every length above 4000 packets, the only saturated
#: length the equivalence tests pin.  The benchmark reports the number
#: and does not fail on it; the engine fix belongs to the simulator.
BATCH_P50_DEFECT = (
    "batch p50 error vs exact on solo-imix inputs, seed 7: 2.0% at 4000 "
    "packets, 6.1% at 10000, 3.0% at 20000, 5.5% at 40000 (documented "
    "tolerance 3%); p99 3.3-7.5% (tolerance 8%)"
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    build: Callable[[int], Params]
    predictions: tuple[tuple[str, str], ...]
    #: Calibration passes matching the workload's work
    #: (see :mod:`calibration`).
    calibration: tuple[str, ...]

    def params(self, seed: int) -> Params:
        """The run's full inputs for ``seed``."""
        return self.build(seed)


def run(params: Params, profile_sink: list):
    """Run ``params`` through its public bench entry point."""
    if isinstance(params, NicSimParams):
        return run_nicsim_benchmark(params, profile_sink=profile_sink)
    return run_contention_benchmark(params, profile_sink=profile_sink)


def _solo(mode: str) -> Callable[[int], Params]:
    def build(seed: int) -> NicSimParams:
        return NicSimParams(
            model="dpdk",
            workload="bursty-imix",
            offered_load_gbps=24.0,
            packets=SOLO_PACKETS,
            seed=seed,
            mode=mode,
        )

    return build


def _pair(seed: int) -> ContentionParams:
    return ContentionParams(
        devices=noisy_neighbour_pair(),
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter="fcfs",
        seed=seed,
    )


def _tree(seed: int) -> ContentionParams:
    return ContentionParams(
        devices=four_device_mix(
            victim_packets=TREE_VICTIM_PACKETS,
            aggressor_packets=TREE_AGGRESSOR_PACKETS,
        ),
        names=FOUR_DEVICE_NAMES,
        system="NFP6000-HSW",
        iommu_enabled=True,
        topology=TREE_TOPOLOGY,
        arbiter="sliced",
        weights=(8.0, 1.0, 1.0, 2.0),
        quantum_ns=16.0,
        ddio_partition=(1.0, 2.0, 1.0, 1.0),
        controller="threshold",
        control_window_ns=50_000.0,
        seed=seed,
    )


#: Layer metrics that must read zero calls on a host-uncoupled solo run.
_SOLO_IDLE = (
    ("host.access.calls", "- (0 calls: no host coupling)"),
    ("arb.topology.calls", "- (0 calls: one device, no arbiter)"),
    ("control.tick.calls", "- (0 calls: no controller)"),
)

#: What every workload shares: the modelled components a speed-only
#: change must leave exactly equal.
_MODEL_FIXED = (("model.*", "- (exactly equal after a speed-only change)"),)

#: "wall_s" below stands for both wall_s and pkts_per_s_cal: a layer
#: that saves wall time raises the calibrated packet rate.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="solo-imix",
            why=(
                "eventcore's dpdk bursty-imix 24 Gb/s run at 40000 packets, "
                "exact engine: wheel, datapath walk and links do the work; "
                "host, arbitration and control never run"
            ),
            build=_solo("exact"),
            calibration=("interpreter",),
            predictions=(
                ("engine.loop.self_s", "wall_s (81% of traced wall)"),
                ("engine.serial.self_s", "wall_s (8%)"),
                ("engine.stats_s", "wall_s (~5%)"),
                ("workloads.generate.self_s", "setup_s, wall_s (<1%)"),
                *_SOLO_IDLE,
                *_MODEL_FIXED,
            ),
        ),
        Workload(
            name="solo-imix-batch",
            why=(
                "solo-imix inputs on the batch engine, the only workload "
                "where sim.fastpath runs; engine_err shows accuracy traded "
                "for speed"
            ),
            build=_solo("batch"),
            calibration=("vector",),
            predictions=(
                ("fastpath.batch.self_s", "wall_s (99%: the whole run)"),
                ("fastpath.solve_s", "wall_s (~90%)"),
                ("engine_err", "- (accuracy, not speed; " + BATCH_P50_DEFECT + ")"),
                *_SOLO_IDLE,
                *_MODEL_FIXED,
            ),
        ),
        Workload(
            name="pair-iommu",
            why=(
                "noisy-neighbour pair on NFP6000-HSW, flat fcfs fabric, "
                "shared IOMMU (pcie-bench contend --iommu): host access and "
                "two-client arbitration dominate"
            ),
            build=_pair,
            calibration=("interpreter", "vector"),
            predictions=(
                ("host.rc.self_s", "wall_s (13%; host layer 41% in all)"),
                ("host.access.self_s", "wall_s (10%)"),
                ("host.noise.self_s", "wall_s (9%)"),
                ("host.iommu.self_s", "wall_s (4%)"),
                ("host.cache.self_s", "wall_s (4%)"),
                ("arb.resource.self_s", "wall_s (7%; arbitration 12% in all)"),
                ("arb.topology.self_s", "wall_s (5%)"),
                ("engine.loop.self_s", "wall_s (45%)"),
                ("control.tick.calls", "- (0 calls: static controller)"),
                *_MODEL_FIXED,
            ),
        ),
        Workload(
            name="tree-sliced-control",
            why=(
                "four devices on a switch tree, sliced 8:1:1:2 arbitration, "
                "DDIO partition, IOMMU and a threshold controller: multi-hop "
                "multi-client arbitration and control"
            ),
            build=_tree,
            calibration=("interpreter", "vector"),
            predictions=(
                ("arb.resource.self_s", "wall_s (10%; arbitration 19% in all)"),
                ("arb.topology.self_s", "wall_s (9%)"),
                ("host.rc.self_s", "wall_s (7%; host layer 22% in all)"),
                ("host.access.self_s", "wall_s (5%)"),
                ("engine.tags.self_s", "wall_s (1%)"),
                ("engine.loop.self_s", "wall_s (56%)"),
                ("stats.sketch.self_s", "wall_s (0.3%: controller windows)"),
                ("control.tick.self_s", "- (0.1% of wall: cannot move wall_s)"),
                *_MODEL_FIXED,
            ),
        ),
    )
}
