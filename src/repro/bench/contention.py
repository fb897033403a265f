"""Multi-device contention runs as a first-class benchmark.

A contention run is one :class:`~repro.sim.fabric.ContentionParams`
record (defined beside the :class:`~repro.sim.fabric.FabricSimulator`
that runs it and re-exported here): N per-device
:class:`~repro.sim.nicsim.NicSimParams` specifications plus the fabric
they contend on (host profile, shared IOMMU settings, arbitration scheme
and weights), which the :class:`~repro.bench.runner.BenchmarkRunner`
executes alongside the classic micro-benchmarks and the ``NICSIM`` kind.

Per-device specifications leave their host half empty (``system=None``):
the fabric owns the host, so a device spec only describes its traffic,
datapath knobs and buffer working set.
:meth:`~repro.sim.fabric.ContentionParams.solo_params` turns one device
spec back into a standalone host-coupled ``NICSIM`` run on a host of its
own with the fabric's settings — the record the simulator builds the
device from, and the baseline the victim/aggressor slowdown analysis
divides by.  A solo run builds that host as a one-device
:class:`~repro.sim.nichost.SharedHost`, the builder a fabric uses, so
it is bit-identical to a one-device contention run.
"""

from __future__ import annotations

from dataclasses import replace

# The record and its kind tag live beside the simulator that runs them;
# this module re-exports them.
from ..sim.fabric import (
    CONTENTION_KIND,
    ContentionParams,
    ContentionResult,
    FabricSimulator,
)
from ..sim.nicsim import NicSimParams
from ..units import KIB, MIB


def noisy_neighbour_pair(
    *,
    victim_packets: int = 600,
    aggressor_packets: int = 5000,
) -> tuple[NicSimParams, NicSimParams]:
    """The canonical (victim, aggressor) device pair of the §7 study.

    One definition shared by the CLI default, the suite scenarios and the
    ``figure-10-contention`` experiment, so the "stock pair" the docs
    describe cannot drift: a latency-sensitive DPDK victim (512 B fixed
    at 5 Gb/s, 64-deep rings, a 256 KiB warm window, 12 DMA tags — the
    bounded pool is what turns host stalls into lost throughput) against
    a bulk kernel-driver IMIX aggressor whose 64 MiB window blows through
    the IOTLB reach.  The aggressor needs roughly 8x the victim's packet
    count to stay saturating for the victim's whole measured window.
    """
    victim = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        offered_load_gbps=5.0,
        packets=victim_packets,
        ring_depth=64,
        payload_window=256 * KIB,
        dma_tags=12,
    )
    aggressor = NicSimParams(
        model="kernel",
        workload="imix",
        packets=aggressor_packets,
        payload_window=64 * MIB,
    )
    return victim, aggressor


def four_device_mix(
    *,
    victim_packets: int = 600,
    aggressor_packets: int = 5000,
) -> tuple[NicSimParams, NicSimParams, NicSimParams, NicSimParams]:
    """A four-device shared-host mix: the fabric beyond the canonical pair.

    The :func:`noisy_neighbour_pair` victim and bulk aggressor joined by
    two mid-rate neighbours — a second (smaller-window) IMIX bulk device
    and a steady 1024 B streamer — so suite scenarios and invariant grids
    exercise N > 2 devices: four upstream queues per arbiter, four
    address regions in the shared IOTLB, four-way cache pressure.
    """
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=victim_packets, aggressor_packets=aggressor_packets
    )
    bulk2 = NicSimParams(
        model="kernel",
        workload="imix",
        packets=max(1, aggressor_packets // 2),
        payload_window=16 * MIB,
    )
    streamer = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=1024,
        offered_load_gbps=10.0,
        packets=victim_packets,
        payload_window=1 * MIB,
    )
    return victim, aggressor, bulk2, streamer


#: Device labels of :func:`four_device_mix`, in order.
FOUR_DEVICE_NAMES = ("victim", "aggressor", "bulk2", "streamer")


def run_contention_benchmark(
    params: ContentionParams,
    *,
    profile_sink: list | None = None,
    tracer=None,
    metrics=None,
) -> ContentionResult:
    """Run one shared-host contention benchmark as described by ``params``.

    ``profile_sink`` (a caller-owned list) collects the run's
    :class:`~repro.sim.engine.EngineProfile` when provided — the hook
    behind the ``pcie-bench contend --profile`` flag.  When profiling is
    requested (via the sink or ``params.engine_profile``), the profile is
    also attached to the returned result so it serialises with it.

    ``tracer`` / ``metrics`` opt the run into the observability layer
    (:mod:`repro.obs`): a span :class:`~repro.obs.Tracer` threaded
    through every device's datapath and the fabric arbitration hops, and
    a :class:`~repro.obs.MetricsRegistry` sampled per control window and
    attached to the result as ``result.metrics``.
    """
    simulator = FabricSimulator(params)
    result = simulator.run(tracer=tracer, metrics=metrics)
    if profile_sink is not None:
        profile_sink.append(simulator.last_profile)
    if params.engine_profile or profile_sink is not None:
        result = replace(result, profile=simulator.last_profile)
    return result
