"""Invariant harness for shared-host contention runs (repro.sim.fabric).

Property-style tests over a grid of (device mix, arbiter, workloads,
seeds) asserting the laws any multi-device run must obey:

* per-device packet conservation: offered = delivered + dropped +
  in-flight, per direction and per device, against independently
  regenerated schedules;
* per-device byte conservation: offered bytes match the schedule, and
  delivered + dropped bytes never exceed them;
* arbitration sanity: every device's counters are self-consistent
  (waited <= requests, non-negative waits, busy time conserved across
  devices on each shared resource);
* solo equivalence: a one-device fabric run equals the checked-in
  single-device golden record bit for bit, whatever arbiter is named.

The ``CONTENTION_ARBITER`` environment variable pins the scheme choices
(e.g. ``CONTENTION_ARBITER=sliced``) and ``CONTENTION_TOPOLOGY`` the
fabric shape (``flat`` or ``tree``), so a CI matrix can run the same grid
once per (scheme, topology) combination.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.bench.nicsim import NicSimParams
from repro.errors import ValidationError
from repro.sim import fabric as fabric_module
from repro.sim.engine import WEIGHTED_SCHEMES
from repro.sim.fabric import (
    ContentionParams,
    ContentionResult,
    FabricSimulator,
)
from repro.sim.topology import CompiledTopology
from repro.sim.rng import SimRng
from repro.units import KIB, MIB

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "nicsim_seeded.json"

_ARBITER_ENV = os.environ.get("CONTENTION_ARBITER")
#: Arbitration schemes the grid samples; a CI matrix pins one.
ARBITER_CHOICES = (
    (_ARBITER_ENV,) if _ARBITER_ENV else ("fcfs", "rr", "wrr", "age", "sliced")
)

_TOPOLOGY_ENV = os.environ.get("CONTENTION_TOPOLOGY")
#: Fabric shapes the grid samples; a CI matrix pins one.
TOPOLOGY_CHOICES = (_TOPOLOGY_ENV,) if _TOPOLOGY_ENV else ("flat", "tree")

WORKLOADS = ("fixed", "imix", "bursty")

#: Switch trees per device count: the victim on its own root port, the
#: bulk devices behind shared switches.
TREE_SPECS = {
    2: "victim=root,aggressor=sw0,sw0=root",
    4: (
        "victim=root,aggressor=sw0,bulk2=sw0,"
        "streamer=sw1,sw0=root,sw1=root"
    ),
}


#: Device labels, in order, of a two- and a four-device grid point.
DEVICE_NAMES = ("victim", "aggressor", "bulk2", "streamer")


def _build_devices(
    victim_workload: str,
    aggressor_workload: str,
    packets: int,
    device_count: int,
) -> list[NicSimParams]:
    victim = NicSimParams(
        model="dpdk",
        workload=victim_workload,
        packet_size=512,
        offered_load_gbps=6.0,
        packets=packets,
        ring_depth=64,
        payload_window=256 * KIB,
        dma_tags=12,
    )
    aggressor = NicSimParams(
        model="kernel",
        workload=aggressor_workload,
        packets=3 * packets,
        payload_window=16 * MIB,
    )
    devices = [victim, aggressor]
    if device_count == 4:
        devices.append(
            NicSimParams(
                model="kernel",
                workload="imix",
                packets=2 * packets,
                payload_window=8 * MIB,
            )
        )
        devices.append(
            NicSimParams(
                model="dpdk",
                workload="fixed",
                packet_size=1024,
                offered_load_gbps=4.0,
                packets=packets,
                payload_window=1 * MIB,
            )
        )
    return devices


def _run(
    victim_workload: str,
    aggressor_workload: str,
    arbiter: str,
    topology: str,
    packets: int,
    seed: int,
    device_count: int = 2,
) -> tuple[list[NicSimParams], ContentionResult]:
    devices, result, _ = _run_capturing(
        victim_workload,
        aggressor_workload,
        arbiter,
        topology,
        packets,
        seed,
        device_count,
    )
    return devices, result


def _run_capturing(
    victim_workload: str,
    aggressor_workload: str,
    arbiter: str,
    topology: str,
    packets: int,
    seed: int,
    device_count: int = 2,
) -> tuple[list[NicSimParams], ContentionResult, dict[str, CompiledTopology]]:
    """Run the grid point and also return the fabric's compiled resources.

    The compiled topologies (one per shared resource, keyed by name) are
    captured by wrapping the fabric's ``compile_topology``; they expose the
    live arbiters, whose ``busy_until`` is the resource's last service end.
    """
    devices = _build_devices(
        victim_workload, aggressor_workload, packets, device_count
    )
    weights = None
    if arbiter in WEIGHTED_SCHEMES:
        weights = (4.0, 1.0) + (1.0,) * (device_count - 2)
    params = ContentionParams(
        devices=devices,
        names=DEVICE_NAMES[:device_count],
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter=arbiter,
        weights=weights,
        topology=None if topology == "flat" else TREE_SPECS[device_count],
        seed=seed,
    )
    compiled: dict[str, CompiledTopology] = {}
    original = fabric_module.compile_topology

    def capture(name, *args, **kwargs):
        compiled[name] = original(name, *args, **kwargs)
        return compiled[name]

    with mock.patch.object(fabric_module, "compile_topology", capture):
        result = FabricSimulator(params).run()
    return devices, result, compiled


class TestContentionInvariants:
    @given(
        victim_workload=st.sampled_from(WORKLOADS),
        aggressor_workload=st.sampled_from(WORKLOADS),
        arbiter=st.sampled_from(ARBITER_CHOICES),
        topology=st.sampled_from(TOPOLOGY_CHOICES),
        device_count=st.sampled_from((2, 4)),
        packets=st.integers(min_value=80, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    # Posted-write walker service outlasting the last completion report:
    # summed walker busy time (84,360 ns) exceeds duration_ns (84,055 ns)
    # while the root walker's service runs until 84,880 ns.
    @example(
        victim_workload="imix",
        aggressor_workload="imix",
        arbiter="fcfs",
        topology="tree",
        device_count=2,
        packets=189,
        seed=16824,
    )
    def test_per_device_conservation_across_grid(
        self,
        victim_workload,
        aggressor_workload,
        arbiter,
        topology,
        device_count,
        packets,
        seed,
    ):
        devices, result, compiled = _run_capturing(
            victim_workload,
            aggressor_workload,
            arbiter,
            topology,
            packets,
            seed,
            device_count,
        )
        assert result.arbiter == arbiter
        assert result.topology_depth == (1 if topology == "flat" else 2)
        for device, record in zip(devices, result.devices):
            # Regenerate the offered schedule independently: workloads draw
            # from named RNG sub-streams, so the same seed reproduces the
            # same schedule regardless of the fabric's interleaving.
            rng = SimRng(seed)
            nic = record.result
            paths = [nic.tx] + ([nic.rx] if nic.rx is not None else [])
            for path in paths:
                schedule = device.build_workload().generate(
                    device.packets, rng, stream=path.direction
                )
                offered_bytes = int(np.asarray(schedule.sizes).sum())
                assert path.offered_packets == schedule.count
                assert (
                    path.delivered_packets + path.drops + path.in_flight
                    == path.offered_packets
                ), (record.name, path.direction)
                assert path.offered_bytes == offered_bytes
                assert (
                    path.payload_bytes + path.dropped_bytes
                    <= path.offered_bytes
                )
                assert path.ring.max_occupancy <= path.ring.depth
            # Arbitration counters are self-consistent per device.
            for port in (record.ingress, record.walker):
                assert port is not None
                assert 0 <= port.waited <= port.requests
                assert port.wait_ns_total >= 0.0
                assert port.wait_ns_max <= port.wait_ns_total + 1e-9
                assert port.busy_ns_total >= 0.0
        # Each shared resource is serial, so it cannot overcommit: the
        # devices' summed busy time is bounded by the time the resource's
        # last service ends.  (Per-device counters charge service once, at
        # the root, so the bound holds for switch trees too.)  The run's
        # duration_ns is not that bound: it ends at the last completion
        # report, and walker service for posted writes can outlast it.
        resources = {
            "ingress": compiled["fabric.root_complex.ingress"],
            "walker": compiled["fabric.iommu.walker"],
        }
        for attribute, resource in resources.items():
            total_busy = sum(
                getattr(record, attribute).busy_ns_total
                for record in result.devices
            )
            assert total_busy <= resource.root.busy_until + 1e-6

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        topology=st.sampled_from(TOPOLOGY_CHOICES),
    )
    @settings(max_examples=4, deadline=None)
    def test_identical_seeds_reproduce_identical_runs(self, seed, topology):
        arbiter = ARBITER_CHOICES[-1]
        _, first = _run("fixed", "imix", arbiter, topology, 100, seed)
        _, second = _run("fixed", "imix", arbiter, topology, 100, seed)
        assert first == second

    def test_single_device_fabric_reproduces_golden(self):
        # The degenerate-case acceptance criterion, under every arbiter
        # name the matrix pins: one device means no arbitration layer, so
        # the scheme must not matter and the golden must reproduce.
        golden = json.loads(GOLDEN_PATH.read_text())
        params = NicSimParams.from_dict(golden["params"])
        device = params.with_(system=None, iommu_enabled=False)
        for arbiter in ARBITER_CHOICES:
            contention = ContentionParams(
                devices=(device,),
                system=params.system,
                iommu_enabled=params.iommu_enabled,
                iommu_page_size=params.iommu_page_size,
                arbiter=arbiter,
                weights=None if arbiter not in WEIGHTED_SCHEMES else (1.0,),
                seed=params.seed,
            )
            result = FabricSimulator(contention).run()
            assert result.devices[0].result.as_dict() == golden["result"]
