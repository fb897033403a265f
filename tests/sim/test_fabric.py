"""Tests for the shared-host fabric subsystem (repro.sim.fabric).

The two load-bearing contracts:

* **Solo equivalence** — a fabric with one device takes the exact
  single-device code path and reproduces ``tests/golden/nicsim_seeded.json``
  bit for bit (the acceptance criterion of the contention subsystem).
* **Contention is real and arbitrable** — with two devices the shared
  walker/ingress degrade a victim under fcfs, and per-device arbitration
  (rr/wrr) restores it, without breaking any conservation law.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.errors import ValidationError
from repro.obs import Tracer
from repro.sim.fabric import (
    ContentionParams,
    ContentionResult,
    FabricSimulator,
)
from repro.sim.nichost import DEVICE_ADDRESS_STRIDE, SharedHost
from repro.units import KIB, MIB
from repro.workloads import build_workload

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "nicsim_seeded.json"


def _golden_contention_params() -> tuple[ContentionParams, dict]:
    """The golden solo run as a one-device contention record."""
    golden = json.loads(GOLDEN_PATH.read_text())
    params = NicSimParams.from_dict(golden["params"])
    contention = ContentionParams(
        devices=(
            params.with_(
                system=None, iommu_enabled=False, iommu_page_size=4 * KIB
            ),
        ),
        system=params.system,
        iommu_enabled=params.iommu_enabled,
        iommu_page_size=params.iommu_page_size,
        seed=params.seed,
    )
    return contention, golden


def _host_device(**fields) -> NicSimParams:
    """A device's host-coupled record, as ``solo_params`` builds it."""
    return NicSimParams(system="NFP6000-HSW", **fields)


def _victim(packets: int, **fields) -> NicSimParams:
    record = dict(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        offered_load_gbps=5.0,
        packets=packets,
        ring_depth=64,
        payload_window=256 * KIB,
    )
    return NicSimParams(**{**record, **fields})


def _aggressor(packets: int, **fields) -> NicSimParams:
    record = dict(
        model="kernel", workload="imix", packets=packets, payload_window=64 * MIB
    )
    return NicSimParams(**{**record, **fields})


def _two_device_run(arbiter: str, weights=None, *, seed: int = 11) -> ContentionResult:
    params = ContentionParams(
        devices=(_victim(400), _aggressor(2500)),
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter=arbiter,
        weights=weights,
        seed=seed,
    )
    return FabricSimulator(params).run()


class TestSoloEquivalence:
    def test_single_device_fabric_matches_golden_bit_for_bit(self):
        params, golden = _golden_contention_params()
        result = FabricSimulator(params).run()
        assert len(result.devices) == 1
        solo = result.devices[0]
        assert solo.name == "dev0"
        # No arbitration layer exists for one device.
        assert solo.ingress is None and solo.walker is None
        assert solo.result.as_dict() == golden["result"]

    def test_single_device_fabric_matches_live_nicsim_run(self):
        params, golden = _golden_contention_params()
        solo_params = NicSimParams.from_dict(golden["params"])
        assert params.solo_params(0) == solo_params
        plain = run_nicsim_benchmark(solo_params)
        fabric_run = FabricSimulator(params).run()
        assert fabric_run.devices[0].result == plain
        # Traced, with the nicsim device named like the fabric's, both
        # runs export the same spans: every stage, lane, start and width.
        solo, shared = Tracer(), Tracer()
        run_nicsim_benchmark(solo_params, tracer=solo, device="dev0")
        FabricSimulator(params).run(tracer=shared)
        assert solo.recorded > 0 and solo.evicted == 0
        assert list(solo.jsonl_lines()) == list(shared.jsonl_lines())


class TestContention:
    def test_two_devices_conserve_packets_and_bytes_per_device(self):
        result = _two_device_run("fcfs")
        assert {record.name for record in result.devices} == {
            "victim",
            "aggressor",
        }
        for record in result.devices:
            for path in (record.result.tx, record.result.rx):
                assert path is not None
                assert (
                    path.delivered_packets + path.drops + path.in_flight
                    == path.offered_packets
                )
                assert path.payload_bytes + path.dropped_bytes <= path.offered_bytes
                assert path.ring.max_occupancy <= path.ring.depth
            # Arbitration counters exist and are self-consistent.
            for port in (record.ingress, record.walker):
                assert port is not None
                assert port.waited <= port.requests
                assert port.wait_ns_total >= 0.0
        assert result.duration_ns > 0.0

    def test_same_seed_reproduces_identical_results(self):
        first = _two_device_run("wrr", (8.0, 1.0))
        second = _two_device_run("wrr", (8.0, 1.0))
        assert first == second

    def test_fcfs_degrades_victim_and_wrr_protects_it(self):
        fcfs = _two_device_run("fcfs")
        wrr = _two_device_run("wrr", (8.0, 1.0))
        fcfs_victim = fcfs.device("victim").result
        wrr_victim = wrr.device("victim").result
        assert fcfs_victim.tx.latency is not None
        assert wrr_victim.tx.latency is not None
        # The shared walker hurts the victim under fcfs; per-device queues
        # with victim-favouring weights restore it by a wide margin.
        assert fcfs_victim.tx.latency.p99 > 2.0 * wrr_victim.tx.latency.p99
        # The victim's sparse requests barely wait under wrr.
        assert (
            wrr.device("victim").walker.wait_ns_mean
            < fcfs.device("victim").walker.wait_ns_mean
        )

    def test_walker_contention_shows_in_arbiter_counters(self):
        result = _two_device_run("fcfs")
        aggressor = result.device("aggressor")
        # The aggressor's huge window forces walks: it must have queued.
        assert aggressor.walker.requests > 0
        assert aggressor.walker.busy_ns_total > 0.0

    def test_result_round_trips_through_dict(self):
        result = _two_device_run("rr")
        rebuilt = ContentionResult.from_dict(result.as_dict())
        assert rebuilt == result
        assert rebuilt.as_dict() == result.as_dict()

    def test_device_lookup_by_name(self):
        result = _two_device_run("rr")
        assert result.device("victim").name == "victim"
        with pytest.raises(ValidationError):
            result.device("nobody")


class TestValidation:
    def test_device_names_must_be_unique(self):
        device = _victim(10)
        with pytest.raises(ValidationError):
            ContentionParams(devices=(device, device), names=("twin", "twin"))

    def test_weights_must_match_device_count(self):
        with pytest.raises(ValidationError):
            ContentionParams(
                devices=(_victim(10),), arbiter="wrr", weights=(1.0, 2.0)
            )

    def test_weights_require_the_wrr_arbiter(self):
        with pytest.raises(ValidationError):
            ContentionParams(
                devices=(_victim(10), _victim(10)),
                arbiter="rr",
                weights=(1.0, 2.0),
            )

    def test_unknown_arbiter_rejected(self):
        with pytest.raises(ValidationError):
            ContentionParams(devices=(_victim(10),), arbiter="lottery")

    def test_empty_fabric_rejected(self):
        with pytest.raises(ValidationError):
            ContentionParams(devices=())

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("ring_depth", 0),
            ("dma_tags", 0),
            ("num_queues", 0),
            ("payload_window", 16),
            ("payload_cache_state", "lukewarm"),
            # A device leaves the host to the fabric, so it has no NUMA
            # node of its own to be remote from.
            ("payload_placement", "remote"),
        ],
    )
    def test_malformed_device_rejected_at_construction(self, knob, value):
        with pytest.raises(ValidationError):
            ContentionParams(devices=(_victim(10, **{knob: value}),))

    def test_workloads_must_match_device_count(self):
        params = ContentionParams(devices=(_victim(10), _victim(10)))
        workload = build_workload("fixed", size=512, load_gbps=5.0)
        with pytest.raises(ValidationError, match="one workload per device"):
            FabricSimulator(params, workloads=(workload,))

    def test_record_rejects_mixed_cache_states(self):
        devices = (_victim(10), _victim(10, payload_cache_state="cold"))
        with pytest.raises(ValidationError, match="preparation state"):
            ContentionParams(devices=devices)

    def test_shared_host_couplings_use_disjoint_regions(self):
        device = _host_device(
            iommu_enabled=True, payload_window=256 * KIB, ring_depth=256
        )
        shared = SharedHost([device, device], seed=3)
        first, second = shared.couplings
        assert (
            second.payload_buffer.base_address
            - first.payload_buffer.base_address
            == DEVICE_ADDRESS_STRIDE
        )
        # Both couplings share one host, one payload root complex and one
        # descriptor root complex — that is the whole point.
        assert first.host is second.host
        assert first.payload_rc is second.payload_rc
        assert first.descriptor_rc is second.descriptor_rc


class TestTopologyFabric:
    """Switch-tree topologies, DDIO partitioning and sliced arbitration."""

    def _run(self, *, seed: int = 11, **config):
        params = ContentionParams(
            devices=(_victim(300, dma_tags=12), _aggressor(2000)),
            names=("victim", "aggressor"),
            system="NFP6000-HSW",
            iommu_enabled=True,
            seed=seed,
            **config,
        )
        return FabricSimulator(params).run()

    def test_explicit_flat_topology_is_bit_identical_to_implicit(self):
        implicit = self._run(arbiter="fcfs")
        explicit = self._run(
            arbiter="fcfs", topology="victim=root,aggressor=root"
        )
        assert explicit == implicit
        assert explicit.topology is None  # flat canonicalises to None
        assert explicit.topology_depth == 1

    def test_own_root_port_isolates_the_victim_even_under_fcfs(self):
        shared_switch = self._run(
            arbiter="fcfs", topology="victim=sw0,aggressor=sw0,sw0=root"
        )
        own_port = self._run(
            arbiter="fcfs", topology="victim=root,aggressor=sw0,sw0=root"
        )
        assert shared_switch.topology_depth == 2
        assert own_port.topology_depth == 2
        shared_p99 = shared_switch.device("victim").result.tx.latency.p99
        own_p99 = own_port.device("victim").result.tx.latency.p99
        # The credit-flow-controlled switch keeps the aggressor's backlog
        # away from the root: the victim's tail collapses back.
        assert own_p99 < shared_p99 / 2
        # Conservation still holds for every device behind any topology.
        for result in (shared_switch, own_port):
            for record in result.devices:
                for path in (record.result.tx, record.result.rx):
                    assert (
                        path.delivered_packets + path.drops + path.in_flight
                        == path.offered_packets
                    )

    def test_ddio_partition_restores_victim_ring_hit_rate(self):
        shared = self._run(arbiter="fcfs")
        partitioned = self._run(arbiter="fcfs", ddio_partition=(1.0, 1.0))
        shared_hit = shared.device("victim").result.host.descriptor_cache_hit_rate
        partitioned_hit = (
            partitioned.device("victim").result.host.descriptor_cache_hit_rate
        )
        # Shared regime: the aggressor's 64 MiB window squeezes the
        # victim's rings out of the LLC.  Partitioned: solo-like hits.
        assert shared_hit < 0.5
        assert partitioned_hit > 0.95
        assert partitioned.ddio_partition == (1.0, 1.0)

    def test_sliced_arbitration_tightens_the_victim_wait_tail(self):
        wrr = self._run(arbiter="wrr", weights=(8.0, 1.0))
        sliced = self._run(
            arbiter="sliced", weights=(8.0, 1.0), quantum_ns=16.0
        )
        assert sliced.quantum_ns == 16.0
        assert (
            sliced.device("victim").walker.wait_ns_max
            < wrr.device("victim").walker.wait_ns_max
        )

    def test_topology_result_round_trips_through_dict(self):
        result = self._run(
            arbiter="sliced",
            weights=(8.0, 1.0),
            quantum_ns=16.0,
            topology="victim=root,aggressor=sw0,sw0=root",
            ddio_partition=(3.0, 1.0),
        )
        rebuilt = ContentionResult.from_dict(result.as_dict())
        assert rebuilt == result
        assert rebuilt.topology == "victim=root,aggressor=sw0,sw0=root"
        assert rebuilt.quantum_ns == 16.0
        assert rebuilt.ddio_partition == (3.0, 1.0)

    def test_partition_allows_mixed_cache_states(self):
        devices = [
            _host_device(payload_cache_state="host_warm"),
            _host_device(payload_cache_state="cold"),
        ]
        shared = SharedHost(devices, seed=1, ddio_partition=(1.0, 1.0))
        assert shared.partitioned is True

    def test_record_validates_topology_and_partition(self):
        devices = (_victim(10), _victim(10))
        with pytest.raises(ValidationError):
            ContentionParams(
                devices=devices, names=("a", "b"), topology="a=root"
            )  # b unattached
        with pytest.raises(ValidationError):
            ContentionParams(devices=devices, ddio_partition=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            # fcfs ignores quanta
            ContentionParams(devices=devices, quantum_ns=16.0)
        with pytest.raises(ValidationError):
            ContentionParams(devices=devices, arbiter="sliced", quantum_ns=-2.0)


class TestFaithfulCacheFabric:
    """The line-accurate cache substrate behind ``cache_model="faithful"``."""

    def _run(self, *, ddio_partition=None, seed: int = 11):
        params = ContentionParams(
            devices=(
                _victim(150),
                _aggressor(
                    600,
                    payload_window=1 * MIB,
                    payload_cache_state="device_warm",
                ),
            ),
            names=("victim", "aggressor"),
            cache_model="faithful",
            ddio_partition=ddio_partition,
            seed=seed,
        )
        return FabricSimulator(params).run()

    def test_faithful_fabric_runs_and_conserves(self):
        result = self._run()
        for record in result.devices:
            for path in (record.result.tx, record.result.rx):
                assert (
                    path.delivered_packets + path.drops + path.in_flight
                    == path.offered_packets
                )
        # Real-address warming: the victim's host-warm window and rings
        # are resident, so its reads overwhelmingly hit.
        victim = result.device("victim").result.host
        assert victim.descriptor_cache_hit_rate > 0.9
        assert victim.payload_cache_hit_rate > 0.9

    def test_faithful_partition_uses_per_owner_way_budgets(self):
        from repro.sim.cache import SetAssociativeCache

        device = _host_device(payload_window=256 * KIB, ring_depth=64)
        shared = SharedHost(
            [device, device],
            seed=3,
            cache_model="faithful",
            ddio_partition=(1.0, 1.0),
        )
        payload_cache = shared.host.root_complex.cache
        descriptor_cache = shared.descriptor_rc.cache
        assert isinstance(payload_cache, SetAssociativeCache)
        assert isinstance(descriptor_cache, SetAssociativeCache)
        # Both caches split their DDIO ways between the two owners.
        assert len(payload_cache.ddio_way_split) == 2
        assert len(descriptor_cache.ddio_way_split) == 2
        assert sum(payload_cache.ddio_way_split) <= payload_cache.ddio_ways

    def test_faithful_partitioned_run_protects_victim_rings(self):
        shared = self._run()
        partitioned = self._run(ddio_partition=(1.0, 1.0))
        # Device-warm aggressor writes allocate through the DDIO ways of
        # the shared descriptor/payload caches; with partitioning they
        # can only evict the aggressor's own lines, so the victim's ring
        # hit rate can only improve.
        assert (
            partitioned.device("victim").result.host.descriptor_cache_hit_rate
            >= shared.device("victim").result.host.descriptor_cache_hit_rate
        )

    def test_cache_model_validation(self):
        with pytest.raises(ValidationError):
            ContentionParams(devices=(_victim(10),), cache_model="magic")
