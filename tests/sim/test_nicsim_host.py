"""Tests for the host-coupled NIC datapath (nicsim -> root_complex)."""

import pytest

from repro.bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from repro.errors import ValidationError
from repro.core.nic import FIGURE1_MODELS
from repro.sim.nichost import (
    HostSideStats,
    PAYLOAD_UNIT_BYTES,
    SharedHost,
)
from repro.sim.nicsim import NicSimResult
from repro.units import KIB, MIB

#: The regression contract: a host coupling configured to stay out of the
#: way (IOMMU off, warm cache, local buffers, small window) must preserve
#: the PR 1 agreement with the analytic model.
NEUTRAL = NicSimParams(
    model="dpdk", system="NFP6000-HSW", payload_window=256 * KIB
)


def _run(**fields):
    return run_nicsim_benchmark(NicSimParams(model="dpdk", **fields))


class TestNeutralCouplingCrossValidation:
    """Host coupling must not break the analytic-model agreement."""

    @pytest.mark.parametrize(
        "model", FIGURE1_MODELS, ids=lambda model: model.name
    )
    def test_neutral_coupling_within_10pct_of_analytic(self, model):
        points = cross_validate(
            NEUTRAL.with_(model=model.name, packets=1500), (64, 512, 1500)
        )
        for point in points:
            assert point.within(0.10), (
                f"{point.model} at {point.packet_size} B with neutral host "
                f"coupling: simulated {point.simulated_gbps:.2f} vs analytic "
                f"{point.analytic_gbps:.2f} Gb/s "
                f"({point.relative_error * 100:.1f}% off)"
            )


class TestHostConfigValidation:
    """The record's host knobs, checked where the record is built."""

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(system="PDP-11")

    def test_profile_name_normalised(self):
        assert NicSimParams(system="nfp6000-hsw").system == "NFP6000-HSW"

    def test_bad_page_size_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(system="NFP6000-HSW", iommu_page_size=8192)

    def test_window_must_hold_a_unit(self):
        with pytest.raises(ValidationError):
            NicSimParams(
                system="NFP6000-HSW", payload_window=PAYLOAD_UNIT_BYTES // 2
            )

    def test_remote_placement_needs_two_sockets(self):
        with pytest.raises(ValidationError):
            NicSimParams(system="NFP6000-HSW", payload_placement="remote")
        # The two-socket Broadwell accepts it.
        params = NicSimParams(
            system="NFP6000-BDW", payload_placement="remote"
        )
        assert params.payload_placement == "remote"

    def test_bad_placement_and_cache_state_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(system="NFP6000-HSW", payload_placement="sideways")
        with pytest.raises(ValidationError):
            NicSimParams(system="NFP6000-HSW", payload_cache_state="lukewarm")


class TestHostEffects:
    """The new behaviour the coupling exists to produce."""

    def test_descriptor_ring_stays_hot_while_payload_thrashes(self):
        result = _run(
            packets=800, packet_size=512, offered_load_gbps=20.0,
            system="NFP6000-BDW", payload_window=16 * MIB,
            payload_cache_state="cold",
        )
        assert result.host is not None
        assert result.host.descriptor_cache_hit_rate > 0.9
        assert result.host.payload_cache_hit_rate < 0.1

    def test_cold_cache_adds_dram_penalty_to_tx_latency(self):
        base = NEUTRAL.with_(packets=800, packet_size=512, offered_load_gbps=20.0)
        warm = run_nicsim_benchmark(base)
        cold = run_nicsim_benchmark(
            base.with_(payload_window=16 * MIB, payload_cache_state="cold")
        )
        assert cold.tx.latency.median > warm.tx.latency.median + 40.0

    def test_iommu_miss_storm_raises_latency_and_stalls_walker(self):
        base = dict(
            packets=800, packet_size=512, offered_load_gbps=20.0,
            system="NFP6000-BDW", payload_window=16 * MIB,
        )
        off = _run(**base)
        on = _run(iommu_enabled=True, **base)
        assert on.host.iotlb_hit_rate < 0.5
        assert on.host.iotlb_misses > 0
        assert on.host.walker_stall_ns_total >= 0.0
        assert on.tx.latency.median > off.tx.latency.median + 150.0

    def test_superpages_restore_iotlb_reach(self):
        base = dict(
            packets=600, packet_size=512, offered_load_gbps=20.0,
            system="NFP6000-BDW", iommu_enabled=True, payload_window=16 * MIB,
        )
        on_4k = _run(**base)
        on_2m = _run(iommu_page_size=2 * MIB, **base)
        assert on_2m.host.iotlb_hit_rate > 0.99
        assert on_2m.tx.latency.median < on_4k.tx.latency.median - 100.0

    def test_remote_payload_pays_the_interconnect_penalty(self):
        base = dict(
            packets=800, packet_size=512, offered_load_gbps=20.0,
            system="NFP6000-BDW", payload_window=1 * MIB,
        )
        local = _run(**base)
        remote = _run(payload_placement="remote", **base)
        adder = remote.tx.latency.median - local.tx.latency.median
        assert 50.0 <= adder <= 200.0
        assert remote.host.remote_fraction > 0.5
        assert local.host.remote_fraction == 0.0

    def test_e3_ingress_throttles_small_packet_throughput(self):
        # The Xeon E3's slow uncore (52 ns per TLP) caps the transaction
        # rate; the E5 host sustains clearly more at 64 B (§6.2).
        base = dict(packets=800, packet_size=64, payload_window=256 * KIB)
        e5 = _run(system="NFP6000-HSW", **base)
        e3 = _run(system="NFP6000-HSW-E3", **base)
        assert e3.throughput_gbps < 0.8 * e5.throughput_gbps


class TestCouplingMechanics:
    def test_same_seed_gives_identical_results(self):
        params = NicSimParams(
            model="dpdk", workload="imix", packets=500, offered_load_gbps=20.0,
            system="NFP6000-BDW", iommu_enabled=True, payload_window=4 * MIB,
            seed=11,
        )
        assert run_nicsim_benchmark(params) == run_nicsim_benchmark(params)

    def test_host_stats_round_trip(self):
        result = _run(
            workload="imix", packets=500, offered_load_gbps=20.0,
            system="NFP6000-BDW", iommu_enabled=True, payload_window=4 * MIB,
        )
        assert result.host is not None
        assert (
            HostSideStats.from_dict(result.host.as_dict()) == result.host
        )
        assert NicSimResult.from_dict(result.as_dict()) == result

    def test_decoupled_result_has_no_host_block(self):
        result = _run(packets=300, packet_size=512, offered_load_gbps=10.0)
        assert result.host is None
        assert "host" not in result.as_dict()

    def test_coupling_rejects_mmio(self):
        from repro.core.transactions import OpKind

        coupling = SharedHost(
            [NEUTRAL.with_(ring_depth=64)], seed=1
        ).couplings[0]
        with pytest.raises(ValidationError):
            coupling.access(
                OpKind.MMIO_READ, direction="tx", payload=False, size=4
            )

    def test_access_counters_split_by_region(self):
        from repro.core.transactions import OpKind

        coupling = SharedHost(
            [NEUTRAL.with_(ring_depth=64)], seed=1
        ).couplings[0]
        coupling.access(OpKind.DMA_READ, direction="tx", payload=True, size=512)
        coupling.access(OpKind.DMA_WRITE, direction="rx", payload=False, size=16)
        stats = coupling.stats()
        assert stats.accesses == 2
        assert stats.payload_accesses == 1
        assert stats.descriptor_accesses == 1
