"""Tests for the packet-level NIC datapath simulator."""

import pytest

from repro.bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from repro.core.nic import (
    FIGURE1_MODELS,
    MODERN_NIC_DPDK,
    MODERN_NIC_KERNEL,
    SIMPLE_NIC,
)
from repro.errors import ValidationError
from repro.sim.nicsim import NicDatapathSimulator, NicSimConfig
from repro.workloads import build_workload


def _run(model, workload="fixed", **fields):
    return run_nicsim_benchmark(
        NicSimParams(model=model.name, workload=workload, **fields)
    )


class TestCrossValidation:
    """The acceptance criterion: the simulator agrees with the closed form."""

    @pytest.mark.parametrize(
        "model", FIGURE1_MODELS, ids=lambda model: model.name
    )
    def test_fixed_size_duplex_throughput_within_10pct(self, model):
        points = cross_validate(
            NicSimParams(model=model.name, packets=2000), (64, 512, 1500)
        )
        assert len(points) == 3
        for point in points:
            assert point.within(0.10), (
                f"{point.model} at {point.packet_size} B: simulated "
                f"{point.simulated_gbps:.2f} vs analytic "
                f"{point.analytic_gbps:.2f} Gb/s "
                f"({point.relative_error * 100:.1f}% off)"
            )

    def test_model_ordering_preserved_by_simulation(self):
        # The Figure 1 ordering (Simple <= kernel <= DPDK) must survive the
        # move from averages to per-transaction simulation.
        throughputs = {}
        for model in FIGURE1_MODELS:
            params = NicSimParams(model=model.name, packets=1500)
            point = cross_validate(params, (256,))[0]
            throughputs[model.name] = point.simulated_gbps
        assert (
            throughputs[SIMPLE_NIC.name]
            < throughputs[MODERN_NIC_KERNEL.name]
            <= throughputs[MODERN_NIC_DPDK.name] * 1.02
        )


class TestSaturationBehaviour:
    def test_saturating_load_fills_tx_ring_and_drops_rx(self):
        result = _run(
            SIMPLE_NIC, "fixed", packets=1500, packet_size=64
        )
        # TX backpressures (no drops, ring pegged); RX tail-drops.
        assert result.tx.drops == 0
        assert result.tx.ring.max_occupancy == result.tx.ring.depth
        assert result.rx is not None
        assert result.rx.drops > 0
        assert result.tx.delivered_packets == 1500

    def test_light_load_keeps_rings_shallow_and_lossless(self):
        result = _run(
            MODERN_NIC_DPDK, "fixed", packets=1500, packet_size=512,
            offered_load_gbps=10.0,
        )
        assert result.total_drops == 0
        assert result.tx.ring.max_occupancy < result.tx.ring.depth / 4
        assert result.throughput_gbps == pytest.approx(10.0, rel=0.05)

    def test_link_utilisation_reported(self):
        result = _run(
            MODERN_NIC_DPDK, "fixed", packets=1500, packet_size=512
        )
        assert 0.5 < result.link_utilisation_up <= 1.0
        assert 0.5 < result.link_utilisation_down <= 1.0


class TestLatencyAndOccupancy:
    """The outputs the analytic model cannot produce."""

    def test_interrupt_moderation_penalises_kernel_rx_latency(self):
        kernel = _run(
            MODERN_NIC_KERNEL, "imix", packets=2000, offered_load_gbps=24.0
        )
        dpdk = _run(
            MODERN_NIC_DPDK, "imix", packets=2000, offered_load_gbps=24.0
        )
        assert kernel.rx is not None and dpdk.rx is not None
        assert kernel.rx.latency.p99 > dpdk.rx.latency.p99

    def test_bursty_traffic_raises_ring_occupancy(self):
        smooth = _run(
            MODERN_NIC_DPDK, "fixed", packets=2000, packet_size=512,
            offered_load_gbps=24.0,
        )
        bursty = _run(
            MODERN_NIC_DPDK, "bursty", packets=2000, packet_size=512,
            offered_load_gbps=24.0,
        )
        assert bursty.rx.ring.max_occupancy > 2 * smooth.rx.ring.max_occupancy

    def test_shallow_rx_ring_drops_under_bursts(self):
        deep = _run(
            MODERN_NIC_KERNEL, "bursty", packets=2000, packet_size=512,
            offered_load_gbps=30.0, ring_depth=512,
        )
        shallow = _run(
            MODERN_NIC_KERNEL, "bursty", packets=2000, packet_size=512,
            offered_load_gbps=30.0, ring_depth=16,
        )
        assert deep.rx.drops == 0
        assert shallow.rx.drops > 0


class TestMultiQueue:
    """N TX/RX ring pairs with RSS flow steering."""

    def test_single_queue_knobs_are_the_degenerate_case(self):
        plain = _run(
            MODERN_NIC_DPDK, "imix", packets=600, offered_load_gbps=20.0, seed=3
        )
        explicit = _run(
            MODERN_NIC_DPDK, "imix", packets=600, offered_load_gbps=20.0, seed=3,
            num_queues=1, dma_tags=None,
        )
        assert plain == explicit
        assert plain.tx.queues is None
        assert plain.tags is None

    def test_queues_partition_the_direction_totals(self):
        result = _run(
            MODERN_NIC_DPDK, "imix", packets=800, offered_load_gbps=20.0,
            num_queues=4, rss="uniform", seed=11,
        )
        for path in (result.tx, result.rx):
            assert path.queues is not None
            assert len(path.queues) == 4
            assert [q.direction for q in path.queues] == [
                f"{path.direction}[{i}]" for i in range(4)
            ]
            assert sum(q.offered_packets for q in path.queues) == 800
            assert (
                sum(q.delivered_packets for q in path.queues)
                == path.delivered_packets
            )
            assert sum(q.payload_bytes for q in path.queues) == path.payload_bytes

    def test_single_hot_flow_saturates_one_queue(self):
        result = _run(
            MODERN_NIC_DPDK, "imix", packets=800, offered_load_gbps=20.0,
            num_queues=4, rss="hot", seed=11,
        )
        offered = sorted(q.offered_packets for q in result.tx.queues)
        # The hot flow's queue carries the overwhelming majority alone.
        assert offered[-1] > 0.8 * result.tx.offered_packets
        assert offered[0] < 0.2 * result.tx.offered_packets

    def test_zipf_flows_imbalance_the_queues(self):
        result = _run(
            MODERN_NIC_DPDK, "imix", packets=800, offered_load_gbps=20.0,
            num_queues=4, rss="zipf", seed=11,
        )
        offered = sorted(q.offered_packets for q in result.tx.queues)
        assert offered[-1] > 2 * offered[0]

    def test_multi_queue_needs_a_flow_model(self):
        simulator = NicDatapathSimulator(
            MODERN_NIC_DPDK, sim_config=NicSimConfig(num_queues=4)
        )
        with pytest.raises(ValidationError):
            simulator.run(build_workload("fixed"), 200)

    def test_multi_queue_result_round_trips_through_dict(self):
        from repro.sim.nicsim import NicSimResult

        result = _run(
            MODERN_NIC_DPDK, "imix", packets=600, offered_load_gbps=20.0,
            num_queues=2, rss="zipf", dma_tags=16, seed=5,
        )
        record = result.as_dict()
        assert len(record["tx"]["queues"]) == 2
        assert NicSimResult.from_dict(record) == result


class TestSimulatorMechanics:
    def test_same_seed_gives_identical_results(self):
        a = _run(MODERN_NIC_DPDK, "imix", packets=800, seed=5)
        b = _run(MODERN_NIC_DPDK, "imix", packets=800, seed=5)
        assert a == b

    def test_unidirectional_run_has_no_rx(self):
        result = _run(
            MODERN_NIC_DPDK, "fixed", packets=800, packet_size=512,
            duplex=False,
        )
        assert result.rx is None
        assert result.tx.delivered_packets == 800
        assert result.throughput_gbps == result.tx.throughput_gbps

    def test_model_accepted_by_alias(self):
        result = run_nicsim_benchmark(
            NicSimParams(model="dpdk", packets=500, packet_size=512)
        )
        assert result.model == MODERN_NIC_DPDK.name

    def test_as_dict_round_structure(self):
        result = _run(
            MODERN_NIC_KERNEL, "imix", packets=800, offered_load_gbps=20.0
        )
        record = result.as_dict()
        assert record["model"] == MODERN_NIC_KERNEL.name
        assert record["tx"]["ring"]["depth"] == 512
        assert "latency_ns" in record["rx"]
        assert record["rx"]["latency_ns"]["p99"] >= record["rx"]["latency_ns"]["median"]

    def test_every_admitted_packet_is_accounted(self):
        # The final, partial completion-report batch must still be flushed
        # into the delivered/latency accounting at the end of the run.
        result = _run(
            MODERN_NIC_KERNEL, "fixed", packets=100, packet_size=512,
            offered_load_gbps=10.0,
        )
        assert result.tx.delivered_packets == 100
        assert result.rx.delivered_packets + result.rx.drops == 100

    def test_ring_shallower_than_report_batch_rejected(self):
        # Kernel-driver interrupts fire every 16 packets: a 8-deep ring
        # could never fill a batch and would deadlock; refuse it up front.
        with pytest.raises(ValidationError):
            _run(
                MODERN_NIC_KERNEL, "fixed", packets=500, packet_size=512,
                ring_depth=8,
            )

    def test_result_round_trips_through_dict(self):
        from repro.sim.nicsim import NicSimResult

        result = _run(
            MODERN_NIC_KERNEL, "imix", packets=600, offered_load_gbps=20.0
        )
        assert NicSimResult.from_dict(result.as_dict()) == result

    def test_validation_errors(self):
        simulator = NicDatapathSimulator(MODERN_NIC_DPDK)
        with pytest.raises(ValidationError):
            simulator.run(build_workload("fixed"), 0)
        with pytest.raises(ValidationError):
            NicSimConfig(ring_depth=0)
