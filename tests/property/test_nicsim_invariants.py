"""Invariant harness for the NIC datapath simulator (host-coupled or not).

Property-style tests running a grid of (model, workload, ring depth, load,
duplex, host-coupling, queue count, RSS scenario, tag bound) combinations
and asserting the laws any run must obey, whatever the configuration:

* packet conservation: offered = delivered + dropped + in-flight, per
  direction *and per queue*, cross-checked against an independently
  regenerated schedule and RSS mapping;
* byte conservation: offered bytes equal the schedule's bytes, delivered
  bytes equal the sum of delivered sizes, dropped + delivered never exceed
  offered;
* monotone event times: arrival <= payload completion <= completion
  report for every packet, and the run duration covers every report;
* ring sanity: occupancy never exceeds the configured depth, every
  posted packet is eventually delivered — checked per queue;
* RSS sanity: the flow→queue mapping is a pure function of (flow, queue
  count, seed), and every offered packet lands on exactly one queue.

The ``NICSIM_QUEUES`` environment variable pins the queue-count choices
(e.g. ``NICSIM_QUEUES=4``) so a CI matrix can run the same grid once per
queue layout.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.nicsim import NicDatapathSimulator, NicSimParams, NicSimResult
from repro.sim.rng import DEFAULT_SEED, SimRng
from repro.units import KIB
from repro.workloads import build_flow_model, build_workload, rss_queues

MODELS = ("simple", "kernel", "dpdk")
WORKLOADS = ("fixed", "uniform", "imix", "poisson", "bursty")
RSS_SCENARIOS = ("uniform", "zipf", "hot")

_QUEUE_ENV = os.environ.get("NICSIM_QUEUES")
#: Queue layouts the grid samples; a CI matrix pins one via NICSIM_QUEUES.
QUEUE_CHOICES = (int(_QUEUE_ENV),) if _QUEUE_ENV else (1, 4)

#: Neutral host coupling used for the coupled half of the grid (the
#: record's host fields).
NEUTRAL_HOST = {"system": "NFP6000-HSW", "payload_window": 256 * KIB}
#: Host coupling under maximum pressure (IOMMU miss storm, thrashed cache).
STRESSED_HOST = {
    "system": "NFP6000-BDW",
    "iommu_enabled": True,
    "payload_window": 4096 * KIB,
    "payload_cache_state": "cold",
    "payload_placement": "remote",
}


def make_workload(
    workload_name: str,
    *,
    load: float | None,
    duplex: bool,
    num_queues: int,
    rss: str,
):
    workload = build_workload(
        workload_name, size=512, load_gbps=load, duplex=duplex
    )
    if num_queues > 1:
        workload = workload.with_(flows=build_flow_model(rss))
    return workload


def run_simulation(
    model: str,
    workload_name: str,
    *,
    packets: int,
    ring_depth: int,
    load: float | None,
    duplex: bool,
    host: dict | None,
    rx_backpressure: bool,
    seed: int,
    num_queues: int = 1,
    rss: str = "uniform",
    dma_tags: int | None = None,
) -> tuple[NicDatapathSimulator, NicSimResult]:
    simulator = NicDatapathSimulator(
        NicSimParams(
            model=model,
            workload=workload_name,
            packet_size=512,
            offered_load_gbps=load,
            packets=packets,
            ring_depth=ring_depth,
            duplex=duplex,
            rx_backpressure=rx_backpressure,
            num_queues=num_queues,
            dma_tags=dma_tags,
            rss=rss,
            seed=seed,
            **(host or {}),
        )
    )
    return simulator, simulator.run()


def assert_invariants(
    simulator: NicDatapathSimulator,
    result: NicSimResult,
    *,
    workload_name: str,
    load: float | None,
    packets: int,
    seed: int,
    num_queues: int = 1,
    rss: str = "uniform",
) -> None:
    # Regenerate the offered schedule independently of the simulator: the
    # workload draws from named RNG sub-streams, so the same seed yields
    # the same schedule regardless of what else consumed randomness.
    workload = make_workload(
        workload_name,
        load=load,
        duplex=result.rx is not None,
        num_queues=num_queues,
        rss=rss,
    )
    rng = SimRng(seed)
    paths = [result.tx] + ([result.rx] if result.rx is not None else [])
    for path in paths:
        schedule = workload.generate(packets, rng, stream=path.direction)
        offered_bytes = int(np.asarray(schedule.sizes).sum())

        # Packet conservation, against the independent schedule.
        assert path.offered_packets == schedule.count
        assert (
            path.delivered_packets + path.drops + path.in_flight
            == path.offered_packets
        ), path.direction
        assert path.in_flight >= 0
        assert path.ring.drops == path.drops

        # Byte conservation per direction.
        assert path.offered_bytes == offered_bytes
        assert path.payload_bytes + path.dropped_bytes <= path.offered_bytes
        trace = simulator.last_traces[path.direction]
        assert path.payload_bytes == int(trace.sizes.sum())
        delivered_sizes = np.sort(trace.sizes)
        schedule_sizes = np.sort(np.asarray(schedule.sizes, dtype=np.int64))
        # Every delivered packet is one the workload offered (multiset
        # containment via counts per distinct size).
        for size in np.unique(delivered_sizes):
            assert (delivered_sizes == size).sum() <= (
                schedule_sizes == size
            ).sum()

        # Monotone event times per packet.
        assert trace.arrivals_ns.shape == trace.dones_ns.shape
        assert (trace.arrivals_ns >= 0.0).all()
        assert (trace.dones_ns >= trace.arrivals_ns).all()
        assert (trace.notifies_ns >= trace.dones_ns).all()
        if trace.notifies_ns.size:
            assert result.duration_ns >= trace.notifies_ns.max()

        # Ring sanity (direction level: aggregated for multi-queue runs).
        assert path.ring.max_occupancy <= path.ring.depth
        assert 0.0 <= path.ring.mean_occupancy <= path.ring.depth
        assert path.ring.posts == path.delivered_packets

        # Per-queue invariants (the RSS layer).
        if num_queues == 1:
            assert path.queues is None
        else:
            assert path.queues is not None
            assert len(path.queues) == num_queues
            assert schedule.flows is not None
            # The flow→queue mapping is deterministic per seed and a pure
            # function of the labels: recompute it from the regenerated
            # schedule and compare the per-queue offered counts.
            mapping = rss_queues(schedule.flows, num_queues, seed=seed)
            again = rss_queues(schedule.flows, num_queues, seed=seed)
            assert (mapping == again).all()
            assert ((mapping >= 0) & (mapping < num_queues)).all()
            expected_offered = np.bincount(mapping, minlength=num_queues)
            for index, queue in enumerate(path.queues):
                assert queue.direction == f"{path.direction}[{index}]"
                assert queue.offered_packets == int(expected_offered[index])
                # Conservation and ring bounds hold per queue too.
                assert (
                    queue.delivered_packets + queue.drops + queue.in_flight
                    == queue.offered_packets
                ), queue.direction
                assert queue.ring.drops == queue.drops
                assert queue.ring.max_occupancy <= queue.ring.depth
                assert 0.0 <= queue.ring.mean_occupancy <= queue.ring.depth
                assert queue.ring.posts == queue.delivered_packets
                assert (
                    queue.payload_bytes + queue.dropped_bytes
                    <= queue.offered_bytes
                )
                # The trace slice of this queue matches its counters.
                assert trace.queue_ids is not None
                mask = trace.queue_ids == index
                assert int(mask.sum()) == queue.delivered_packets
                assert int(trace.sizes[mask].sum()) == queue.payload_bytes
            # Every packet lands on exactly one queue: the per-queue
            # tallies partition the direction totals.
            for field in (
                "offered_packets",
                "delivered_packets",
                "drops",
                "in_flight",
                "payload_bytes",
                "offered_bytes",
                "dropped_bytes",
            ):
                assert sum(
                    getattr(queue, field) for queue in path.queues
                ) == getattr(path, field), field

    assert 0.0 <= result.link_utilisation_up <= 1.0
    assert 0.0 <= result.link_utilisation_down <= 1.0


class TestDatapathInvariants:
    @given(
        model=st.sampled_from(MODELS),
        workload_name=st.sampled_from(WORKLOADS),
        ring_depth=st.sampled_from((32, 64, 512)),
        packets=st.integers(min_value=120, max_value=300),
        load=st.sampled_from((None, 8.0, 30.0)),
        duplex=st.booleans(),
        coupled=st.booleans(),
        num_queues=st.sampled_from(QUEUE_CHOICES),
        rss=st.sampled_from(RSS_SCENARIOS),
        dma_tags=st.sampled_from((None, 8, 64)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_across_workload_grid(
        self,
        model,
        workload_name,
        ring_depth,
        packets,
        load,
        duplex,
        coupled,
        num_queues,
        rss,
        dma_tags,
        seed,
    ):
        simulator, result = run_simulation(
            model,
            workload_name,
            packets=packets,
            ring_depth=ring_depth,
            load=load,
            duplex=duplex,
            host=NEUTRAL_HOST if coupled else None,
            rx_backpressure=False,
            seed=seed,
            num_queues=num_queues,
            rss=rss,
            dma_tags=dma_tags,
        )
        assert_invariants(
            simulator,
            result,
            workload_name=workload_name,
            load=load,
            packets=packets,
            seed=seed,
            num_queues=num_queues,
            rss=rss,
        )
        if dma_tags is not None:
            assert result.tags is not None
            assert result.tags.capacity == dma_tags
            assert 0 <= result.tags.max_in_flight <= dma_tags
            assert result.tags.waited <= result.tags.acquires
        else:
            assert result.tags is None

    @given(
        workload_name=st.sampled_from(("fixed", "bursty")),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_conservation_under_host_pressure(self, workload_name, seed):
        # IOMMU miss storm + cold remote buffers must bend latency, never
        # break conservation — with the RSS layer and a tight tag pool on
        # top, the worst case the datapath supports.
        simulator, result = run_simulation(
            "kernel",
            workload_name,
            packets=200,
            ring_depth=64,
            load=30.0,
            duplex=True,
            host=STRESSED_HOST,
            rx_backpressure=False,
            seed=seed,
            num_queues=QUEUE_CHOICES[-1],
            rss="hot",
            dma_tags=8,
        )
        assert_invariants(
            simulator,
            result,
            workload_name=workload_name,
            load=30.0,
            packets=200,
            seed=seed,
            num_queues=QUEUE_CHOICES[-1],
            rss="hot",
        )
        assert result.host is not None
        assert result.host.iotlb_hit_rate < 1.0
        assert result.host.remote_fraction > 0.0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_backpressure_mode_is_lossless(self, seed):
        # With RX backpressure on, nothing may ever be dropped; packets
        # either complete or are still queued when the run ends.
        simulator, result = run_simulation(
            "dpdk",
            "bursty",
            packets=250,
            ring_depth=32,
            load=None,
            duplex=True,
            host=None,
            rx_backpressure=True,
            seed=seed,
        )
        assert_invariants(
            simulator,
            result,
            workload_name="bursty",
            load=None,
            packets=250,
            seed=seed,
        )
        assert result.total_drops == 0

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_rss_steering_is_seed_stable(self, seed):
        # Two identically seeded multi-queue runs must agree exactly,
        # and reseeding re-keys the hash without losing any packet.
        _, first = run_simulation(
            "dpdk",
            "imix",
            packets=150,
            ring_depth=64,
            load=20.0,
            duplex=True,
            host=None,
            rx_backpressure=False,
            seed=seed,
            num_queues=4,
            rss="zipf",
        )
        _, second = run_simulation(
            "dpdk",
            "imix",
            packets=150,
            ring_depth=64,
            load=20.0,
            duplex=True,
            host=None,
            rx_backpressure=False,
            seed=seed,
            num_queues=4,
            rss="zipf",
        )
        assert first == second
        assert first.tx.queues is not None
        assert (
            sum(queue.offered_packets for queue in first.tx.queues)
            == first.tx.offered_packets
        )

    def test_default_seed_matches_explicit_default(self):
        simulator, implicit = run_simulation(
            "dpdk",
            "imix",
            packets=150,
            ring_depth=64,
            load=20.0,
            duplex=True,
            host=None,
            rx_backpressure=False,
            seed=DEFAULT_SEED,
        )
        assert_invariants(
            simulator,
            implicit,
            workload_name="imix",
            load=20.0,
            packets=150,
            seed=DEFAULT_SEED,
        )
