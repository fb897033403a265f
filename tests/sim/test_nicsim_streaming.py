"""Streaming-statistics mode (``retain_samples=False``) regression tests.

The streaming mode must not change the *simulation* at all — only how the
delivered packets are summarised.  Event scheduling, RNG draws, drops and
completion times are identical, so the counters and the run duration must
match the retained mode bit for bit; latency percentiles go through the
quantile sketch and must agree within its documented bound plus the small
warmup-rule difference (a-priori cutoff vs sort-by-completion).
"""

import numpy as np
import pytest

from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.errors import SimulationError
from repro.sim.fabric import ContentionParams, FabricSimulator
from repro.sim.nicsim import (
    LatencySummary,
    NicDatapathSimulator,
    _streaming_warmup_threshold,
)
from repro.stats import QuantileSketch

RUN = NicSimParams(
    model="dpdk",
    workload="imix",
    packets=1200,
    offered_load_gbps=20.0,
    system="NFP6000-HSW",
    seed=7,
)


@pytest.fixture(scope="module")
def paired_runs():
    retained = run_nicsim_benchmark(RUN)
    streaming = run_nicsim_benchmark(RUN.with_(retain_samples=False))
    return retained, streaming


class TestStreamingEquivalence:
    def test_simulation_itself_is_bit_identical(self, paired_runs):
        retained, streaming = paired_runs
        assert streaming.duration_ns == retained.duration_ns
        for direction in ("tx", "rx"):
            kept = getattr(retained, direction)
            sketched = getattr(streaming, direction)
            assert sketched.offered_packets == kept.offered_packets
            assert sketched.delivered_packets == kept.delivered_packets
            assert sketched.drops == kept.drops
            assert sketched.payload_bytes == kept.payload_bytes
            assert sketched.offered_bytes == kept.offered_bytes
            assert sketched.ring.as_dict() == kept.ring.as_dict()

    def test_latency_summary_within_sketch_tolerance(self, paired_runs):
        retained, streaming = paired_runs
        for direction in ("tx", "rx"):
            kept = getattr(retained, direction).latency
            sketched = getattr(streaming, direction).latency
            assert sketched.count == kept.count
            assert sketched.sketch is not None
            assert kept.sketch is None
            # 0.5% sketch error + a small allowance for the differing
            # warmup rule and numpy's interpolated percentiles.
            for stat in ("mean", "median", "p90", "p99", "p999"):
                exact = getattr(kept, stat)
                estimate = getattr(sketched, stat)
                assert estimate == pytest.approx(exact, rel=0.02)

    def test_throughput_matches_retained_mode(self, paired_runs):
        retained, streaming = paired_runs
        for direction in ("tx", "rx"):
            kept = getattr(retained, direction)
            sketched = getattr(streaming, direction)
            assert sketched.throughput_gbps == pytest.approx(
                kept.throughput_gbps, rel=0.02
            )
            assert sketched.packet_rate_pps == pytest.approx(
                kept.packet_rate_pps, rel=0.02
            )

    def test_streaming_keeps_no_per_packet_state(self):
        simulator = NicDatapathSimulator(
            NicSimParams(
                model="dpdk",
                offered_load_gbps=10.0,
                packets=400,
                seed=3,
                retain_samples=False,
            )
        )
        result = simulator.run()
        assert result.tx.delivered_packets > 0
        # No trace arrays survive a streaming run — that is the point.
        assert simulator.last_traces == {}

    def test_streaming_multiqueue_direction_merges_queue_sketches(self):
        result = run_nicsim_benchmark(
            RUN.with_(
                system=None, num_queues=4, rss="zipf", retain_samples=False
            )
        )
        assert result.tx.queues is not None and len(result.tx.queues) == 4
        merged = result.tx.latency
        assert merged is not None and merged.sketch is not None
        queue_counts = sum(
            queue.latency.count
            for queue in result.tx.queues
            if queue.latency is not None
        )
        assert merged.count == queue_counts
        assert result.tx.delivered_packets == sum(
            queue.delivered_packets for queue in result.tx.queues
        )

    def test_streaming_fabric_contention_run(self):
        devices = (
            NicSimParams(
                model="dpdk",
                workload="fixed",
                packet_size=512,
                offered_load_gbps=5.0,
                packets=300,
                ring_depth=64,
                retain_samples=False,
            ),
            NicSimParams(
                model="kernel",
                workload="imix",
                packets=900,
                retain_samples=False,
            ),
        )
        params = ContentionParams(
            devices=devices, names=("victim", "aggressor"), seed=11
        )
        result = FabricSimulator(params).run()
        for device in result.devices:
            latency = device.result.tx.latency
            assert latency is not None
            assert latency.sketch is not None
            assert latency.count > 0

    def test_warmup_threshold_matches_retained_rule_shape(self):
        # Small runs: floor is half the run (capped by ring depth).
        assert _streaming_warmup_threshold(100, ring_depth=512) == 50
        # Large runs: the warmup fraction dominates.
        assert _streaming_warmup_threshold(10_000, ring_depth=512) == 2500


class TestEmptyLatencySummary:
    def test_from_samples_empty_returns_empty_summary(self):
        summary = LatencySummary.from_samples(np.array([]))
        assert summary == LatencySummary.empty()
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_empty_summary_round_trips(self):
        empty = LatencySummary.empty()
        assert LatencySummary.from_dict(empty.as_dict()) == empty

    def test_from_sketch_empty_is_empty(self):
        assert LatencySummary.from_sketch(QuantileSketch()) == LatencySummary.empty()

    def test_from_sketch_statistics(self):
        sketch = QuantileSketch()
        # 2000 samples, the top 0.05% at 1000ns: nearest-rank p99.9 (the
        # order statistic at floor(0.999 * 1999) = 1997... i.e. 100.0 for
        # the bulk, 1000.0 only above rank 1998) matches numpy's "lower".
        samples = [100.0] * 1998 + [1000.0, 1000.0]
        sketch.add_many(samples)
        summary = LatencySummary.from_sketch(sketch)
        assert summary.count == 2000
        assert summary.minimum == 100.0
        assert summary.maximum == 1000.0
        assert summary.median == pytest.approx(100.0, rel=0.005)
        exact_p999 = float(np.percentile(samples, 99.9, method="lower"))
        assert summary.p999 == pytest.approx(exact_p999, rel=0.005)
        assert summary.sketch is sketch
        restored = LatencySummary.from_dict(summary.as_dict())
        assert restored == summary
        assert restored.sketch == sketch
