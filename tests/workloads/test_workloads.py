"""Tests for the traffic-workload subsystem (sizes, arrivals, schedules)."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.sim.rng import SimRng
from repro.workloads import (
    IMIX,
    SATURATING_LOAD_GBPS,
    BurstyArrivals,
    FixedSize,
    PacketSchedule,
    PoissonArrivals,
    SingleHotFlow,
    TrimodalSize,
    UniformArrivals,
    UniformFlows,
    UniformSize,
    Workload,
    ZipfFlows,
    build_flow_model,
    build_workload,
    canonical_flow_name,
    flow_model_names,
    rss_queue,
    rss_queues,
    workload_names,
)


def _rng():
    return SimRng(7).spawn("test")


class TestSizeDistributions:
    def test_fixed_size_is_constant(self):
        sizes = FixedSize(256).sample(100, _rng())
        assert (sizes == 256).all()
        assert FixedSize(256).mean_size() == 256.0

    def test_uniform_size_stays_in_range(self):
        dist = UniformSize(64, 1518)
        sizes = dist.sample(5000, _rng())
        assert sizes.min() >= 64
        assert sizes.max() <= 1518
        assert dist.mean_size() == pytest.approx(791.0)

    def test_imix_uses_only_the_three_frame_sizes(self):
        sizes = IMIX.sample(12_000, _rng())
        values, counts = np.unique(sizes, return_counts=True)
        assert set(values) == {64, 594, 1518}
        fractions = dict(zip(values, counts / sizes.size))
        assert fractions[64] == pytest.approx(7 / 12, abs=0.03)
        assert fractions[594] == pytest.approx(4 / 12, abs=0.03)
        assert fractions[1518] == pytest.approx(1 / 12, abs=0.03)

    def test_trimodal_mean(self):
        dist = TrimodalSize((100, 200), (1.0, 1.0))
        assert dist.mean_size() == pytest.approx(150.0)

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            FixedSize(0)
        with pytest.raises(ValidationError):
            UniformSize(512, 64)
        with pytest.raises(ValidationError):
            TrimodalSize((64,), (1.0, 2.0))
        with pytest.raises(ValidationError):
            TrimodalSize((64, 128), (1.0, -1.0))
        with pytest.raises(ValidationError):
            FixedSize(64).sample(0, _rng())


class TestArrivalProcesses:
    def test_uniform_arrivals_keep_nominal_gaps(self):
        nominal = np.full(50, 12.5)
        gaps = UniformArrivals().gaps(nominal, _rng())
        assert np.allclose(gaps, nominal)

    def test_poisson_arrivals_preserve_mean_rate(self):
        nominal = np.full(50_000, 20.0)
        gaps = PoissonArrivals().gaps(nominal, _rng())
        assert gaps.mean() == pytest.approx(20.0, rel=0.05)
        assert gaps.std() > 10.0  # exponential, not deterministic

    def test_bursty_arrivals_preserve_total_time_exactly(self):
        nominal = np.full(1024, 10.0)
        arrivals = BurstyArrivals(burst_size=32, peak_factor=8.0)
        gaps = arrivals.gaps(nominal, _rng())
        # The final burst's idle credit is redistributed over the other
        # inter-burst gaps, so the total time is preserved exactly.
        assert gaps.sum() == pytest.approx(nominal.sum(), rel=1e-9)
        # Within a burst, arrivals run peak_factor times faster.
        assert gaps[1] == pytest.approx(10.0 / 8.0)

    def test_bursty_realised_load_matches_request(self):
        workload = build_workload("bursty", size=512, load_gbps=5.0)
        schedule = workload.generate(320, SimRng(1))
        assert schedule.offered_load_gbps() == pytest.approx(5.0, rel=0.02)

    def test_bursty_realised_load_exact_with_partial_final_burst(self):
        # 40 packets with burst_size 32 leaves an 8-packet final burst; the
        # idle redistribution must account for its saved time too.
        workload = build_workload("bursty", size=512, load_gbps=24.0)
        schedule = workload.generate(40, SimRng(1))
        assert schedule.offered_load_gbps() == pytest.approx(24.0, rel=0.05)

    def test_bursty_single_burst_rejected(self):
        # With one burst every packet would arrive at peak rate — 8x the
        # configured load — so short runs are refused outright.
        workload = build_workload("bursty", size=512, load_gbps=5.0)
        with pytest.raises(ValidationError):
            workload.generate(32, SimRng(1))

    def test_bursty_validation(self):
        with pytest.raises(ValidationError):
            BurstyArrivals(burst_size=1)
        with pytest.raises(ValidationError):
            BurstyArrivals(peak_factor=1.0)


class TestWorkloads:
    def test_schedule_starts_at_zero_and_is_monotonic(self):
        workload = build_workload("imix", load_gbps=20.0)
        schedule = workload.generate(2000, SimRng(3))
        times = schedule.arrival_times_ns
        assert times[0] == 0.0
        assert (np.diff(times) >= 0).all()

    def test_offered_load_matches_request(self):
        workload = build_workload("fixed", size=512, load_gbps=25.0)
        schedule = workload.generate(4000, SimRng(3))
        assert schedule.offered_load_gbps() == pytest.approx(25.0, rel=0.02)

    def test_offered_load_unbiased_for_mixed_sizes(self):
        # The realised-load estimate must hold exactly for smooth arrivals
        # even when frame sizes vary wildly (the span excludes the first
        # packet's source slot, not the last one's bytes).
        workload = build_workload("uniform", load_gbps=25.0)
        schedule = workload.generate(2000, SimRng(3))
        assert schedule.offered_load_gbps() == pytest.approx(25.0, rel=1e-9)

    @pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
    def test_non_finite_offered_load_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite and positive"):
            build_workload("imix", load_gbps=bad)

    def test_saturating_default(self):
        workload = build_workload("fixed")
        assert workload.is_saturating
        assert workload.load_gbps == SATURATING_LOAD_GBPS

    def test_same_seed_reproduces_schedule(self):
        workload = build_workload("bursty-imix", load_gbps=30.0)
        a = workload.generate(500, SimRng(11))
        b = workload.generate(500, SimRng(11))
        assert np.array_equal(a.sizes, b.sizes)
        assert np.allclose(a.arrival_times_ns, b.arrival_times_ns)

    def test_tx_and_rx_streams_are_independent(self):
        workload = build_workload("imix", load_gbps=30.0)
        rng = SimRng(11)
        tx = workload.generate(500, rng, stream="tx")
        rx = workload.generate(500, rng, stream="rx")
        assert not np.array_equal(tx.sizes, rx.sizes)

    def test_registry_names_and_unknown_workload(self):
        names = workload_names()
        for expected in ("fixed", "imix", "uniform", "poisson", "bursty"):
            assert expected in names
        with pytest.raises(ValidationError):
            build_workload("carrier-pigeon")

    def test_workload_validation(self):
        with pytest.raises(ValidationError):
            build_workload("fixed", load_gbps=-1.0)
        workload = build_workload("fixed")
        with pytest.raises(ValidationError):
            workload.generate(0, SimRng(1))

    def test_with_and_describe(self):
        workload = build_workload("fixed", size=256)
        tx_only = workload.with_(duplex=False)
        assert not tx_only.duplex
        description = workload.describe()
        assert description["name"] == "fixed"
        assert description["duplex"] is True


class TestFlowModels:
    def test_uniform_flows_stay_in_range(self):
        model = UniformFlows(16)
        labels = model.sample(5000, _rng())
        assert labels.min() >= 0
        assert labels.max() < 16
        # Every flow shows up under a uniform draw of this size.
        assert np.unique(labels).size == 16

    def test_zipf_flows_rank_zero_dominates(self):
        model = ZipfFlows(flows=32, skew=1.2)
        labels = model.sample(20_000, _rng())
        values, counts = np.unique(labels, return_counts=True)
        by_flow = dict(zip(values, counts))
        assert by_flow[0] == max(by_flow.values())
        # Zipf with s=1.2 over 32 flows puts roughly a quarter of the
        # packets on the top flow; check the heavy head loosely.
        assert by_flow[0] / labels.size > 0.15

    def test_single_hot_flow_carries_the_configured_fraction(self):
        model = SingleHotFlow(flows=16, hot_fraction=0.9)
        labels = model.sample(20_000, _rng())
        hot_share = (labels == 0).sum() / labels.size
        assert hot_share == pytest.approx(0.9, abs=0.02)
        background = labels[labels != 0]
        assert background.min() >= 1
        assert background.max() < 16

    def test_builder_names_and_aliases(self):
        assert flow_model_names() == ["uniform", "zipf", "hot"]
        assert isinstance(build_flow_model("uniform"), UniformFlows)
        assert isinstance(build_flow_model("skewed"), ZipfFlows)
        assert isinstance(build_flow_model("single-hot-flow"), SingleHotFlow)
        assert canonical_flow_name("Skewed") == "zipf"
        with pytest.raises(ValidationError):
            build_flow_model("round-robin")

    def test_flow_model_validation(self):
        with pytest.raises(ValidationError):
            UniformFlows(0)
        with pytest.raises(ValidationError):
            ZipfFlows(flows=8, skew=0.0)
        with pytest.raises(ValidationError):
            SingleHotFlow(flows=1)
        with pytest.raises(ValidationError):
            SingleHotFlow(flows=8, hot_fraction=1.0)


class TestRssSteering:
    def test_mapping_is_deterministic_per_seed(self):
        flows = np.arange(1000, dtype=np.int64)
        first = rss_queues(flows, 8, seed=42)
        second = rss_queues(flows, 8, seed=42)
        assert np.array_equal(first, second)
        assert first.min() >= 0
        assert first.max() < 8

    def test_reseeding_rekeys_the_hash(self):
        flows = np.arange(1000, dtype=np.int64)
        a = rss_queues(flows, 8, seed=1)
        b = rss_queues(flows, 8, seed=2)
        assert not np.array_equal(a, b)

    def test_uniform_flows_spread_roughly_evenly(self):
        flows = np.arange(4096, dtype=np.int64)
        counts = np.bincount(rss_queues(flows, 4, seed=7), minlength=4)
        assert counts.min() > 0.8 * flows.size / 4

    def test_single_queue_short_circuits(self):
        flows = np.arange(100, dtype=np.int64)
        assert (rss_queues(flows, 1, seed=9) == 0).all()

    def test_scalar_wrapper_matches_vector(self):
        flows = np.arange(50, dtype=np.int64)
        mapped = rss_queues(flows, 4, seed=3)
        for flow in range(50):
            assert rss_queue(flow, 4, seed=3) == mapped[flow]

    def test_validation(self):
        with pytest.raises(ValidationError):
            rss_queues(np.arange(4), 0)
        with pytest.raises(ValidationError):
            rss_queues(np.asarray([-1, 2]), 4)


class TestFlowLabelledSchedules:
    def test_schedule_without_flow_model_is_unlabelled(self):
        schedule = build_workload("imix").generate(200, SimRng(5))
        assert schedule.flows is None
        assert schedule.packet(0).flow == 0

    def test_flow_model_labels_every_packet(self):
        workload = build_workload("imix").with_(flows=build_flow_model("zipf"))
        schedule = workload.generate(200, SimRng(5))
        assert schedule.flows is not None
        assert schedule.flows.size == 200
        packet = schedule.packet(3)
        assert packet.size == int(schedule.sizes[3])
        assert packet.flow == int(schedule.flows[3])
        assert packet.arrival_ns == float(schedule.arrival_times_ns[3])

    def test_attaching_flows_keeps_sizes_and_gaps_bit_identical(self):
        # The backward-compatibility keystone: flow labels are drawn after
        # sizes and gaps, so a flow model must not perturb either — this
        # is what keeps single-queue goldens unchanged.
        plain = build_workload("bursty-imix", load_gbps=30.0)
        labelled = plain.with_(flows=build_flow_model("hot"))
        a = plain.generate(500, SimRng(11))
        b = labelled.generate(500, SimRng(11))
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.arrival_times_ns, b.arrival_times_ns)

    def test_describe_names_the_flow_model(self):
        workload = build_workload("fixed").with_(flows=build_flow_model("hot"))
        assert workload.describe()["flows"] == "hot-64f-0.9"
        assert "flows" not in build_workload("fixed").describe()

    def test_mismatched_flow_length_rejected(self):
        with pytest.raises(ValidationError):
            PacketSchedule(
                arrival_times_ns=np.asarray([0.0, 1.0]),
                sizes=np.asarray([64, 64]),
                flows=np.asarray([1]),
            )
