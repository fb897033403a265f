"""Regression tests for the bounded DMA tag pool (the Figure 8 dip).

Pins the tentpole behaviour of the multi-queue/bounded-tags PR: with a
small tag pool, remote-NUMA placement must cost *throughput* (the paper's
Figure 8 bandwidth dip); with the pool unbounded the dip must vanish and
the coupled datapath must stay inside the 10% analytic agreement band the
earlier PRs established.  The margins are guarded (0.9x / 2% / 10%) so a
regression that merely weakens the effect still fails loudly.
"""

from __future__ import annotations

import pytest

from repro.bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from repro.errors import ValidationError
from repro.units import KIB

#: The experiment's setting: small packets (the remote adder is a large
#: fraction of the DMA round trip), warm window inside IOTLB/DDIO reach.
PACKET_SIZE = 256
PACKETS = 2200
SMALL_TAGS = 4


#: The link-only DPDK datapath the mechanics tests vary.
DPDK = NicSimParams(model="dpdk", packets=1200)


def _coupled(placement: str) -> NicSimParams:
    return NicSimParams(
        model="dpdk",
        packet_size=PACKET_SIZE,
        system="NFP6000-BDW",
        payload_window=256 * KIB,
        payload_placement=placement,
    )


def _run(placement: str, tags: int | None):
    return run_nicsim_benchmark(
        _coupled(placement).with_(packets=PACKETS, dma_tags=tags)
    )


class TestFigure8Dip:
    """The acceptance criterion of the bounded-tags tentpole."""

    def test_small_tag_pool_reproduces_remote_numa_throughput_dip(self):
        local = _run("local", SMALL_TAGS)
        remote = _run("remote", SMALL_TAGS)
        # Guarded margin: the dip must be at least 10% of local throughput.
        assert remote.throughput_gbps <= 0.9 * local.throughput_gbps, (
            f"expected >=10% dip, got local {local.throughput_gbps:.2f} vs "
            f"remote {remote.throughput_gbps:.2f} Gb/s"
        )
        # The pool really is the binding resource in both runs.
        assert local.tags is not None and remote.tags is not None
        assert local.tags.max_in_flight == SMALL_TAGS
        assert remote.tags.max_in_flight == SMALL_TAGS
        assert remote.tags.waited > 0

    def test_dip_vanishes_with_unbounded_tags(self):
        local = _run("local", None)
        remote = _run("remote", None)
        gap = abs(local.throughput_gbps - remote.throughput_gbps)
        assert gap <= 0.02 * local.throughput_gbps, (
            f"unbounded tags must erase the dip: local "
            f"{local.throughput_gbps:.2f} vs remote "
            f"{remote.throughput_gbps:.2f} Gb/s"
        )
        # Unbounded runs carry no tag accounting at all.
        assert local.tags is None and remote.tags is None

    @pytest.mark.parametrize("placement", ["local", "remote"])
    def test_unbounded_tags_keep_the_analytic_band(self, placement):
        points = cross_validate(
            _coupled(placement).with_(packets=2000), (PACKET_SIZE,)
        )
        for point in points:
            assert point.within(0.10), (
                f"{placement}: simulated {point.simulated_gbps:.2f} vs "
                f"analytic {point.analytic_gbps:.2f} Gb/s"
            )


class TestTagPoolMechanics:
    def test_tiny_pool_caps_link_only_throughput(self):
        # Even without a host model the flat read latency bounds what two
        # tags can keep in flight; the cap must be far below the link.
        capped = run_nicsim_benchmark(DPDK.with_(dma_tags=2))
        unbounded = run_nicsim_benchmark(DPDK)
        assert capped.throughput_gbps < 0.6 * unbounded.throughput_gbps
        assert capped.tags is not None
        assert capped.tags.max_in_flight == 2
        assert capped.tags.waited > 0

    def test_deep_pool_is_equivalent_to_unbounded(self):
        # A pool deeper than the datapath's natural concurrency changes
        # nothing but the accounting block.
        deep = run_nicsim_benchmark(DPDK.with_(dma_tags=4096))
        unbounded = run_nicsim_benchmark(DPDK)
        assert deep.tags is not None
        assert deep.tags.max_in_flight < 4096
        assert deep.tags.waited == 0
        stripped = deep.as_dict()
        stripped.pop("tags")
        assert stripped == unbounded.as_dict()

    def test_tag_stats_round_trip_and_serialise(self):
        result = run_nicsim_benchmark(
            DPDK.with_(packets=800, packet_size=512, dma_tags=8)
        )
        record = result.as_dict()
        assert record["tags"]["capacity"] == 8
        from repro.sim.nicsim import NicSimResult

        assert NicSimResult.from_dict(record) == result

    def test_dma_tags_validation(self):
        with pytest.raises(ValidationError):
            NicSimParams(dma_tags=0)
        with pytest.raises(ValidationError):
            NicSimParams(dma_tags=-4)
        with pytest.raises(ValidationError):
            NicSimParams(num_queues=0)
        with pytest.raises(ValidationError):
            NicSimParams(num_queues=1000)
