"""Tests for NIC datapath simulation parameters and runner integration."""

import math

import pytest

from repro.bench.nicsim import NICSIM_KIND, NicSimParams, run_nicsim_benchmark
from repro.bench.params import BenchmarkParams
from repro.bench.runner import BenchmarkRunner
from repro.errors import ValidationError
from repro.sim.nicsim import NicSimResult

#: Every record that carries an RSS indirection table, built for
#: ``num_queues`` queues with table ``table``.
RSS_TABLE_OWNERS = {
    "NicSimParams": lambda num_queues, table: NicSimParams(
        model="dpdk", num_queues=num_queues, rss_table=table
    ),
}


class TestNicSimParams:
    def test_model_aliases_normalised(self):
        assert NicSimParams(model="dpdk").model == "Modern NIC (DPDK driver)"
        assert NicSimParams(model="simple").model == "Simple NIC"

    def test_unknown_model_and_workload_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(model="quantum")
        with pytest.raises(ValidationError):
            NicSimParams(workload="morse-code")

    def test_numeric_validation(self):
        with pytest.raises(ValidationError):
            NicSimParams(packets=0)
        with pytest.raises(ValidationError):
            NicSimParams(packet_size=-64)
        with pytest.raises(ValidationError):
            NicSimParams(ring_depth=0)
        with pytest.raises(ValidationError):
            NicSimParams(offered_load_gbps=0.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
    def test_non_finite_load_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite and positive"):
            NicSimParams(offered_load_gbps=bad)

    def test_label_mentions_the_interesting_knobs(self):
        label = NicSimParams(
            model="kernel", workload="bursty", packet_size=256,
            offered_load_gbps=24.0, duplex=False,
        ).label()
        assert NICSIM_KIND in label
        assert "bursty" in label
        assert "256B" in label
        assert "24Gb/s" in label
        assert "tx-only" in label

    def test_kind_and_dict_round_trip(self):
        params = NicSimParams(
            model="dpdk", workload="imix", offered_load_gbps=30.0, seed=9
        )
        assert params.kind == NICSIM_KIND
        restored = NicSimParams.from_dict(params.as_dict())
        assert restored == params

    def test_with_derives_variants(self):
        base = NicSimParams(model="dpdk")
        variant = base.with_(ring_depth=64, workload="bursty")
        assert variant.ring_depth == 64
        assert variant.model == base.model


class TestMultiQueueAndTagParams:
    def test_queue_and_tag_knobs_round_trip(self):
        params = NicSimParams(
            model="dpdk", workload="imix", num_queues=4, rss="skewed",
            dma_tags=16, seed=2,
        )
        assert params.rss == "zipf"  # alias canonicalised
        record = params.as_dict()
        assert record["num_queues"] == 4
        assert record["rss"] == "zipf"
        assert record["dma_tags"] == 16
        assert NicSimParams.from_dict(record) == params

    def test_non_default_rss_survives_single_queue_round_trip(self):
        # The rss key must be gated on its own default, not on num_queues:
        # a single-queue params with rss="hot" still round-trips exactly.
        params = NicSimParams(model="dpdk", rss="hot", num_queues=1)
        assert NicSimParams.from_dict(params.as_dict()) == params

    def test_default_knobs_are_omitted_from_serialisation(self):
        record = NicSimParams(model="dpdk").as_dict()
        for key in ("num_queues", "rss", "dma_tags"):
            assert key not in record

    def test_label_mentions_queue_and_tag_knobs(self):
        label = NicSimParams(
            model="dpdk", num_queues=4, rss="hot", dma_tags=8
        ).label()
        assert "queues=4" in label
        assert "rss=hot" in label
        assert "tags=8" in label
        single = NicSimParams(model="dpdk").label()
        assert "queues=" not in single
        assert "tags=" not in single

    def test_invalid_queue_and_tag_knobs_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", num_queues=0)
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", num_queues=300)
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", dma_tags=0)
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", rss="round-robin")

    @pytest.mark.parametrize("owner", sorted(RSS_TABLE_OWNERS))
    @pytest.mark.parametrize(
        "num_queues, table, message",
        [
            (1, (0,), "requires num_queues > 1"),
            (4, (), "must not be empty"),
            (4, (0, 4), r"queue indices in \[0, 4\), got 4"),
            (4, (1, -1), r"queue indices in \[0, 4\), got -1"),
        ],
    )
    def test_malformed_rss_table_rejected_at_construction(
        self, owner, num_queues, table, message
    ):
        with pytest.raises(ValidationError, match=message):
            RSS_TABLE_OWNERS[owner](num_queues, table)

    @pytest.mark.parametrize("owner", sorted(RSS_TABLE_OWNERS))
    def test_rss_table_canonicalised_to_int_tuple(self, owner):
        built = RSS_TABLE_OWNERS[owner](4, [3, 0.0, True])
        assert built.rss_table == (3, 0, 1)
        assert all(type(entry) is int for entry in built.rss_table)
        assert RSS_TABLE_OWNERS[owner](4, None).rss_table is None

    def test_multiqueue_tagged_run_partitions_and_accounts(self):
        params = NicSimParams(
            model="dpdk", workload="imix", packets=300,
            offered_load_gbps=10.0, num_queues=2, dma_tags=16, seed=4,
        )
        result = run_nicsim_benchmark(params)
        assert result.tx.queues is not None and len(result.tx.queues) == 2
        assert (
            sum(queue.offered_packets for queue in result.tx.queues) == 300
        )
        assert result.tags is not None
        assert result.tags.capacity == 16


class TestRecordsThatConstructRun:
    """Rules a run depends on are rules of the record."""

    @pytest.mark.parametrize(
        "model, batch", (("kernel", 16), ("dpdk", 8), ("simple", 1))
    )
    @pytest.mark.parametrize("duplex", (True, False), ids=("duplex", "tx-only"))
    def test_ring_must_hold_one_completion_report_batch(
        self, model, batch, duplex
    ):
        # Ring entries free only when a completion report fires, after a
        # batch of payloads: a shallower ring could never report one.
        if batch > 1:
            with pytest.raises(ValidationError, match="completion-report batch"):
                NicSimParams(
                    model=model, ring_depth=batch - 1, duplex=duplex, packets=50
                )
        result = run_nicsim_benchmark(
            NicSimParams(model=model, ring_depth=batch, duplex=duplex, packets=50)
        )
        assert result.tx.delivered_packets == 50

    @pytest.mark.parametrize("workload", ("bursty", "bursty-imix"))
    def test_bursty_traffic_needs_two_bursts(self, workload, monkeypatch):
        from repro.workloads.arrivals import BurstyArrivals

        with pytest.raises(ValidationError, match="at least 33 packets"):
            NicSimParams(workload=workload, packets=32)
        # The rule reads the arrival process; it draws no schedule.
        def no_schedule(*_args, **_kwargs):
            raise AssertionError("a record must not generate its schedule")

        monkeypatch.setattr(BurstyArrivals, "gaps", no_schedule)
        NicSimParams(workload=workload, packets=33)
        monkeypatch.undo()
        result = run_nicsim_benchmark(
            NicSimParams(workload=workload, packets=33, offered_load_gbps=10.0)
        )
        assert result.tx.offered_packets == 33


class TestHostCouplingParams:
    def test_host_fields_default_to_decoupled(self):
        params = NicSimParams(model="dpdk")
        assert params.system is None
        assert not params.iommu_enabled

    def test_system_and_host_fields_normalised(self):
        params = NicSimParams(
            model="dpdk", system="nfp6000-bdw", iommu_enabled=True,
            payload_window=1024 * 1024, payload_cache_state="warm",
        )
        assert params.system == "NFP6000-BDW"
        assert params.payload_cache_state == "host_warm"
        assert params.iommu_enabled
        assert params.payload_window == 1024 * 1024

    def test_iommu_and_remote_require_a_system(self):
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", iommu_enabled=True)
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", payload_placement="remote")

    def test_invalid_host_knobs_rejected(self):
        with pytest.raises(ValidationError):
            NicSimParams(model="dpdk", system="NFP6000-BDW", iommu_page_size=8192)
        with pytest.raises(ValidationError):
            NicSimParams(
                model="dpdk", system="NFP6000-HSW", payload_placement="remote"
            )

    def test_label_mentions_host_knobs(self):
        label = NicSimParams(
            model="dpdk", system="NFP6000-BDW", iommu_enabled=True,
            payload_window=16 * 1024 * 1024, payload_placement="remote",
            payload_cache_state="device_warm",
        ).label()
        assert "host=NFP6000-BDW" in label
        assert "window=16M" in label
        assert "iommu(4K pages)" in label
        assert "remote" in label
        assert "device_warm" in label

    def test_host_fields_round_trip(self):
        params = NicSimParams(
            model="kernel", system="NFP6000-BDW", iommu_enabled=True,
            iommu_page_size=2 * 1024 * 1024, payload_window=4 * 1024 * 1024,
            payload_placement="remote", seed=3,
        )
        assert NicSimParams.from_dict(params.as_dict()) == params

    def test_coupled_run_produces_host_stats(self):
        params = NicSimParams(
            model="dpdk", packets=300, packet_size=512,
            offered_load_gbps=10.0, system="NFP6000-HSW",
            payload_window=256 * 1024,
        )
        result = run_nicsim_benchmark(params)
        assert result.host is not None
        assert result.host.accesses > 0


class TestRunnerIntegration:
    def test_run_dispatches_nicsim_params(self):
        runner = BenchmarkRunner()
        result = runner.run(
            NicSimParams(model="dpdk", packets=400, packet_size=512)
        )
        assert isinstance(result, NicSimResult)
        assert result.tx.delivered_packets == 400

    def test_run_all_handles_mixed_parameter_lists(self):
        runner = BenchmarkRunner()
        params_list = [
            BenchmarkParams(kind="BW_WR", transfer_size=256, transactions=300),
            NicSimParams(model="kernel", packets=400, packet_size=512),
        ]
        results = runner.run_all(params_list)
        assert results[0].bandwidth_gbps is not None
        assert isinstance(results[1], NicSimResult)

    def test_run_nicsim_benchmark_is_deterministic(self):
        params = NicSimParams(
            model="dpdk", workload="imix", packets=400,
            offered_load_gbps=20.0, seed=3,
        )
        assert run_nicsim_benchmark(params) == run_nicsim_benchmark(params)

    def test_save_json_accepts_mixed_results(self, tmp_path):
        import json

        runner = BenchmarkRunner()
        results = runner.run_all(
            [
                BenchmarkParams(kind="BW_WR", transfer_size=256, transactions=200),
                NicSimParams(model="dpdk", packets=200, packet_size=512),
            ]
        )
        path = tmp_path / "mixed.json"
        runner.save(results, path)
        records = json.loads(path.read_text())
        assert len(records) == 2
        assert "bandwidth_gbps" in records[0]
        assert records[1]["kind"] == "NICSIM"
        assert records[1]["model"] == "Modern NIC (DPDK driver)"
        # And the mixed file loads back into typed results.
        from repro.bench.results import load_results_json

        loaded = load_results_json(path)
        assert loaded[0] == results[0]
        assert loaded[1] == results[1]

    def test_save_csv_rejects_simulation_results(self, tmp_path):
        from repro.errors import BenchmarkError

        runner = BenchmarkRunner()
        results = runner.run_all([NicSimParams(model="dpdk", packets=150)])
        with pytest.raises(BenchmarkError):
            runner.save(results, tmp_path / "out.csv", fmt="csv")
