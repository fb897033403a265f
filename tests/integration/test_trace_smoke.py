"""Tracing integration: zero perturbation when off, real spans when on."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.sim.engine import ARBITER_SCHEMES
from repro.obs import (
    ARB_PREFIX,
    PACKET_STAGES,
    STAGE_COMPLETION,
    STAGE_RING,
    MetricsRegistry,
    Tracer,
)


def _nicsim_params() -> NicSimParams:
    return NicSimParams(
        model="dpdk",
        workload="bursty",
        packet_size=512,
        packets=200,
        dma_tags=16,
        system="NFP6000-HSW",
        iommu_enabled=True,
        seed=3,
    )


def _contend_params() -> ContentionParams:
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=150, aggressor_packets=400
    )
    return ContentionParams(
        devices=(victim, aggressor),
        names=("victim", "aggressor"),
        iommu_enabled=True,
        seed=7,
    )


class TestTracingDoesNotPerturb:
    """The observability layer must be invisible to the simulation."""

    def test_nicsim_result_bit_identical_under_tracing(self) -> None:
        baseline = run_nicsim_benchmark(_nicsim_params()).as_dict()
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced = run_nicsim_benchmark(
            _nicsim_params(), tracer=tracer, metrics=metrics
        ).as_dict()
        assert traced.pop("metrics") is not None
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        assert len(tracer) > 0

    def test_contend_result_bit_identical_under_tracing(self) -> None:
        baseline = run_contention_benchmark(_contend_params()).as_dict()
        tracer = Tracer()
        metrics = MetricsRegistry()
        traced = run_contention_benchmark(
            _contend_params(), tracer=tracer, metrics=metrics
        ).as_dict()
        assert traced.pop("metrics") is not None
        assert json.dumps(baseline, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        assert len(tracer) > 0


class TestSpanSemantics:
    def test_every_delivered_packet_has_a_complete_telescoping_trace(
        self,
    ) -> None:
        tracer = Tracer()
        result = run_nicsim_benchmark(_nicsim_params(), tracer=tracer)
        record = result.as_dict()
        delivered = record["tx"]["delivered_packets"] + (
            record["rx"]["delivered_packets"] if result.rx is not None else 0
        )
        traces: dict[tuple[str, int], dict[str, tuple[float, float]]] = {}
        for span in tracer.spans:
            if span.stage in PACKET_STAGES:
                traces.setdefault((span.lane, span.packet), {})[span.stage] = (
                    span.start_ns,
                    span.duration_ns,
                )
        complete = {
            key: stages
            for key, stages in traces.items()
            if len(stages) == len(PACKET_STAGES)
        }
        assert len(complete) == delivered
        for stages in complete.values():
            total = sum(duration for _, duration in stages.values())
            end = stages[STAGE_COMPLETION][0] + stages[STAGE_COMPLETION][1]
            latency = end - stages[STAGE_RING][0]
            assert total == pytest.approx(latency, rel=1e-12)

    def test_contention_produces_per_hop_arbitration_spans(self) -> None:
        tracer = Tracer()
        run_contention_benchmark(_contend_params(), tracer=tracer)
        stages = {span.stage for span in tracer.spans}
        assert any(stage.startswith(ARB_PREFIX) for stage in stages)
        assert any(stage.endswith("@root") for stage in stages)
        assert "walker" in stages

    @pytest.mark.parametrize("scheme", ARBITER_SCHEMES)
    def test_flat_root_spans_are_the_ports_waits(self, scheme) -> None:
        # A traced flat request takes a one-hop ascent to the root arbiter.
        # Each grant that waited records one arb:<resource>@root span of
        # exactly that wait, so per device and resource the spans count
        # the port's waited grants and sum, in record (= grant) order, to
        # its wait_ns_total bit for bit.
        victim, aggressor = noisy_neighbour_pair(
            victim_packets=300, aggressor_packets=2400
        )
        params = ContentionParams(
            devices=(victim, aggressor),
            names=("victim", "aggressor"),
            iommu_enabled=True,
            arbiter=scheme,
            seed=7,
        )
        tracer = Tracer(capacity=1 << 20)
        result = run_contention_benchmark(params, tracer=tracer)
        assert tracer.evicted == 0
        spans = tracer.spans
        for name in ("victim", "aggressor"):
            record = result.device(name)
            for resource in ("ingress", "walker"):
                port = getattr(record, resource)
                stage = f"{ARB_PREFIX}{resource}@root"
                waits = [
                    span.duration_ns
                    for span in spans
                    if span.device == name and span.stage == stage
                ]
                assert len(waits) == port.waited > 0, (name, resource)
                total = 0.0
                for wait in waits:
                    total += wait
                assert total == port.wait_ns_total, (name, resource)

    def test_flight_recorder_bounds_memory(self) -> None:
        tracer = Tracer(capacity=256)
        run_contention_benchmark(_contend_params(), tracer=tracer)
        assert len(tracer) == 256
        assert tracer.evicted == tracer.recorded - 256
        assert tracer.evicted > 0


class TestMetricsIntegration:
    def test_metrics_counters_match_result_totals(self) -> None:
        metrics = MetricsRegistry()
        result = run_nicsim_benchmark(_nicsim_params(), metrics=metrics)
        summary = result.as_dict()
        record = metrics.as_dict()
        for direction in ("tx", "rx"):
            assert (
                record["counters"][f"nicsim.nic.{direction}.delivered_packets"]
                == summary[direction]["delivered_packets"]
            )
        assert len(record["windows"]) > 0
        # Window deltas of each counter sum to at most its cumulative
        # total (the run's last partial window is only closed at finish).
        for name, total in record["counters"].items():
            deltas = sum(row["counters"][name] for row in record["windows"])
            assert deltas <= total
        latency = record["histograms"]["nicsim.nic.tx.latency_ns"]
        assert latency["count"] == summary["tx"]["delivered_packets"]
        assert latency["p99"] == pytest.approx(
            summary["tx"]["latency_ns"]["p99"], rel=0.05
        )

    def test_metrics_ride_the_serialised_result(self) -> None:
        metrics = MetricsRegistry()
        result = run_nicsim_benchmark(_nicsim_params(), metrics=metrics)
        record = result.as_dict()
        assert record["metrics"]["counters"] == metrics.as_dict()["counters"]
        rebuilt = type(result).from_dict(record)
        assert rebuilt.metrics == result.metrics

    def test_plain_run_serialises_without_metrics_key(self) -> None:
        record = run_nicsim_benchmark(_nicsim_params()).as_dict()
        assert "metrics" not in record
