"""Tests for the contention analysis helpers and the summary-table edge
cases the per-device tables share code with (zero-packet queues, unbounded
tag pools, missing host stats)."""

from __future__ import annotations

import pytest

from repro.analysis.contention import (
    device_slowdowns,
    format_contention_summary,
    jain_fairness_index,
)
from repro.analysis.table import format_nicsim_summary
from repro.errors import AnalysisError


class TestJainFairnessIndex:
    def test_equal_allocations_are_perfectly_fair(self):
        assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_taker_hits_the_floor(self):
        assert jain_fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_default_to_fair(self):
        assert jain_fairness_index([]) == 1.0
        assert jain_fairness_index([0.0, 0.0]) == 1.0

    def test_negative_allocations_rejected(self):
        with pytest.raises(AnalysisError):
            jain_fairness_index([1.0, -0.5])

    def test_infinite_allocations_take_the_limit(self):
        assert jain_fairness_index([float("inf"), 1.0]) == pytest.approx(0.5)
        assert jain_fairness_index(
            [float("inf"), float("inf"), 1.0, 1.0]
        ) == pytest.approx(0.5)


def _device_record(
    name: str,
    *,
    tx_gbps: float = 5.0,
    rx_gbps: float | None = 5.0,
    p99: float | None = 1000.0,
    drops: int = 0,
    arbitration: bool = True,
) -> dict:
    def path(direction: str, gbps: float) -> dict:
        record = {
            "direction": direction,
            "offered_packets": 100,
            "delivered_packets": 100 - drops,
            "drops": drops,
            "in_flight": 0,
            "payload_bytes": 51200,
            "offered_bytes": 51200,
            "dropped_bytes": 0,
            "throughput_gbps": gbps,
            "packet_rate_pps": 1e6,
            "ring": {
                "depth": 64,
                "posts": 100,
                "drops": drops,
                "max_occupancy": 8,
                "mean_occupancy": 2.0,
            },
        }
        if p99 is not None:
            record["latency_ns"] = {
                "count": 100,
                "mean": p99 / 2,
                "median": p99 / 2,
                "p90": p99 * 0.9,
                "p99": p99,
                "p99.9": p99,
                "min": 10.0,
                "max": p99,
            }
        return record

    record: dict = {
        "name": name,
        "result": {
            "kind": "NICSIM",
            "model": "Modern NIC (DPDK driver)",
            "workload": "fixed",
            "packets": 100,
            "duration_ns": 1e6,
            "throughput_gbps": tx_gbps,
            "link_utilisation_up": 0.5,
            "link_utilisation_down": 0.5,
            "tx": path("tx", tx_gbps),
        },
    }
    if rx_gbps is not None:
        record["result"]["rx"] = path("rx", rx_gbps)
    if arbitration:
        record["ingress"] = {
            "requests": 200,
            "waited": 10,
            "wait_ns_total": 500.0,
            "wait_ns_mean": 2.5,
            "busy_ns_total": 800.0,
        }
        record["walker"] = {
            "requests": 50,
            "waited": 5,
            "wait_ns_total": 5000.0,
            "wait_ns_mean": 100.0,
            "busy_ns_total": 3000.0,
        }
    return record


def _contention_record(**kwargs) -> dict:
    return {
        "kind": "CONTENTION",
        "system": "NFP6000-HSW",
        "arbiter": kwargs.get("arbiter", "wrr"),
        "weights": kwargs.get("weights", [8.0, 1.0]),
        "seed": 1,
        "duration_ns": 1e6,
        "devices": kwargs.get(
            "devices",
            [
                _device_record("victim", rx_gbps=2.5, p99=4000.0),
                _device_record("aggressor", tx_gbps=30.0, rx_gbps=28.0),
            ],
        ),
    }


class TestDeviceSlowdowns:
    def test_ratios_against_solo_baselines(self):
        record = _contention_record()
        solo = {
            "victim": _device_record("victim", p99=1000.0)["result"],
            "aggressor": _device_record(
                "aggressor", tx_gbps=30.0, rx_gbps=28.0
            )["result"],
        }
        slowdowns = device_slowdowns(record, solo)
        assert slowdowns["victim"]["p99"] == pytest.approx(4.0)
        assert slowdowns["victim"]["throughput"] == pytest.approx(2.0)
        assert slowdowns["aggressor"]["p99"] == pytest.approx(1.0)
        assert slowdowns["aggressor"]["throughput"] == pytest.approx(1.0)

    def test_devices_without_baselines_are_skipped(self):
        record = _contention_record()
        slowdowns = device_slowdowns(
            record, {"victim": _device_record("victim")["result"]}
        )
        assert set(slowdowns) == {"victim"}

    def test_starved_device_reports_infinite_slowdown(self):
        record = _contention_record(
            devices=[
                _device_record("victim", tx_gbps=0.0, rx_gbps=0.0, p99=4000.0),
                _device_record("aggressor", tx_gbps=30.0, rx_gbps=28.0),
            ]
        )
        solo = {"victim": _device_record("victim")["result"]}
        slowdowns = device_slowdowns(record, solo)
        assert slowdowns["victim"]["throughput"] == float("inf")

    def test_zero_over_zero_is_neutral(self):
        record = _contention_record(
            devices=[_device_record("victim", tx_gbps=0.0, rx_gbps=0.0)]
        )
        solo = {
            "victim": _device_record("victim", tx_gbps=0.0, rx_gbps=0.0)[
                "result"
            ]
        }
        assert device_slowdowns(record, solo)["victim"]["throughput"] == 1.0


class TestFormatContentionSummary:
    def test_renders_devices_and_weights(self):
        text = format_contention_summary(_contention_record())
        assert "arbiter wrr (weights 8:1)" in text
        assert "victim" in text and "aggressor" in text
        assert "walker wait (ns)" in text

    def test_solo_baselines_add_slowdowns_and_fairness(self):
        solo = {
            "victim": _device_record("victim", p99=1000.0)["result"],
            "aggressor": _device_record(
                "aggressor", tx_gbps=30.0, rx_gbps=28.0
            )["result"],
        }
        text = format_contention_summary(_contention_record(), solo=solo)
        assert "Slowdown vs solo baseline" in text
        assert "Jain fairness index" in text

    def test_solo_run_without_arbitration_renders_dashes(self):
        record = _contention_record(
            devices=[_device_record("dev0", arbitration=False)],
            weights=[1.0],
            arbiter="fcfs",
        )
        text = format_contention_summary(record)
        assert "dev0" in text
        assert "-" in text  # missing arbitration counters render as dashes

    def test_empty_record_rejected(self):
        with pytest.raises(AnalysisError):
            format_contention_summary(_contention_record(devices=[]))


class TestNicsimSummaryEdgeCases:
    """The edge cases the new per-device tables share code with."""

    def test_zero_packet_path_renders_without_latency(self):
        record = _device_record("dev0", p99=None)["result"]
        record["tx"]["delivered_packets"] = 0
        text = format_nicsim_summary([record])
        # Latency percentiles of an empty path render as dashes.
        assert "p99 (ns)" in text
        lines = [line for line in text.splitlines() if "TX" in line]
        assert lines and "| -" in lines[0]

    def test_zero_packet_queue_renders_in_queue_table(self):
        record = _device_record("dev0")["result"]
        starving = dict(record["tx"])
        starving["direction"] = "tx[1]"
        starving["delivered_packets"] = 0
        starving["throughput_gbps"] = 0.0
        starving.pop("latency_ns", None)
        busy = dict(record["tx"])
        busy["direction"] = "tx[0]"
        record["tx"]["queues"] = [busy, starving]
        text = format_nicsim_summary([record])
        assert "Per-queue breakdown" in text
        assert "tx[1]" in text

    def test_unbounded_tag_pool_has_no_tag_table(self):
        record = _device_record("dev0")["result"]
        assert "tags" not in record
        text = format_nicsim_summary([record])
        assert "DMA tag pool" not in text

    def test_bounded_tag_pool_renders_tag_table(self):
        record = _device_record("dev0")["result"]
        record["tags"] = {
            "capacity": 8,
            "acquires": 100,
            "max_in_flight": 8,
            "waited": 20,
            "wait_ns_total": 4000.0,
            "wait_ns_mean": 200.0,
        }
        text = format_nicsim_summary([record])
        assert "DMA tag pool" in text
        assert "peak in flight" in text

    def test_missing_host_stats_omit_host_table(self):
        record = _device_record("dev0")["result"]
        assert "host" not in record
        text = format_nicsim_summary([record])
        assert "Host-side counters" not in text

    def test_tx_only_record_renders_single_row(self):
        record = _device_record("dev0", rx_gbps=None)["result"]
        text = format_nicsim_summary([record])
        assert " TX " in text or "| TX" in text
        assert "RX" not in text.replace("p99", "")

    def test_empty_records_rejected(self):
        with pytest.raises(AnalysisError):
            format_nicsim_summary([])
