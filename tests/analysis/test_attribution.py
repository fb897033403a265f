"""Latency-attribution analysis tests over synthetic span streams."""

from __future__ import annotations

import pytest

from repro.analysis import (
    attribute_spans,
    format_attribution_summary,
)
from repro.errors import AnalysisError
from repro.obs import PACKET_STAGES, Span


def _packet(
    device: str, packet: int, durations: tuple[float, float, float, float]
) -> list[Span]:
    spans = []
    clock = 0.0
    for stage, duration in zip(PACKET_STAGES, durations):
        spans.append(Span(device, "tx", packet, stage, clock, duration))
        clock += duration
    return spans


def test_attribute_spans_decomposes_the_mean() -> None:
    spans = (
        _packet("nic", 0, (0.0, 10.0, 50.0, 40.0))
        + _packet("nic", 1, (0.0, 30.0, 50.0, 20.0))
    )
    (record,) = attribute_spans(spans)
    assert record["device"] == "nic"
    assert record["packets"] == 2
    assert record["mean_ns"] == pytest.approx(100.0)
    assert record["stages"]["issue"]["mean_ns"] == pytest.approx(20.0)
    assert record["stages"]["payload"]["share"] == pytest.approx(0.5)
    # Telescoping: shares sum to 1.
    assert sum(
        entry["share"] for entry in record["stages"].values()
    ) == pytest.approx(1.0)


def test_incomplete_packets_are_excluded() -> None:
    complete = _packet("nic", 0, (1.0, 2.0, 3.0, 4.0))
    partial = _packet("nic", 1, (1.0, 2.0, 3.0, 4.0))[:2]
    (record,) = attribute_spans(complete + partial)
    assert record["packets"] == 1


def test_resource_spans_totalled_separately() -> None:
    spans = _packet("nic", 0, (0.0, 5.0, 5.0, 5.0)) + [
        Span("nic", "ingress", -1, "arb:ingress@root", 0.0, 40.0),
        Span("nic", "walker", -1, "arb:walker@root", 0.0, 10.0),
        Span("nic", "walker", -1, "walker", 0.0, 60.0),
    ]
    (record,) = attribute_spans(spans)
    assert record["arb_wait_ns"] == pytest.approx(50.0)
    assert record["walker_ns"] == pytest.approx(60.0)
    # Resource spans do not inflate the packet decomposition.
    assert record["mean_ns"] == pytest.approx(15.0)


def test_devices_sorted_and_tail_present() -> None:
    spans = (
        _packet("b", 0, (0.0, 1.0, 1.0, 1.0))
        + _packet("a", 1, (0.0, 2.0, 2.0, 2.0))
    )
    records = attribute_spans(spans)
    assert [record["device"] for record in records] == ["a", "b"]
    for record in records:
        assert set(record["tail_stages"]) == set(PACKET_STAGES)


def test_format_attribution_summary_renders_tables() -> None:
    spans = _packet("nic", 0, (0.0, 10.0, 50.0, 40.0))
    text = format_attribution_summary(attribute_spans(spans))
    assert "Latency attribution" in text
    assert "Per-stage decomposition" in text
    assert "payload" in text


def test_format_requires_records() -> None:
    with pytest.raises(AnalysisError):
        format_attribution_summary([])
