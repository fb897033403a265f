"""Tests for Ethernet line-rate arithmetic."""

import pytest

from repro.core.ethernet import (
    ETHERNET_40G,
    ETHERNET_100G,
    EthernetLink,
    WIRE_OVERHEAD_BYTES,
)
from repro.errors import ValidationError


class TestFrameThroughput:
    def test_wire_overhead_is_20_bytes(self):
        assert WIRE_OVERHEAD_BYTES == 20

    def test_64b_frame_throughput_on_40g(self):
        # 40 * 64/84 = 30.48 Gb/s of frame data at line rate.
        assert ETHERNET_40G.frame_throughput_gbps(64) == pytest.approx(30.48, abs=0.05)

    def test_1518b_frame_close_to_line_rate(self):
        assert ETHERNET_40G.frame_throughput_gbps(1518) == pytest.approx(39.5, abs=0.2)

    def test_throughput_monotonic_in_frame_size(self):
        values = [ETHERNET_40G.frame_throughput_gbps(s) for s in range(64, 1519, 64)]
        assert values == sorted(values)

    def test_throughput_scales_with_line_rate(self):
        assert ETHERNET_100G.frame_throughput_gbps(512) == pytest.approx(
            2.5 * ETHERNET_40G.frame_throughput_gbps(512)
        )

    def test_invalid_frame_rejected(self):
        with pytest.raises(ValidationError):
            ETHERNET_40G.frame_throughput_gbps(0)


class TestPacketRate:
    def test_64b_packet_rate_40g(self):
        # 40 Gb/s / (84 B * 8) = 59.5 Mpps.
        assert ETHERNET_40G.packet_rate_pps(64) == pytest.approx(59.5e6, rel=0.01)

    def test_inter_packet_time_128b_is_about_30ns(self):
        # The figure the paper uses for its in-flight DMA argument.
        assert ETHERNET_40G.inter_packet_time_ns(128) == pytest.approx(29.6, abs=0.3)

    def test_inter_packet_time_inverse_of_rate(self):
        rate = ETHERNET_40G.packet_rate_pps(256)
        assert ETHERNET_40G.inter_packet_time_ns(256) == pytest.approx(1e9 / rate)


class TestValidation:
    def test_negative_line_rate_rejected(self):
        with pytest.raises(ValidationError):
            EthernetLink(-1.0)
