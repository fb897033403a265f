"""Ethernet line-rate arithmetic.

The paper repeatedly compares PCIe throughput against what "40Gb/s Ethernet"
requires: the *40G Ethernet* curve in Figures 1 and 4 is the payload
throughput a 40 Gb/s link delivers for a given frame size once preamble,
start-of-frame delimiter and inter-frame gap are accounted for, and the
inter-packet arrival time (~30 ns for 128 B frames at 40 Gb/s) drives the
in-flight DMA sizing argument of Sections 2 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError

#: Preamble plus start-of-frame delimiter, bytes on the wire per frame.
PREAMBLE_SFD_BYTES = 8
#: Minimum inter-frame gap, bytes on the wire per frame.
INTER_FRAME_GAP_BYTES = 12
#: Per-frame wire overhead that never reaches the host.
WIRE_OVERHEAD_BYTES = PREAMBLE_SFD_BYTES + INTER_FRAME_GAP_BYTES
#: Frame check sequence carried at the end of every frame.
FCS_BYTES = 4
#: Smallest legal Ethernet frame (including FCS).
MIN_FRAME_BYTES = 64
#: Largest standard (non-jumbo) Ethernet frame (including FCS).
MAX_FRAME_BYTES = 1518


@dataclass(frozen=True)
class EthernetLink:
    """An Ethernet link characterised by its nominal line rate.

    Attributes:
        line_rate_gbps: nominal line rate in Gb/s (e.g. 10, 40, 100).
    """

    line_rate_gbps: float = 40.0

    def __post_init__(self) -> None:
        if self.line_rate_gbps <= 0:
            raise ValidationError(
                f"line rate must be positive, got {self.line_rate_gbps}"
            )

    def frame_throughput_gbps(self, frame_size: int) -> float:
        """Frame-data throughput (Gb/s) at line rate for a given frame size.

        ``frame_size`` counts the bytes a NIC must DMA (the frame including
        FCS); the wire additionally carries preamble and inter-frame gap.
        This is the *40G Ethernet* reference curve of Figures 1 and 4.
        """
        _check_frame(frame_size)
        wire_bytes = frame_size + WIRE_OVERHEAD_BYTES
        return self.line_rate_gbps * frame_size / wire_bytes

    def packet_rate_pps(self, frame_size: int) -> float:
        """Packets per second at line rate for a given frame size."""
        _check_frame(frame_size)
        wire_bits = (frame_size + WIRE_OVERHEAD_BYTES) * 8
        return self.line_rate_gbps * 1e9 / wire_bits

    def inter_packet_time_ns(self, frame_size: int) -> float:
        """Time budget per packet at line rate, in nanoseconds.

        For 128 B frames at 40 Gb/s this is about 29.6 ns, the figure the
        paper uses to argue a NIC must keep at least 30 DMAs in flight.
        """
        return 1e9 / self.packet_rate_pps(frame_size)

#: Convenience instances for the link speeds discussed in the paper.
ETHERNET_10G = EthernetLink(10.0)
ETHERNET_25G = EthernetLink(25.0)
ETHERNET_40G = EthernetLink(40.0)
ETHERNET_100G = EthernetLink(100.0)


def _check_frame(frame_size: int) -> None:
    if frame_size <= 0:
        raise ValidationError(f"frame size must be positive, got {frame_size}")
