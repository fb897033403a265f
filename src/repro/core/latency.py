"""Analytical PCIe latency decomposition.

Latency cannot be read off the PCIe specification the way bandwidth can: it
is dominated by the host's root complex and memory system (the paper finds
PCIe contributes 77-90% of a NIC's loopback latency, Figure 2) plus device
overheads such as DMA-descriptor enqueueing.  This module provides a simple
component model that decomposes a DMA's round-trip time into:

* device issue overhead (building and enqueueing the DMA descriptor),
* serialisation of the request TLP(s) onto the link,
* root-complex / memory access time on the host,
* serialisation of the completion TLP(s) back to the device,
* device completion handling (signalling the waiting thread).

The defaults are calibrated against the paper's measurements (~520-550 ns
median for a 64 B read on a Haswell Xeon E5, §6.2) and are intentionally kept
in one place so the simulator and the analytical model agree.  The detailed,
state-dependent behaviour (caches, IOMMU, NUMA) lives in :mod:`repro.sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import ValidationError
from .bandwidth import dma_read_wire_bytes, dma_write_wire_bytes
from .config import PAPER_DEFAULT_CONFIG, PCIeConfig


@dataclass(frozen=True)
class LatencyComponents:
    """Breakdown of one DMA transaction's latency, all in nanoseconds."""

    device_issue_ns: float = 0.0
    request_serialisation_ns: float = 0.0
    host_processing_ns: float = 0.0
    completion_serialisation_ns: float = 0.0
    device_completion_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        """Total transaction latency."""
        return (
            self.device_issue_ns
            + self.request_serialisation_ns
            + self.host_processing_ns
            + self.completion_serialisation_ns
            + self.device_completion_ns
        )

    @property
    def pcie_fraction(self) -> float:
        """Fraction of total latency attributable to PCIe + host (not the device).

        Mirrors the "PCIe contribution" series in Figure 2: everything except
        the device-internal issue/completion overheads.
        """
        total = self.total_ns
        if total == 0:
            return 0.0
        pcie = (
            self.request_serialisation_ns
            + self.host_processing_ns
            + self.completion_serialisation_ns
        )
        return pcie / total

    def as_dict(self) -> dict[str, float]:
        """Component values keyed by name (for reports)."""
        return {
            "device_issue_ns": self.device_issue_ns,
            "request_serialisation_ns": self.request_serialisation_ns,
            "host_processing_ns": self.host_processing_ns,
            "completion_serialisation_ns": self.completion_serialisation_ns,
            "device_completion_ns": self.device_completion_ns,
            "total_ns": self.total_ns,
        }


@dataclass(frozen=True)
class LatencyModel:
    """Parametrised analytical latency model for DMA reads and write+read pairs.

    Attributes:
        config: the PCIe configuration, used for serialisation times.
        host_read_ns: root-complex plus memory time to service a read that
            misses the LLC.
        cache_hit_discount_ns: reduction when the target is LLC-resident
            (≈70 ns in the paper's measurements, §6.3).
        device_issue_ns: device-side cost to build/enqueue a DMA descriptor.
        device_completion_ns: device-side cost to observe the completion.
        write_to_read_turnaround_ns: additional ordering delay before a read
            that follows a write to the same address can complete (LAT_WRRD).
    """

    config: PCIeConfig = field(default_factory=lambda: PAPER_DEFAULT_CONFIG)
    host_read_ns: float = 380.0
    cache_hit_discount_ns: float = 70.0
    device_issue_ns: float = 60.0
    device_completion_ns: float = 40.0
    write_to_read_turnaround_ns: float = 60.0

    def __post_init__(self) -> None:
        for attr in (
            "host_read_ns",
            "cache_hit_discount_ns",
            "device_issue_ns",
            "device_completion_ns",
            "write_to_read_turnaround_ns",
        ):
            if getattr(self, attr) < 0:
                raise ValidationError(f"{attr} must be non-negative")

    def with_(self, **changes: object) -> "LatencyModel":
        """Return a copy with selected parameters replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # -- read latency ----------------------------------------------------------

    def read_components(
        self, size: int, *, cache_hit: bool = False
    ) -> LatencyComponents:
        """Latency breakdown for a DMA read of ``size`` bytes (LAT_RD)."""
        if size <= 0:
            raise ValidationError(f"transfer size must be positive, got {size}")
        wire = dma_read_wire_bytes(size, self.config)
        host = self.host_read_ns - (self.cache_hit_discount_ns if cache_hit else 0.0)
        return LatencyComponents(
            device_issue_ns=self.device_issue_ns,
            request_serialisation_ns=self.config.link.serialisation_time_ns(
                wire.device_to_host
            ),
            host_processing_ns=max(host, 0.0),
            completion_serialisation_ns=self.config.link.serialisation_time_ns(
                wire.host_to_device
            ),
            device_completion_ns=self.device_completion_ns,
        )

    def read_latency_ns(self, size: int, *, cache_hit: bool = False) -> float:
        """Total latency of a DMA read of ``size`` bytes."""
        return self.read_components(size, cache_hit=cache_hit).total_ns

    # -- write followed by read (LAT_WRRD) --------------------------------------

    def write_read_components(
        self, size: int, *, cache_hit: bool = False
    ) -> LatencyComponents:
        """Latency breakdown for a posted write followed by a read (LAT_WRRD).

        PCIe ordering forces the root complex to process the read after the
        write, so the measured value is write serialisation + turnaround +
        read latency.
        """
        read = self.read_components(size, cache_hit=cache_hit)
        write_wire = dma_write_wire_bytes(size, self.config)
        write_serialisation = self.config.link.serialisation_time_ns(
            write_wire.device_to_host
        )
        return LatencyComponents(
            device_issue_ns=read.device_issue_ns + self.device_issue_ns,
            request_serialisation_ns=read.request_serialisation_ns
            + write_serialisation,
            host_processing_ns=read.host_processing_ns
            + self.write_to_read_turnaround_ns,
            completion_serialisation_ns=read.completion_serialisation_ns,
            device_completion_ns=read.device_completion_ns,
        )

    def write_read_latency_ns(self, size: int, *, cache_hit: bool = False) -> float:
        """Total latency of a write followed by a read of ``size`` bytes."""
        return self.write_read_components(size, cache_hit=cache_hit).total_ns

    # -- derived quantities -----------------------------------------------------

    def inflight_dmas_for_line_rate(
        self, size: int, inter_packet_time_ns: float
    ) -> int:
        """In-flight DMAs needed to hide read latency at a given packet cadence."""
        if inter_packet_time_ns <= 0:
            raise ValidationError(
                f"inter_packet_time_ns must be positive, got {inter_packet_time_ns}"
            )
        return math.ceil(self.read_latency_ns(size) / inter_packet_time_ns)

