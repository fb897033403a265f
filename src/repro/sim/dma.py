"""DMA engine simulation: turning device + host models into measurements.

This module is the simulated counterpart of the pcie-bench firmware/gateware
(§5.1, §5.2): it issues DMA transactions against the host model and measures
either per-transaction latency (one transaction outstanding, as the latency
benchmarks do) or sustained bandwidth (as many transactions in flight as the
device supports, as the bandwidth benchmarks do).

The bandwidth simulation is a cursor-based pipelined model.  Transactions
are generated in issue order; the shared serial resources are the two link
directions, the root-complex ingress pipeline and the IOMMU page walker, and
the device bounds concurrency with a finite pool of in-flight DMA slots and
a minimum spacing between issues.  This reproduces the three regimes the
paper observes: link-limited (large transfers), issue-rate-limited (small
writes) and latency/concurrency-limited (small reads), plus the collapses
caused by IOTLB misses and remote NUMA placement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.bandwidth import dma_read_wire_bytes, dma_write_wire_bytes
from ..core.config import PAPER_DEFAULT_CONFIG, PCIeConfig
from ..errors import BenchmarkError, ValidationError
from ..units import bytes_over_time_to_gbps
from .devices import DeviceModel
from .engine import SerialResource, WorkerPool
from .host import HostSystem
from .hostbuffer import AccessPattern, HostBuffer


class DmaOperation(enum.Enum):
    """Transaction mixes supported by the engine."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"
    WRITE_READ = "write_read"

    @classmethod
    def from_value(cls, value: "DmaOperation | str") -> "DmaOperation":
        """Coerce strings such as ``"read"`` or ``"rdwr"`` into an operation."""
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        aliases = {
            "rd": cls.READ,
            "wr": cls.WRITE,
            "rdwr": cls.READ_WRITE,
            "readwrite": cls.READ_WRITE,
            "wrrd": cls.WRITE_READ,
            "writeread": cls.WRITE_READ,
        }
        if text in aliases:
            return aliases[text]
        try:
            return cls(text)
        except ValueError as exc:
            raise ValidationError(f"unknown DMA operation {value!r}") from exc


@dataclass(frozen=True)
class BandwidthMeasurement:
    """Result of a bandwidth run."""

    operation: DmaOperation
    transfer_size: int
    transactions: int
    elapsed_ns: float
    gbps: float
    transactions_per_second: float
    link_utilisation_up: float
    link_utilisation_down: float
    cache_hit_rate: float
    iotlb_miss_rate: float


@dataclass(frozen=True)
class LatencyMeasurement:
    """Result of a latency run: raw per-transaction samples in nanoseconds."""

    operation: DmaOperation
    transfer_size: int
    samples_ns: np.ndarray
    cache_hit_rate: float
    iotlb_miss_rate: float


class DmaEngine:
    """Simulated DMA engine of a benchmark device attached to a host system."""

    def __init__(
        self,
        host: HostSystem,
        device: DeviceModel | None = None,
        config: PCIeConfig = PAPER_DEFAULT_CONFIG,
    ) -> None:
        self.host = host
        self.device = device or host.device
        self.config = config

    # -- latency benchmarks ---------------------------------------------------------

    def measure_latency(
        self,
        buffer: HostBuffer,
        operation: DmaOperation | str,
        count: int,
        *,
        pattern: AccessPattern | str = AccessPattern.RANDOM,
        use_command_interface: bool = False,
    ) -> LatencyMeasurement:
        """Measure per-transaction latency with one transaction outstanding.

        Args:
            buffer: the prepared host buffer to access.
            operation: ``READ`` (LAT_RD) or ``WRITE_READ`` (LAT_WRRD).
            count: number of transactions to time.
            pattern: unit visit order (random by default, as in the paper).
            use_command_interface: issue through the NFP's direct PCIe
                command interface (suitable for small transfers, §5.1)
                instead of the DMA engine; used by the Figure 7(a) cache
                experiments.
        """
        operation = DmaOperation.from_value(operation)
        if operation not in (DmaOperation.READ, DmaOperation.WRITE_READ):
            raise BenchmarkError(
                f"latency benchmarks support READ and WRITE_READ, got {operation}"
            )
        if count <= 0:
            raise ValidationError(f"count must be positive, got {count}")

        size = buffer.transfer_size
        spec = self.device.engine
        if use_command_interface and not spec.has_command_interface:
            raise BenchmarkError(
                f"{self.device.name} has no PCIe command interface"
            )
        if use_command_interface and size > spec.command_interface_max_bytes:
            raise BenchmarkError(
                f"command interface limited to {spec.command_interface_max_bytes} "
                f"bytes, requested {size}"
            )

        issue_overhead = (
            spec.command_interface_overhead_ns
            if use_command_interface
            else spec.issue_overhead_ns
        )
        staging = 0.0 if use_command_interface else self.device.staging_latency_ns(size)

        addresses = buffer.access_addresses(count, pattern, self.host.rng)
        root_complex = self.host.root_complex
        node = buffer.numa_node
        link = self.config.link
        read_wire = dma_read_wire_bytes(size, self.config)
        write_wire = dma_write_wire_bytes(size, self.config)
        read_request_ns = link.serialisation_time_ns(read_wire.device_to_host)
        read_completion_ns = link.serialisation_time_ns(read_wire.host_to_device)
        write_request_ns = link.serialisation_time_ns(write_wire.device_to_host)

        samples = np.empty(count, dtype=np.float64)
        hits = 0
        for index, address in enumerate(addresses):
            address = int(address)
            if operation is DmaOperation.READ:
                access = root_complex.read(address, size, buffer_node=node)
                latency = (
                    issue_overhead
                    + read_request_ns
                    + access.latency_ns
                    + read_completion_ns
                    + spec.completion_overhead_ns
                    + staging
                )
            else:  # WRITE_READ
                access = root_complex.write_read(address, size, buffer_node=node)
                latency = (
                    2 * issue_overhead
                    + write_request_ns
                    + read_request_ns
                    + access.latency_ns
                    + read_completion_ns
                    + spec.completion_overhead_ns
                    + staging
                )
            hits += access.cache_hit
            samples[index] = self.device.quantise(latency)

        iommu_stats = self.host.iommu.stats
        return LatencyMeasurement(
            operation=operation,
            transfer_size=size,
            samples_ns=samples,
            cache_hit_rate=hits / count,
            iotlb_miss_rate=iommu_stats.miss_rate,
        )

    # -- bandwidth benchmarks ----------------------------------------------------------

    def measure_bandwidth(
        self,
        buffer: HostBuffer,
        operation: DmaOperation | str,
        count: int,
        *,
        pattern: AccessPattern | str = AccessPattern.RANDOM,
    ) -> BandwidthMeasurement:
        """Measure sustained DMA bandwidth with the engine's full concurrency.

        Args:
            buffer: the prepared host buffer to access.
            operation: ``READ`` (BW_RD), ``WRITE`` (BW_WR) or ``READ_WRITE``
                (BW_RDWR, alternating reads and writes as the firmware does).
            count: number of DMA transactions to issue.
            pattern: unit visit order.
        """
        operation = DmaOperation.from_value(operation)
        if operation is DmaOperation.WRITE_READ:
            raise BenchmarkError("bandwidth benchmarks do not use WRITE_READ")
        if count <= 0:
            raise ValidationError(f"count must be positive, got {count}")

        size = buffer.transfer_size
        spec = self.device.engine
        addresses = buffer.access_addresses(count, pattern, self.host.rng)
        root_complex = self.host.root_complex
        node = buffer.numa_node
        link = self.config.link

        read_wire = dma_read_wire_bytes(size, self.config)
        write_wire = dma_write_wire_bytes(size, self.config)
        read_request_ns = link.serialisation_time_ns(read_wire.device_to_host)
        read_completion_ns = link.serialisation_time_ns(read_wire.host_to_device)
        write_request_ns = link.serialisation_time_ns(write_wire.device_to_host)

        link_up = SerialResource("link.device_to_host")
        link_down = SerialResource("link.host_to_device")
        ingress = SerialResource("root_complex.ingress")
        walker = SerialResource("iommu.walker")
        workers = WorkerPool(spec.max_inflight)

        last_issue = -spec.issue_interval_ns
        last_completion = 0.0
        hits = 0

        for index, address in enumerate(addresses):
            address = int(address)
            is_read = operation is DmaOperation.READ or (
                operation is DmaOperation.READ_WRITE and index % 2 == 0
            )
            earliest = max(last_issue + spec.issue_interval_ns, 0.0)
            issue_start = workers.acquire(earliest)
            last_issue = issue_start
            ready = issue_start + spec.issue_overhead_ns

            if is_read:
                access = root_complex.read(address, size, buffer_node=node)
                request_start = link_up.occupy(ready, read_request_ns)
                arrival = request_start + read_request_ns
                arrival = (
                    ingress.occupy(arrival, access.ingress_occupancy_ns)
                    + access.ingress_occupancy_ns
                )
                if access.walker_occupancy_ns > 0.0:
                    arrival = (
                        walker.occupy(arrival, access.walker_occupancy_ns)
                        + access.walker_occupancy_ns
                    )
                data_ready = arrival + access.latency_ns
                completion_start = link_down.occupy(data_ready, read_completion_ns)
                done = (
                    completion_start
                    + read_completion_ns
                    + spec.completion_overhead_ns
                    + self.device.staging_latency_ns(size)
                )
            else:
                access = root_complex.write(address, size, buffer_node=node)
                request_start = link_up.occupy(ready, write_request_ns)
                arrival = request_start + write_request_ns
                arrival = (
                    ingress.occupy(arrival, access.ingress_occupancy_ns)
                    + access.ingress_occupancy_ns
                )
                if access.walker_occupancy_ns > 0.0:
                    walker.occupy(arrival, access.walker_occupancy_ns)
                # Posted write: the device slot frees once the TLPs are on
                # the wire; the host commits asynchronously.
                done = request_start + write_request_ns + spec.completion_overhead_ns

            hits += access.cache_hit
            workers.commit(done)
            last_completion = max(last_completion, done)

        elapsed = last_completion
        if elapsed <= 0:
            raise BenchmarkError("bandwidth run produced no elapsed time")
        # For the alternating read/write benchmark the paper reports the
        # per-direction payload rate (half the transactions move data each
        # way), which is what makes BW_RDWR comparable to the unidirectional
        # curves and to the bidirectional model line of Figure 4(c).  The
        # half is exact, so an odd total keeps its half byte.
        accounted_bytes = count * size
        if operation is DmaOperation.READ_WRITE:
            accounted_bytes /= 2
        iommu_stats = self.host.iommu.stats
        return BandwidthMeasurement(
            operation=operation,
            transfer_size=size,
            transactions=count,
            elapsed_ns=elapsed,
            gbps=bytes_over_time_to_gbps(accounted_bytes, elapsed),
            transactions_per_second=count / (elapsed * 1e-9),
            link_utilisation_up=link_up.utilisation(elapsed),
            link_utilisation_down=link_down.utilisation(elapsed),
            cache_hit_rate=hits / count,
            iotlb_miss_rate=iommu_stats.miss_rate,
        )
