"""PCIe root complex model.

The root complex is where a PCIe transaction meets the host: it arbitrates
ingress TLPs, translates addresses through the IOMMU when one is enabled,
looks up the LLC (allocating via DDIO for writes), reaches out to DRAM on a
miss, and traverses the socket interconnect when the target buffer lives on
a remote NUMA node.  The paper's central point is that this composition —
not the PCIe wire protocol — explains most of the latency and much of the
bandwidth behaviour devices observe; this class is therefore the heart of
the simulated substrate.

The model composes:

* a calibrated base service time (``base_read_ns``) covering the root
  complex pipeline plus an LLC hit,
* the memory model's DRAM penalty when the LLC lookup misses,
* the DDIO write-allocation behaviour including dirty write-backs,
* the IOMMU's IOTLB hit/miss latency and page-walker occupancy,
* the NUMA penalty for remote buffers,
* a per-profile noise model (tight for Xeon E5, heavy-tailed for Xeon E3).

It returns per-transaction :class:`HostAccess` records; the consumers add
link serialisation and resource contention on top: the DMA engine model in
:mod:`repro.sim.dma` (micro-benchmarks) and, via the
:mod:`repro.sim.nichost` coupling, the packet-level NIC datapath in
:mod:`repro.sim.nicsim`, whose descriptor and payload DMAs are all serviced
here when a host is attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..units import CACHELINE_BYTES
from .cache import CacheInterface, CacheState, StatisticalCache
from .iommu import Iommu
from .memory import MemorySystem
from .noise import NoiseModel, TightNoise
from .numa import NumaTopology
from .rng import SimRng


@dataclass(frozen=True, slots=True)
class HostAccess:
    """Host-side outcome of one DMA transaction (no link serialisation).

    Attributes:
        latency_ns: time from the transaction reaching the root complex to
            the completion (read) or commit point (write) being available.
        walker_occupancy_ns: time the IOMMU page walker was held; the DMA
            engine model serialises concurrent transactions on this.
        ingress_occupancy_ns: time the root-complex ingress pipeline was
            held by this transaction (bounds the transaction rate on hosts
            with slow uncore implementations such as the Xeon E3).
        cache_hit: whether the (first) target line was LLC resident.
        iotlb_hit: whether the IOMMU translation hit the IOTLB (true when
            the IOMMU is disabled).
        writeback: whether a dirty line had to be flushed first.
        remote: whether the target buffer was on a remote NUMA node.
    """

    latency_ns: float
    walker_occupancy_ns: float = 0.0
    ingress_occupancy_ns: float = 0.0
    cache_hit: bool = False
    iotlb_hit: bool = True
    writeback: bool = False
    remote: bool = False


@dataclass(frozen=True)
class RootComplexConfig:
    """Calibrated constants of a host's root complex.

    Attributes:
        base_read_ns: host service time for a DMA read that hits the LLC
            (root-complex pipeline + uncore + LLC).
        cache_discount_ns: latency saved by an LLC hit versus DRAM (~70 ns).
            Stored for reference; the DRAM penalty itself comes from the
            memory model so both stay consistent.
        write_commit_ns: host-side time to accept and commit a posted write.
        write_to_read_turnaround_ns: extra delay before a read that follows
            a write to the same address completes (PCIe ordering).
        per_tlp_ingress_ns: root-complex ingress occupancy per TLP; the
            transaction-rate ceiling of the host (notably worse on Xeon E3).
        mmio_read_ns: host round-trip component of a driver register read.
    """

    base_read_ns: float = 430.0
    cache_discount_ns: float = 70.0
    write_commit_ns: float = 80.0
    write_to_read_turnaround_ns: float = 60.0
    per_tlp_ingress_ns: float = 4.0
    mmio_read_ns: float = 400.0

    def __post_init__(self) -> None:
        for attr in (
            "base_read_ns",
            "cache_discount_ns",
            "write_commit_ns",
            "write_to_read_turnaround_ns",
            "per_tlp_ingress_ns",
            "mmio_read_ns",
        ):
            if getattr(self, attr) < 0:
                raise ValidationError(f"{attr} must be non-negative")


class RootComplex:
    """Behavioural root complex combining cache, IOMMU, NUMA and memory models."""

    def __init__(
        self,
        config: RootComplexConfig | None = None,
        *,
        cache: CacheInterface | None = None,
        iommu: Iommu | None = None,
        numa: NumaTopology | None = None,
        memory: MemorySystem | None = None,
        noise: NoiseModel | None = None,
        rng: SimRng | None = None,
    ) -> None:
        self.config = config or RootComplexConfig()
        self.rng = rng or SimRng()
        self.cache = cache if cache is not None else StatisticalCache(rng=self.rng)
        self.iommu = iommu or Iommu()
        self.numa = numa or NumaTopology.single_socket()
        self.memory = memory or MemorySystem()
        self.noise = noise or TightNoise()
        self._noise_rng = self.rng.spawn("root_complex.noise")

    # -- benchmark preparation -----------------------------------------------------

    def prepare_cache(self, state: CacheState | str, window_lines: int) -> None:
        """Prime the LLC model for a benchmark window (cold / host / device warm)."""
        self.cache.prepare(CacheState.from_value(state), window_lines)

    # -- individual accesses ----------------------------------------------------------

    def read(self, address: int, size: int, *, buffer_node: int = 0) -> HostAccess:
        """Service a DMA read of ``size`` bytes at ``address``."""
        if address < 0 or size <= 0:
            self._check_access(address, size)
        translation = self.iommu.translate(address)
        line = address // CACHELINE_BYTES
        cache_result = self.cache.read(line)
        last_line = (address + size - 1) // CACHELINE_BYTES
        if last_line != line:
            self._touch_remaining_lines(line, last_line, is_write=False)
        remote = not self.numa.is_local(buffer_node)
        numa_penalty = self.numa.remote_penalty_ns if remote else 0.0
        latency = (
            self.config.base_read_ns
            + self.memory.read_penalty_ns(cache_hit=cache_result.hit)
            + translation.latency_ns
            + numa_penalty
            + self.noise.sample(self._noise_rng)
        )
        # Positional, in field order, because keyword construction costs
        # about a third more: latency, walker and ingress occupancy (one
        # TLP per started 256 bytes, as _ingress_occupancy), cache hit,
        # IOTLB hit, write-back, remote.
        return HostAccess(
            latency,
            translation.walker_occupancy_ns,
            self.config.per_tlp_ingress_ns * -(-size // 256),
            cache_result.hit,
            translation.hit,
            False,
            remote,
        )

    def write(self, address: int, size: int, *, buffer_node: int = 0) -> HostAccess:
        """Accept a posted DMA write of ``size`` bytes at ``address``.

        The returned latency is the host-side commit time; because writes are
        posted the device never waits for it, but it matters for the ordering
        of a subsequent read (``LAT_WRRD``) and for DDIO write-back effects.
        """
        if address < 0 or size <= 0:
            self._check_access(address, size)
        translation = self.iommu.translate(address)
        line = address // CACHELINE_BYTES
        cache_result = self.cache.write(line)
        last_line = (address + size - 1) // CACHELINE_BYTES
        if last_line != line:
            self._touch_remaining_lines(line, last_line, is_write=True)
        remote = not self.numa.is_local(buffer_node)
        numa_penalty = self.numa.remote_penalty_ns if remote else 0.0
        latency = (
            self.config.write_commit_ns
            + self.memory.write_allocation_penalty_ns(
                writeback_required=cache_result.writeback_required
            )
            + translation.latency_ns
            + numa_penalty
            + self.noise.sample(self._noise_rng)
        )
        # Positional, in field order, as in read.
        return HostAccess(
            latency,
            translation.walker_occupancy_ns,
            self.config.per_tlp_ingress_ns * -(-size // 256),
            cache_result.hit,
            translation.hit,
            cache_result.writeback_required,
            remote,
        )

    def write_read(
        self, address: int, size: int, *, buffer_node: int = 0
    ) -> HostAccess:
        """Service a posted write immediately followed by a read of the same address.

        PCIe ordering forces the root complex to complete the write before
        the read.  The read always finds the just-written data in the LLC
        (it was either already resident or allocated by DDIO), so its DRAM
        penalty is waived; the measurable cost of the write is any DDIO
        write-back it triggered plus the ordering turnaround.
        """
        self._check_access(address, size)
        write_access = self.write(address, size, buffer_node=buffer_node)
        read_translation = self.iommu.translate(address)
        read_latency = (
            self.config.base_read_ns
            + read_translation.latency_ns
            + self.config.write_to_read_turnaround_ns
            + self.noise.sample(self._noise_rng)
        )
        write_visible = (
            self.memory.write_allocation_penalty_ns(
                writeback_required=write_access.writeback
            )
            + self.numa.access_penalty_ns(buffer_node)
        )
        total = write_visible + read_latency
        return HostAccess(
            latency_ns=total,
            walker_occupancy_ns=write_access.walker_occupancy_ns
            + read_translation.walker_occupancy_ns,
            ingress_occupancy_ns=2 * self._ingress_occupancy(size),
            cache_hit=write_access.cache_hit,
            iotlb_hit=write_access.iotlb_hit and read_translation.hit,
            writeback=write_access.writeback,
            remote=write_access.remote,
        )

    # -- helpers -------------------------------------------------------------------------

    def _ingress_occupancy(self, size: int) -> float:
        # One TLP per started 256 bytes; callers have checked size > 0.
        return self.config.per_tlp_ingress_ns * -(-size // 256)

    def _touch_remaining_lines(
        self, first_line: int, last_line: int, *, is_write: bool
    ) -> None:
        """Keep line-accurate cache models consistent for multi-line transfers."""
        # Only the faithful model benefits from this; the statistical model
        # draws residency per transaction and extra touches would skew its
        # counters.
        if isinstance(self.cache, StatisticalCache):
            return
        for line in range(first_line + 1, last_line + 1):
            if is_write:
                self.cache.write(line)
            else:
                self.cache.read(line)

    @staticmethod
    def _check_access(address: int, size: int) -> None:
        if address < 0:
            raise ValidationError(f"address must be non-negative, got {address}")
        if size <= 0:
            raise ValidationError(f"size must be positive, got {size}")
