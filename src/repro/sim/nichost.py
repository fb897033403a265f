"""Host-side coupling for the packet-level NIC datapath simulator.

PR 1's :mod:`repro.sim.nicsim` charged every descriptor fetch, payload DMA
and write-back a flat link cost plus a constant host latency, which hides
the paper's central result: what a device observes on PCIe is dominated by
*host* effects — LLC/DDIO allocation, IOTLB misses and NUMA placement
(§6.3-§6.5).  This module supplies the missing half: a
:class:`HostCoupling` adapter that turns each datapath DMA into a
:class:`~repro.sim.root_complex.HostAccess` against a Table 1 host profile,
so the datapath inherits cache hits and DRAM penalties, DDIO write-backs,
IOTLB walks (with walker serialisation), remote-NUMA adders, per-TLP
ingress occupancy and per-profile latency noise.

Two memory regions with deliberately different temperatures model what a
real driver allocates:

* **Descriptor rings** are tiny, constantly re-walked structures laid out
  through :class:`~repro.sim.hostbuffer.HostBuffer` on the device's NUMA
  node; their cache model is prepared host-warm, so descriptor fetches,
  write-backs and interrupt writes almost always hit the LLC (the hot
  path a driver works hard to keep hot).
* **Payload buffers** draw uniformly from a configurable *window* of
  packet-sized units — the same windowed-access methodology as pcie-bench
  (Figure 3) — with their own cache preparation state and NUMA placement,
  so growing the window walks the datapath off the DDIO slice, past the
  IOTLB reach, or across the socket interconnect.

Both regions share one IOMMU (payload pressure evicts descriptor
translations, as on real hardware) but use separate
:class:`~repro.sim.cache.StatisticalCache` instances, because that model's
residency probability is per-window, not per-address.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.transactions import DESCRIPTOR_BYTES, OpKind
from ..errors import ValidationError
from ..units import CACHELINE_BYTES, KIB, MIB, align_up
from .cache import CacheState, StatisticalCache
from .host import HostSystem
from .hostbuffer import HostBuffer
from .iommu import SUPPORTED_PAGE_SIZES
from .profiles import get_profile
from .rng import SimRng
from .root_complex import HostAccess, RootComplex

#: Size of one payload unit in the payload window.  Every packet's DMA is
#: mapped to one unit, so the unit must hold a maximum-size frame.
PAYLOAD_UNIT_BYTES = 2048

#: Base I/O virtual addresses of the three regions.  They only need to be
#: disjoint at page granularity so descriptor and payload translations do
#: not alias in the IOTLB.
TX_RING_BASE = 0
RX_RING_BASE = 1 << 30
PAYLOAD_BASE = 1 << 34

#: Address-space stride between devices sharing one host (see
#: :mod:`repro.sim.fabric`).  Each device's three regions are offset by
#: ``device_index * DEVICE_ADDRESS_STRIDE`` so no two devices' pages alias
#: in the shared IOTLB.  Device 0's layout is byte-identical to the
#: single-device layout above.
DEVICE_ADDRESS_STRIDE = 1 << 40

#: Seed perturbation for the descriptor-side RNG.  ``SimRng`` caches named
#: sub-streams, so building the descriptor root complex from the *same*
#: ``SimRng`` as the payload one would make both caches (and both noise
#: models) draw from one interleaved stream — descriptor traffic volume
#: would then silently reshuffle payload hit/miss draws, defeating the
#: per-component decorrelation :mod:`repro.sim.rng` promises.
_DESCRIPTOR_SEED_SALT = 0x6E69_6352


@dataclass(frozen=True)
class NicHostConfig:
    """How the simulated NIC datapath is attached to a host.

    Attributes:
        system: Table 1 profile supplying the root complex, cache, IOMMU,
            NUMA and noise calibrations (e.g. ``"NFP6000-HSW"``).
        iommu_enabled: translate DMA addresses (``intel_iommu=on``).
        iommu_page_size: IOVA mapping granularity; 4 KiB replicates the
            paper's ``sp_off`` setting, 2 MiB models super-pages.
        payload_window: bytes of payload buffer the workload cycles
            through; the working set that interacts with the DDIO slice,
            the LLC and the IOTLB reach.
        payload_cache_state: cache preparation for the payload window
            (``"cold"``, ``"host_warm"`` or ``"device_warm"``).
        payload_placement: ``"local"`` pins payload buffers to the
            device's NUMA node, ``"remote"`` to the other socket (requires
            a two-socket profile).
    """

    system: str = "NFP6000-HSW"
    iommu_enabled: bool = False
    iommu_page_size: int = 4 * KIB
    payload_window: int = 4 * MIB
    payload_cache_state: str = "host_warm"
    payload_placement: str = "local"

    def __post_init__(self) -> None:
        profile = get_profile(self.system)  # raises on unknown profiles
        object.__setattr__(self, "system", profile.name)
        if self.iommu_page_size not in SUPPORTED_PAGE_SIZES:
            raise ValidationError(
                f"iommu_page_size must be one of {SUPPORTED_PAGE_SIZES}, "
                f"got {self.iommu_page_size}"
            )
        if self.payload_window < PAYLOAD_UNIT_BYTES:
            raise ValidationError(
                f"payload_window must hold at least one {PAYLOAD_UNIT_BYTES}-byte "
                f"unit, got {self.payload_window}"
            )
        state = CacheState.from_value(self.payload_cache_state)
        object.__setattr__(self, "payload_cache_state", state.value)
        if self.payload_placement not in ("local", "remote"):
            raise ValidationError(
                "payload_placement must be 'local' or 'remote', got "
                f"{self.payload_placement!r}"
            )
        if self.payload_placement == "remote" and profile.sockets < 2:
            raise ValidationError(
                f"{profile.name} has a single socket; remote payload "
                "placement needs a two-socket profile"
            )


@dataclass(frozen=True)
class HostSideStats:
    """Host-side counters from one host-coupled datapath run.

    Attributes:
        accesses: DMA transactions serviced by the root complex.
        payload_accesses / descriptor_accesses: split by target region.
        payload_cache_hit_rate: LLC hit fraction of payload DMAs.
        descriptor_cache_hit_rate: LLC hit fraction of descriptor-region
            DMAs (fetches, write-backs, interrupt writes).
        iotlb_hit_rate: IOTLB hit fraction (1.0 with the IOMMU disabled).
        iotlb_misses: page-table walks performed.
        walker_stall_ns_total: cumulative time transactions waited for a
            busy page walker (the §6.5 serialisation effect).
        walker_stall_ns_mean: mean stall per walk (0 without walks).
        writebacks: dirty DDIO evictions forced by payload writes.
        remote_fraction: fraction of DMAs that crossed the socket
            interconnect.
    """

    accesses: int
    payload_accesses: int
    descriptor_accesses: int
    payload_cache_hit_rate: float
    descriptor_cache_hit_rate: float
    iotlb_hit_rate: float
    iotlb_misses: int
    walker_stall_ns_total: float
    walker_stall_ns_mean: float
    writebacks: int
    remote_fraction: float

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "accesses": self.accesses,
            "payload_accesses": self.payload_accesses,
            "descriptor_accesses": self.descriptor_accesses,
            "payload_cache_hit_rate": self.payload_cache_hit_rate,
            "descriptor_cache_hit_rate": self.descriptor_cache_hit_rate,
            "iotlb_hit_rate": self.iotlb_hit_rate,
            "iotlb_misses": self.iotlb_misses,
            "walker_stall_ns_total": self.walker_stall_ns_total,
            "walker_stall_ns_mean": self.walker_stall_ns_mean,
            "writebacks": self.writebacks,
            "remote_fraction": self.remote_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HostSideStats":
        """Rebuild host-side counters from :meth:`as_dict` output."""
        return cls(
            accesses=int(data["accesses"]),
            payload_accesses=int(data["payload_accesses"]),
            descriptor_accesses=int(data["descriptor_accesses"]),
            payload_cache_hit_rate=float(data["payload_cache_hit_rate"]),
            descriptor_cache_hit_rate=float(data["descriptor_cache_hit_rate"]),
            iotlb_hit_rate=float(data["iotlb_hit_rate"]),
            iotlb_misses=int(data["iotlb_misses"]),
            walker_stall_ns_total=float(data["walker_stall_ns_total"]),
            walker_stall_ns_mean=float(data["walker_stall_ns_mean"]),
            writebacks=int(data["writebacks"]),
            remote_fraction=float(data["remote_fraction"]),
        )


def _unit_layout(buffer: HostBuffer) -> tuple[int, int, int]:
    """``(address of unit 0, unit size, unit count)`` of a buffer window."""
    return buffer.unit_address(0), buffer.unit_size, buffer.unit_count


class HostCoupling:
    """Runtime host-side state for one host-coupled datapath run.

    Owns the profile-built :class:`~repro.sim.host.HostSystem`, the
    descriptor-ring and payload buffer layouts, the address streams, and
    the hit/stall counters; :class:`~repro.sim.nicsim.NicDatapathSimulator`
    calls :meth:`access` once per DMA transaction and layers link
    serialisation, ingress and walker occupancy on top of the returned
    :class:`HostAccess`.

    Two construction modes exist.  The historical one (``shared=None``)
    builds a private :class:`~repro.sim.host.HostSystem` for this one
    device and prepares cache/IOTLB state itself.  The *shared-host* mode
    (``shared`` set to a :class:`repro.sim.fabric.SharedHost`) instead
    binds this coupling to a host that several devices contend on: the
    root complexes, cache, IOMMU, NUMA and noise models come from the
    shared instance, this device's buffer regions are offset by
    ``device_index * DEVICE_ADDRESS_STRIDE`` so translations never alias
    across devices, and cache/IOTLB preparation is deferred to the shared
    host — which warms either the *aggregate* working set (the shared
    regime) or, under per-device DDIO way partitioning, each device's own
    capacity slice, routed back to this device by the same address-region
    stride.  Per-device counters work identically in both modes.
    """

    def __init__(
        self,
        config: NicHostConfig,
        *,
        ring_depth: int,
        seed: int,
        shared: "object | None" = None,
        device_index: int = 0,
    ) -> None:
        if ring_depth <= 0:
            raise ValidationError(
                f"ring_depth must be positive, got {ring_depth}"
            )
        if device_index < 0:
            raise ValidationError(
                f"device_index must be non-negative, got {device_index}"
            )
        if shared is None and device_index != 0:
            raise ValidationError(
                "device_index is only meaningful with a shared host"
            )
        self.config = config
        self.device_index = device_index
        if shared is None:
            self.host = HostSystem.from_profile(
                config.system,
                iommu_enabled=config.iommu_enabled,
                iommu_page_size=config.iommu_page_size,
                seed=seed,
                cache_model="statistical",
            )
        else:
            self.host = shared.host
            if self.host.profile.name != get_profile(config.system).name:
                raise ValidationError(
                    f"device profile {config.system!r} does not match the "
                    f"shared host profile {self.host.profile.name!r}"
                )
        profile = self.host.profile
        numa = self.host.numa
        self._payload_node = (
            numa.device_node
            if config.payload_placement == "local"
            else numa.remote_node()
        )
        region_base = device_index * DEVICE_ADDRESS_STRIDE
        self.payload_buffer = HostBuffer(
            window_size=config.payload_window,
            transfer_size=PAYLOAD_UNIT_BYTES,
            numa_node=self._payload_node,
            base_address=PAYLOAD_BASE + region_base,
            page_size=config.iommu_page_size,
        )
        ring_window = align_up(ring_depth * DESCRIPTOR_BYTES, CACHELINE_BYTES)
        self.ring_buffers = {
            "tx": HostBuffer(
                window_size=ring_window,
                transfer_size=DESCRIPTOR_BYTES,
                numa_node=numa.device_node,
                base_address=TX_RING_BASE + region_base,
                page_size=config.iommu_page_size,
            ),
            "rx": HostBuffer(
                window_size=ring_window,
                transfer_size=DESCRIPTOR_BYTES,
                numa_node=numa.device_node,
                base_address=RX_RING_BASE + region_base,
                page_size=config.iommu_page_size,
            ),
        }

        # Payload DMAs go through the profile host's root complex; the
        # descriptor regions get their own root complex sharing the IOMMU,
        # NUMA, memory and noise models but with a separate cache model,
        # because the statistical cache's residency is per-window: the hot
        # ring must not inherit the payload window's (low) hit probability.
        # A salted RNG keeps the descriptor-side streams independent of the
        # payload-side ones (see _DESCRIPTOR_SEED_SALT).  In shared-host
        # mode both root complexes (and so both caches) are the shared
        # host's: devices genuinely contend on one LLC/DDIO slice and one
        # descriptor-cache view, and preparation is the shared host's job.
        self.payload_rc = self.host.root_complex
        if shared is None:
            descriptor_rng = SimRng(seed ^ _DESCRIPTOR_SEED_SALT)
            descriptor_cache = StatisticalCache(
                profile.llc_bytes,
                ddio_fraction=profile.ddio_fraction,
                rng=descriptor_rng,
            )
            self.descriptor_rc = RootComplex(
                profile.root_complex_config(),
                cache=descriptor_cache,
                iommu=self.host.iommu,
                numa=numa,
                memory=self.payload_rc.memory,
                noise=profile.noise,
                rng=descriptor_rng,
            )
            self.payload_rc.prepare_cache(
                config.payload_cache_state, self.payload_buffer.window_cachelines
            )
            self.descriptor_rc.prepare_cache(
                CacheState.HOST_WARM,
                2 * self.ring_buffers["tx"].window_cachelines,
            )
            self._warm_iotlb()
        else:
            self.descriptor_rc = shared.descriptor_rc

        # Device 0 keeps the historical stream name so a single-device
        # shared host reproduces the un-shared coupling bit for bit; later
        # devices get decorrelated sibling streams.
        stream = (
            "nicsim.host.payload_units"
            if device_index == 0
            else f"nicsim.host.payload_units.dev{device_index}"
        )
        self._unit_stream = self.host.rng.spawn(stream)
        # (first unit address, unit size, unit count) of the payload window
        # and of each descriptor ring: every access needs them, and the
        # HostBuffer properties recompute them on each read.
        self._payload_layout = _unit_layout(self.payload_buffer)
        self._ring_layout = {
            direction: _unit_layout(buffer)
            for direction, buffer in self.ring_buffers.items()
        }
        self._device_node = numa.device_node
        self._ring_cursor = {"tx": 0, "rx": 0}
        self._payload_accesses = 0
        self._payload_cache_hits = 0
        self._descriptor_accesses = 0
        self._descriptor_cache_hits = 0
        self._iotlb_misses = 0
        self._writebacks = 0
        self._remote_accesses = 0
        self._walker_stall_ns = 0.0

    # -- construction helpers ---------------------------------------------------

    def _warm_iotlb(self) -> None:
        """Model steady state after the driver mapped its buffers.

        As in :meth:`~repro.sim.host.HostSystem.prepare`, translations for
        as much of the payload window as the IOTLB can hold start cached;
        the (few) descriptor-ring pages are warmed last so they begin as
        the most recently used entries.
        """
        iommu = self.host.iommu
        iommu.invalidate()
        if iommu.enabled:
            page = self.config.iommu_page_size
            pages_to_warm = min(
                self.payload_buffer.window_pages, iommu.config.iotlb_entries
            )
            iommu.warm(
                [PAYLOAD_BASE + index * page for index in range(pages_to_warm)]
            )
            for buffer in self.ring_buffers.values():
                iommu.warm(
                    [
                        buffer.base_address + index * page
                        for index in range(buffer.window_pages)
                    ]
                )
        iommu.reset_stats()

    # -- per-transaction servicing ----------------------------------------------

    @property
    def mmio_read_ns(self) -> float:
        """Host turnaround of a driver register read, from the profile."""
        return self.host.profile.mmio_read_ns

    def _payload_address(self) -> int:
        first, unit_size, units = self._payload_layout
        return first + int(self._unit_stream.integers(0, units)) * unit_size

    def _descriptor_address(self, direction: str) -> int:
        first, unit_size, units = self._ring_layout[direction]
        cursor = self._ring_cursor[direction]
        self._ring_cursor[direction] = cursor + 1
        return first + (cursor % units) * unit_size

    def access(
        self, kind: OpKind, *, direction: str, payload: bool, size: int
    ) -> HostAccess:
        """Service one DMA transaction's host side and update the counters.

        Args:
            kind: ``DMA_READ`` or ``DMA_WRITE`` (MMIO never reaches host
                memory and is not routed here).
            direction: ``"tx"`` or ``"rx"`` (selects the descriptor ring).
            payload: whether this is the per-packet payload DMA (targets
                the payload window) rather than a descriptor-region DMA.
            size: transaction size in bytes (drives ingress occupancy).
        """
        if kind is OpKind.DMA_READ:
            read = True
        elif kind is OpKind.DMA_WRITE:
            read = False
        else:
            raise ValidationError(
                f"host coupling only services DMA transactions, got {kind}"
            )
        if payload:
            root_complex = self.payload_rc
            address = self._payload_address()
            node = self._payload_node
        else:
            root_complex = self.descriptor_rc
            address = self._descriptor_address(direction)
            node = self._device_node
        if read:
            result = root_complex.read(address, size, buffer_node=node)
        else:
            result = root_complex.write(address, size, buffer_node=node)
        if payload:
            self._payload_accesses += 1
            self._payload_cache_hits += result.cache_hit
        else:
            self._descriptor_accesses += 1
            self._descriptor_cache_hits += result.cache_hit
        self._iotlb_misses += not result.iotlb_hit
        self._writebacks += result.writeback
        self._remote_accesses += result.remote
        return result

    def aggregate_access(
        self, kind: OpKind, *, direction: str, sizes: list[int]
    ) -> HostAccess:
        """Service a fluid batch of payload DMAs as one combined access.

        The hybrid fast path replaces per-packet payload transactions
        with one fabric-visible claim per completion batch.  Every packet
        still takes an individual :meth:`access` internally — cache,
        IOTLB and NUMA counters stay exact — but the returned record
        combines them the way a single aggregate claim would hold the
        shared resources: walker/ingress occupancies *sum* (serial holds)
        while the latency is the batch *mean* (packets pipeline through
        the host, they do not serialise on completion latency).
        """
        if not sizes:
            raise ValidationError("aggregate access needs at least one size")
        latency = 0.0
        walker = 0.0
        ingress = 0.0
        for size in sizes:
            access = self.access(
                kind, direction=direction, payload=True, size=size
            )
            latency += access.latency_ns
            walker += access.walker_occupancy_ns
            ingress += access.ingress_occupancy_ns
        return HostAccess(
            latency_ns=latency / len(sizes),
            walker_occupancy_ns=walker,
            ingress_occupancy_ns=ingress,
        )

    def note_walker_stall(self, stall_ns: float) -> None:
        """Record time a transaction spent waiting for the busy page walker."""
        self._walker_stall_ns += stall_ns

    def descriptor_counters(self) -> tuple[int, int]:
        """Cumulative ``(accesses, hits)`` for the descriptor cache.

        Read mid-run by the control plane, which differences consecutive
        reads to get per-window hit rates.
        """
        return self._descriptor_accesses, self._descriptor_cache_hits

    # -- summary ----------------------------------------------------------------

    def stats(self) -> HostSideStats:
        """Snapshot of the host-side counters after a run."""
        total = self._payload_accesses + self._descriptor_accesses
        return HostSideStats(
            accesses=total,
            payload_accesses=self._payload_accesses,
            descriptor_accesses=self._descriptor_accesses,
            payload_cache_hit_rate=(
                self._payload_cache_hits / self._payload_accesses
                if self._payload_accesses
                else 0.0
            ),
            descriptor_cache_hit_rate=(
                self._descriptor_cache_hits / self._descriptor_accesses
                if self._descriptor_accesses
                else 0.0
            ),
            iotlb_hit_rate=(
                (total - self._iotlb_misses) / total if total else 1.0
            ),
            iotlb_misses=self._iotlb_misses,
            walker_stall_ns_total=self._walker_stall_ns,
            walker_stall_ns_mean=(
                self._walker_stall_ns / self._iotlb_misses
                if self._iotlb_misses
                else 0.0
            ),
            writebacks=self._writebacks,
            remote_fraction=self._remote_accesses / total if total else 0.0,
        )
