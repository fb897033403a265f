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

:class:`SharedHost` is the only code that builds and prepares a coupling's
host: one profile-built :class:`~repro.sim.host.HostSystem` (root complex,
LLC/DDIO cache, IOMMU, NUMA, memory, noise) plus a descriptor-side root
complex, with one :class:`HostCoupling` per device.  Both read each
device's host-coupled :class:`~repro.sim.nicsim.NicSimParams` record (its
``system``, IOMMU settings, payload window, cache state and placement,
and ring depth); the record checked every value when it was built, so
neither keeps a copy of those rules.  Devices keep private
buffer regions (offset by :data:`DEVICE_ADDRESS_STRIDE` so translations
never alias) but contend on the shared cache residency, IOTLB and memory
system.  A solo :class:`~repro.sim.nicsim.NicDatapathSimulator` run binds
through a one-device shared host; a :mod:`repro.sim.fabric` run binds N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

from ..core.transactions import DESCRIPTOR_BYTES, OpKind
from ..errors import ValidationError, record_reader
from ..units import CACHELINE_BYTES, align_up
from .cache import CacheState, SetAssociativeCache
from .host import HostSystem, _build_cache
from .hostbuffer import HostBuffer
from .rng import SimRng, block_draws
from .root_complex import HostAccess, RootComplex

if TYPE_CHECKING:  # pragma: no cover
    from .nicsim import NicSimParams

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
#: :class:`SharedHost`).  Each device's three regions are offset by
#: ``device_index * DEVICE_ADDRESS_STRIDE`` so no two devices' pages alias
#: in the shared IOTLB.  Device 0's layout is the layout above.
DEVICE_ADDRESS_STRIDE = 1 << 40

#: Seed perturbation for the descriptor-side RNG.  ``SimRng`` caches named
#: sub-streams, so building the descriptor root complex from the *same*
#: ``SimRng`` as the payload one would make both caches (and both noise
#: models) draw from one interleaved stream — descriptor traffic volume
#: would then silently reshuffle payload hit/miss draws, defeating the
#: per-component decorrelation :mod:`repro.sim.rng` promises.
_DESCRIPTOR_SEED_SALT = 0x6E69_6352


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
    @record_reader
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
    """One device's runtime host-side state on a :class:`SharedHost`.

    Built from the device's host-coupled
    :class:`~repro.sim.nicsim.NicSimParams` record (its payload window,
    cache state and placement, IOMMU page size and ring depth).  Owns the
    device's descriptor-ring and payload buffer layouts, its
    address streams and its hit/stall counters; the root complexes, cache,
    IOMMU, NUMA and noise models are the shared host's, which builds every
    coupling and prepares its cache and IOTLB state.
    :class:`~repro.sim.nicsim.NicDatapathSimulator` calls :meth:`access`
    once per DMA transaction and layers link serialisation, ingress and
    walker occupancy on top of the returned :class:`HostAccess`.

    The device's buffer regions are offset by ``device_index *
    DEVICE_ADDRESS_STRIDE``, so translations never alias across devices
    and a partitioned cache routes each access to its owner's capacity
    slice by address alone.
    """

    def __init__(
        self,
        params: NicSimParams,
        *,
        shared: "SharedHost",
        device_index: int = 0,
    ) -> None:
        if device_index < 0:
            raise ValidationError(
                f"device_index must be non-negative, got {device_index}"
            )
        self.params = params
        self.host = shared.host
        numa = self.host.numa
        self._payload_node = (
            numa.device_node
            if params.payload_placement == "local"
            else numa.remote_node()
        )
        region_base = device_index * DEVICE_ADDRESS_STRIDE
        page_size = params.iommu_page_size
        self.payload_buffer = HostBuffer(
            window_size=params.payload_window,
            transfer_size=PAYLOAD_UNIT_BYTES,
            numa_node=self._payload_node,
            base_address=PAYLOAD_BASE + region_base,
            page_size=page_size,
        )
        ring_window = align_up(
            params.ring_depth * DESCRIPTOR_BYTES, CACHELINE_BYTES
        )
        self.ring_buffers = {
            "tx": HostBuffer(
                window_size=ring_window,
                transfer_size=DESCRIPTOR_BYTES,
                numa_node=numa.device_node,
                base_address=TX_RING_BASE + region_base,
                page_size=page_size,
            ),
            "rx": HostBuffer(
                window_size=ring_window,
                transfer_size=DESCRIPTOR_BYTES,
                numa_node=numa.device_node,
                base_address=RX_RING_BASE + region_base,
                page_size=page_size,
            ),
        }
        # Payload DMAs go through the host's root complex, descriptor-region
        # DMAs through the shared descriptor root complex: devices contend
        # on one LLC/DDIO slice and one descriptor-cache view.
        self.payload_rc = self.host.root_complex
        self.descriptor_rc = shared.descriptor_rc

        # Device 0 keeps the historical stream name, which the seeded
        # goldens' draws rest on; later devices get decorrelated sibling
        # streams.
        stream = (
            "nicsim.host.payload_units"
            if device_index == 0
            else f"nicsim.host.payload_units.dev{device_index}"
        )
        # (first unit address, unit size, unit count) of the payload window
        # and of each descriptor ring: every access needs them, and the
        # HostBuffer properties recompute them on each read.
        self._payload_layout = _unit_layout(self.payload_buffer)
        # This coupling is the unit stream's only reader and draws one
        # range from it, so its unit indices come in blocks.
        self._payload_units = block_draws(
            partial(
                self.host.rng.spawn(stream).integers, 0, self._payload_layout[2]
            )
        )
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

    # -- per-transaction servicing ----------------------------------------------

    @property
    def mmio_read_ns(self) -> float:
        """Host turnaround of a driver register read, from the profile."""
        return self.host.profile.mmio_read_ns

    def _payload_address(self) -> int:
        first, unit_size, _ = self._payload_layout
        return first + next(self._payload_units) * unit_size

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


class SharedHost:
    """The one host N device couplings contend on, built and prepared here.

    Construction order matters: build the host from the profile and IOMMU
    settings the devices agree on, build the descriptor root complex, bind
    one :class:`HostCoupling` per device, then prepare the payload cache,
    the descriptor cache and the IOTLB, each over the *aggregate* working
    set, so N devices genuinely squeeze each other out of the LLC and the
    IOTLB reach.  A solo run is a one-device shared host, whose aggregates
    are the device's own working set.

    The descriptor root complex shares the host's IOMMU, NUMA, memory and
    noise models but has its own cache model, because the statistical
    cache's residency is per-window: the hot rings must not inherit the
    payload window's (low) hit probability.  A salted RNG keeps its
    streams independent of the payload side's (see
    ``_DESCRIPTOR_SEED_SALT``).

    Args:
        devices: one host-coupled :class:`~repro.sim.nicsim.NicSimParams`
            record per device (a solo run's record, or
            :meth:`~repro.sim.fabric.ContentionParams.solo_params`); they
            must agree on ``system``, ``iommu_enabled`` and
            ``iommu_page_size``.
        seed: seed of every host-side random stream.
        cache_model: ``"statistical"`` (the occupancy-probability model)
            or ``"faithful"`` (the line-accurate
            :class:`~repro.sim.cache.SetAssociativeCache`, warmed over each
            device's real address regions).
        ddio_partition: per-device DDIO/LLC capacity shares, or ``None``
            for one aggregate residency.  A single device has nothing to
            partition against and ignores it.
    """

    def __init__(
        self,
        devices: Sequence[NicSimParams],
        *,
        seed: int,
        cache_model: str = "statistical",
        ddio_partition: Sequence[float] | None = None,
    ) -> None:
        if not devices:
            raise ValidationError("a shared host needs at least one device")
        settings = {
            (device.system, device.iommu_enabled, device.iommu_page_size)
            for device in devices
        }
        if len(settings) > 1:
            raise ValidationError(
                "devices sharing one host must agree on its profile and "
                "IOMMU settings (system, iommu_enabled, iommu_page_size), "
                f"got {sorted(settings)}"
            )
        partitioned = ddio_partition is not None and len(devices) > 1
        self.cache_model = cache_model
        self.ddio_partition = ddio_partition
        self.partitioned = partitioned
        first = devices[0]
        self.host = HostSystem.from_profile(
            first.system,
            iommu_enabled=first.iommu_enabled,
            iommu_page_size=first.iommu_page_size,
            seed=seed,
            cache_model=cache_model,
        )
        profile = self.host.profile
        descriptor_rng = SimRng(seed ^ _DESCRIPTOR_SEED_SALT)
        self.descriptor_rc = RootComplex(
            profile.root_complex_config(),
            cache=_build_cache(profile, cache_model, descriptor_rng),
            iommu=self.host.iommu,
            numa=self.host.numa,
            memory=self.host.root_complex.memory,
            noise=profile.noise,
            rng=descriptor_rng,
        )
        self.couplings = [
            HostCoupling(device, shared=self, device_index=index)
            for index, device in enumerate(devices)
        ]
        self._prepare()

    def _prepare(self) -> None:
        """Prime the shared cache and IOTLB for the aggregate working set.

        Two residency regimes exist.  *Shared* (``ddio_partition=None``,
        the PR 4 behaviour): one aggregate window per cache model — every
        device's hit probability is diluted by its neighbours' working
        sets, and (with two or more devices) the descriptor rings compete
        with the *whole aggregate payload* working set for LLC residency,
        so a bulk neighbour evicts a victim's rings.  *Partitioned*: every
        device owns a capacity slice (routed by address region), prepared
        over that device's own working set alone — rings then compete only
        with their own device's payload window.  A single device has
        nothing to partition against and always takes the shared
        preparation over its own working set.
        """
        if self.cache_model == "faithful":
            self._prepare_faithful()
        elif self.partitioned:
            self._prepare_partitions(self.ddio_partition)
        else:
            payload_lines = sum(
                coupling.payload_buffer.window_cachelines
                for coupling in self.couplings
            )
            self.host.root_complex.prepare_cache(
                self.couplings[0].params.payload_cache_state, payload_lines
            )
            descriptor_window = sum(
                2 * coupling.ring_buffers["tx"].window_cachelines
                for coupling in self.couplings
            )
            if len(self.couplings) > 1:
                # The rings share the LLC with every device's payload
                # buffers: aggregate payload pressure squeezes them out.
                descriptor_window += payload_lines
            self.descriptor_rc.prepare_cache(
                CacheState.HOST_WARM, descriptor_window
            )
        self._warm_iotlb()

    def _prepare_partitions(self, shares: Sequence[float]) -> None:
        """Split both statistical caches into per-device capacity slices.

        Each slice is primed over its own device's working set: the
        payload slice in the device's preparation state, the descriptor
        slice host-warm over the device's rings plus its payload window.
        """
        owner = _line_owner(len(self.couplings))
        payload_cache = self.host.root_complex.cache
        descriptor_cache = self.descriptor_rc.cache
        payload_cache.partition(shares, owner)
        descriptor_cache.partition(shares, owner)
        for index, coupling in enumerate(self.couplings):
            own_payload = coupling.payload_buffer.window_cachelines
            payload_cache.prepare_partition(
                index, coupling.params.payload_cache_state, own_payload
            )
            descriptor_cache.prepare_partition(
                index,
                CacheState.HOST_WARM,
                2 * coupling.ring_buffers["tx"].window_cachelines
                + own_payload,
            )

    def repartition(self, shares: Sequence[float]) -> None:
        """Resize the per-device DDIO capacity slices mid-run.

        The control plane's DDIO actuator.  Only meaningful in the
        partitioned *statistical* regime, where a partition is a capacity
        budget plus an occupancy probability: resizing re-derives each
        device's budget from its new share and re-primes the partition in
        its configured preparation state, exactly as initial preparation
        did.  (The faithful model tracks concrete lines whose residency
        cannot be re-primed without fabricating history, so it is not
        resizable mid-run.)
        """
        if not self.partitioned:
            raise ValidationError(
                "cannot repartition: this run shares one aggregate cache "
                "residency (no ddio_partition)"
            )
        if self.cache_model != "statistical":
            raise ValidationError(
                "mid-run repartitioning needs the statistical cache model"
            )
        if len(shares) != len(self.couplings):
            raise ValidationError(
                f"need one share per device ({len(self.couplings)}), "
                f"got {len(shares)}"
            )
        self._prepare_partitions(shares)

    def _warm_iotlb(self) -> None:
        """Model steady state after the drivers mapped their buffers.

        As in :meth:`~repro.sim.host.HostSystem.prepare`, translations for
        as much of each payload window as the IOTLB can hold start cached;
        the (few) descriptor-ring pages are warmed last, per device, so
        every device's ring translations begin as the most recently used
        entries.
        """
        iommu = self.host.iommu
        iommu.invalidate()
        for coupling in self.couplings:
            buffer = coupling.payload_buffer
            iommu.warm(
                buffer.base_address,
                min(buffer.window_pages, iommu.config.iotlb_entries),
            )
        for coupling in self.couplings:
            for buffer in coupling.ring_buffers.values():
                iommu.warm(buffer.base_address, buffer.window_pages)
        iommu.reset_stats()

    def _prepare_faithful(self) -> None:
        """Warm the line-accurate caches over each device's real addresses.

        The statistical models are windows of probability; the faithful
        :class:`~repro.sim.cache.SetAssociativeCache` tracks concrete
        lines, so warming walks each device's actual payload and ring
        address regions (the same regions the run's DMAs will touch).
        With ``ddio_partition`` both caches first split their DDIO ways
        between the devices, so run-time write allocations evict within
        the owner's budget only.  Cross-device *descriptor* eviction
        pressure is a statistical-regime abstraction (two separate cache
        instances never see each other's traffic); here the rings simply
        stay warm unless a device's own writes evict them.
        """
        payload_cache = self.host.root_complex.cache
        descriptor_cache = self.descriptor_rc.cache
        assert isinstance(payload_cache, SetAssociativeCache)
        assert isinstance(descriptor_cache, SetAssociativeCache)
        if self.partitioned:
            owner = _line_owner(len(self.couplings))
            payload_cache.partition_ddio(self.ddio_partition, owner)
            descriptor_cache.partition_ddio(self.ddio_partition, owner)
        for coupling in self.couplings:
            buffer = coupling.payload_buffer
            state = CacheState.from_value(coupling.params.payload_cache_state)
            if state is CacheState.COLD:
                continue
            first = buffer.base_address // CACHELINE_BYTES
            for line in range(first, first + buffer.window_cachelines):
                if state is CacheState.HOST_WARM:
                    payload_cache.host_touch(line)
                else:  # DEVICE_WARM: allocate through the DDIO ways
                    payload_cache.write(line)
        for coupling in self.couplings:
            for buffer in coupling.ring_buffers.values():
                first = buffer.base_address // CACHELINE_BYTES
                for line in range(first, first + buffer.window_cachelines):
                    descriptor_cache.host_touch(line)


def _line_owner(device_count: int):
    """Map a cache-line address to the device owning its address region.

    Device regions are offset by :data:`DEVICE_ADDRESS_STRIDE`, so the
    owning device falls straight out of the line address — this is how the
    partitioned cache models route an access to its owner's capacity slice
    without threading device ids through the root complex.
    """
    region_lines = DEVICE_ADDRESS_STRIDE // CACHELINE_BYTES

    def owner(line_address: int) -> int:
        return min(device_count - 1, line_address // region_lines)

    return owner
