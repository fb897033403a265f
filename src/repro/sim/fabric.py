"""Shared-host fabric: several NIC datapaths contending on one host.

The paper's §7 speculates that the host side of PCIe — root-complex
ingress, the IOMMU page walker, the DDIO slice of the LLC — becomes a
contended and potentially *unfair* bottleneck once several devices share
it.  Every earlier layer of this reproduction models a single device with
a private host; this module supplies the missing multi-device substrate:

* :class:`SharedHost` owns exactly one profile-built
  :class:`~repro.sim.host.HostSystem` (root complex, LLC/DDIO cache,
  IOMMU, NUMA, memory, noise) plus one descriptor-side root complex, and
  binds N per-device :class:`~repro.sim.nichost.HostCoupling` instances
  to it.  Devices keep private buffer regions (offset by
  :data:`~repro.sim.nichost.DEVICE_ADDRESS_STRIDE` so translations never
  alias) but genuinely contend on the shared cache residency, the shared
  IOTLB and the shared memory system: cache and IOTLB warming happen here,
  over the *aggregate* working set of all devices.

* A PCIe switch / root-port **arbitration topology**: the root-complex
  ingress pipeline and the IOMMU page walker are arbitrated through a
  compiled :class:`~repro.sim.topology.FabricTopology` — a tree of
  :class:`~repro.sim.engine.ArbitratedResource` nodes (devices → N-port
  switches → root port, arbitrary depth) where arbitration composes level
  by level.  Every node applies the configured scheme — ``fcfs`` (the
  un-arbitrated baseline), ``rr`` (round-robin), ``wrr`` (weighted fair
  service), ``age`` (weighted aging / deadline-style) or ``sliced``
  (preemptible wrr quanta that bound how long a victim can wait behind a
  bulk grant).  The default topology is flat (every device directly on
  the root port), which compiles to the single arbitration level PR 4
  hard-wired and reproduces it bit for bit.

* **Per-device DDIO way partitioning** (``FabricConfig.ddio_partition``):
  instead of one aggregate cache residency that lets a bulk neighbour
  dilute everyone's hit probability, each device can own a slice of the
  LLC/DDIO capacity (routed by its address region), so its payload window
  *and its descriptor rings* keep their solo hit rates no matter what the
  neighbours do.  In the shared (unpartitioned) regime, multi-device runs
  model the aggregate payload pressure squeezing the descriptor rings out
  of the LLC — the eviction effect partitioning removes.

* :class:`FabricSimulator` runs N independent
  :class:`~repro.sim.nicsim.NicDatapathSimulator`-style devices — each
  with its own links, rings, queues, tag pool, workload and RNG streams —
  inside **one** discrete-event loop, so their DMAs interleave on the
  shared host in true time order.

Degenerate-case contract: both simulators build every device with one
builder (:class:`~repro.sim.nicsim._Device`: links, tag pool, queues,
arrival feed, result), and only what surrounds the devices differs.  A
fabric with a *single* device gives it no arbitration port, so the device
serialises on plain ``SerialResource`` ingress/walker resources with the
historical RNG stream names — the code path of a
:class:`~repro.sim.nicsim.NicDatapathSimulator` run — and reproduces the
single-device golden records, and a traced run's spans, bit for bit.  The
arbitration layer only engages with two or more devices, where there is
something to arbitrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from ..control import (
    CONTROL_POLICIES,
    DEFAULT_CONTROL_WINDOW_NS,
    ControlAction,
    ControlRuntime,
    build_controller,
)
from ..core.config import PAPER_DEFAULT_CONFIG, PCIeConfig
from ..core.nic import NicModel, model_by_name
from ..errors import ValidationError, record_reader
from ..obs.metrics import MetricsRegistry, metric_segment
from ..obs.trace import ARB_PREFIX, STAGE_WALKER, Tracer
from ..units import CACHELINE_BYTES, KIB, MIB
from ..workloads import Workload
from ..workloads.rss import check_rss_table
from .cache import (
    CacheState,
    CacheStats,
    SetAssociativeCache,
    StatisticalCache,
)
from .engine import (
    ARBITER_SCHEMES,
    WEIGHTED_SCHEMES,
    DEFAULT_QUANTUM_NS,
    MODES,
    EngineProfile,
    EventLoop,
)
from .host import HostSystem
from .nichost import (
    _DESCRIPTOR_SEED_SALT,
    DEVICE_ADDRESS_STRIDE,
    HostCoupling,
    NicHostConfig,
)
from .nicsim import (
    NicSimConfig,
    NicSimResult,
    _Device,
    _install_metrics_sampler,
)
from .profiles import get_profile
from .rng import DEFAULT_SEED, SimRng
from .root_complex import RootComplex
from .topology import CompiledTopology, FabricTopology, compile_topology


@dataclass(frozen=True)
class FabricConfig:
    """The host and arbitration settings every device shares.

    Attributes:
        system: Table 1 profile supplying the shared root complex, cache,
            IOMMU, NUMA and noise calibrations.
        iommu_enabled / iommu_page_size: shared IOMMU settings (all DMAs
            of all devices translate through one IOTLB and one walker).
        arbiter: arbitration scheme applied at every fabric node:
            ``"fcfs"``, ``"rr"``, ``"wrr"``, ``"age"`` or ``"sliced"``
            (see :class:`~repro.sim.engine.ArbitratedResource`).
        weights: per-device service weights for the weighted schemes
            (``wrr``/``age``/``sliced``; defaults to equal weights);
            rejected by the unweighted ones.  Switch ports compete at
            their parent with their subtree's summed weight.
        topology: the fabric tree (see
            :class:`~repro.sim.topology.FabricTopology`; a spec string is
            parsed).  ``None`` is the flat PR 4 topology: every device
            directly on the root port.
        quantum_ns: preemptible service quantum of the ``"sliced"``
            scheme (defaults to
            :data:`~repro.sim.engine.DEFAULT_QUANTUM_NS`); rejected by
            the other schemes.
        ddio_partition: per-device DDIO/LLC capacity shares.  ``None``
            keeps the PR 4 behaviour (one shared residency over the
            aggregate working set); a tuple gives every device a private
            slice of the cache model, so a bulk neighbour can no longer
            evict a victim's payload window or descriptor rings.
        cache_model: ``"statistical"`` (the default, the fast
            occupancy-probability model every earlier revision used) or
            ``"faithful"`` — the line-accurate
            :class:`~repro.sim.cache.SetAssociativeCache`, warmed over
            each device's real address regions; with ``ddio_partition``
            this is true per-owner DDIO *way* budgets whose evictions
            never touch a neighbour's lines.  O(window lines) to warm, so
            best with windows of a few MiB or less.
        controller: closed-loop control policy retuning the QoS knobs
            mid-run — ``"static"`` (the default: no control plane at all,
            bit-identical to every earlier revision), ``"threshold"``
            (reactive with hysteresis) or ``"aimd"`` (see
            :mod:`repro.control.policies`).
        control_window_ns: the controller's observation/actuation window
            in simulated nanoseconds (defaults to
            :data:`~repro.control.runtime.DEFAULT_CONTROL_WINDOW_NS`);
            rejected with the ``"static"`` controller, which never ticks.
    """

    system: str = "NFP6000-HSW"
    iommu_enabled: bool = False
    iommu_page_size: int = 4 * KIB
    arbiter: str = "fcfs"
    weights: tuple[float, ...] | None = None
    topology: FabricTopology | str | None = None
    quantum_ns: float | None = None
    ddio_partition: tuple[float, ...] | None = None
    cache_model: str = "statistical"
    controller: str = "static"
    control_window_ns: float | None = None

    def __post_init__(self) -> None:
        profile = get_profile(self.system)  # raises on unknown profiles
        object.__setattr__(self, "system", profile.name)
        if self.arbiter not in ARBITER_SCHEMES:
            raise ValidationError(
                f"unknown arbitration scheme {self.arbiter!r}; "
                f"valid: {', '.join(ARBITER_SCHEMES)}"
            )
        if self.weights is not None:
            if self.arbiter not in WEIGHTED_SCHEMES:
                raise ValidationError(
                    f"arbitration weights require a weighted scheme "
                    f"({', '.join(WEIGHTED_SCHEMES)}); the "
                    f"{self.arbiter!r} scheme ignores them"
                )
            weights = tuple(float(weight) for weight in self.weights)
            if any(weight <= 0 for weight in weights):
                raise ValidationError(
                    f"arbitration weights must be positive, got {weights}"
                )
            object.__setattr__(self, "weights", weights)
        if isinstance(self.topology, str):
            object.__setattr__(
                self, "topology", FabricTopology.parse(self.topology)
            )
        if self.arbiter == "sliced":
            quantum = (
                DEFAULT_QUANTUM_NS if self.quantum_ns is None else float(self.quantum_ns)
            )
            if quantum <= 0:
                raise ValidationError(
                    f"quantum_ns must be positive, got {quantum}"
                )
            object.__setattr__(self, "quantum_ns", quantum)
        elif self.quantum_ns is not None:
            raise ValidationError(
                "quantum_ns only applies to the sliced arbiter, not "
                f"{self.arbiter!r}"
            )
        if self.ddio_partition is not None:
            shares = tuple(float(share) for share in self.ddio_partition)
            if any(share <= 0 for share in shares):
                raise ValidationError(
                    f"ddio_partition shares must be positive, got {shares}"
                )
            object.__setattr__(self, "ddio_partition", shares)
        if self.cache_model not in ("statistical", "faithful"):
            raise ValidationError(
                "cache_model must be 'statistical' or 'faithful', got "
                f"{self.cache_model!r}"
            )
        if self.controller not in CONTROL_POLICIES:
            raise ValidationError(
                f"unknown controller {self.controller!r}; "
                f"valid: {', '.join(CONTROL_POLICIES)}"
            )
        if self.control_window_ns is not None:
            if self.controller == "static":
                raise ValidationError(
                    "control_window_ns only applies to an active "
                    "controller; the 'static' policy never ticks"
                )
            window = float(self.control_window_ns)
            if window <= 0:
                raise ValidationError(
                    f"control_window_ns must be positive, got {window}"
                )
            object.__setattr__(self, "control_window_ns", window)


@dataclass(frozen=True)
class FabricDevice:
    """One NIC device attached to the shared host.

    Mirrors the per-device half of a
    :class:`~repro.sim.nicsim.NicSimConfig` plus the buffer-placement half
    of a :class:`~repro.sim.nichost.NicHostConfig`; the host half lives in
    :class:`FabricConfig`, shared by construction.

    Attributes:
        workload: the prepared traffic description this device replays.
        model: NIC/driver model (name or instance).
        packets: packets simulated per direction for this device.
        name: label used in results (defaults to ``dev{i}``).
        ring_depth / rx_backpressure / num_queues / dma_tags: the datapath
            knobs of :class:`~repro.sim.nicsim.NicSimConfig`.
        payload_window / payload_cache_state / payload_placement: this
            device's buffer working set on the shared host.
        seed: workload/RSS seed for this device; ``None`` inherits the
            fabric run seed.
        retain_samples: per-packet sample retention
            (:attr:`~repro.sim.nicsim.NicSimConfig.retain_samples`);
            fleet runs set this false so per-device latency streams
            through an O(1)-memory sketch.
        rss_table: explicit RSS indirection table for multi-queue
            devices (``table[hash % len]`` picks the queue).  ``None``
            uses the identity table, which sends every flow to queue
            ``hash % num_queues``.  An active controller starts from the
            table and may rewrite it mid-run.
    """

    workload: Workload
    model: NicModel | str = "dpdk"
    packets: int = 4000
    name: str = ""
    ring_depth: int = 512
    rx_backpressure: bool = False
    num_queues: int = 1
    dma_tags: int | None = None
    payload_window: int = 4 * MIB
    payload_cache_state: str = "host_warm"
    payload_placement: str = "local"
    seed: int | None = None
    retain_samples: bool = True
    rss_table: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "model",
            model_by_name(self.model) if isinstance(self.model, str) else self.model,
        )
        if self.packets <= 0:
            raise ValidationError(f"packets must be positive, got {self.packets}")
        object.__setattr__(
            self, "rss_table", check_rss_table(self.rss_table, self.num_queues)
        )

    def host_config(self, fabric: FabricConfig) -> NicHostConfig:
        """This device's buffer layout bound to the fabric's shared host."""
        return NicHostConfig(
            system=fabric.system,
            iommu_enabled=fabric.iommu_enabled,
            iommu_page_size=fabric.iommu_page_size,
            payload_window=self.payload_window,
            payload_cache_state=self.payload_cache_state,
            payload_placement=self.payload_placement,
        )

    def sim_config(self, fabric: FabricConfig) -> NicSimConfig:
        """The datapath configuration this device runs with."""
        return NicSimConfig(
            ring_depth=self.ring_depth,
            rx_backpressure=self.rx_backpressure,
            host=self.host_config(fabric),
            num_queues=self.num_queues,
            dma_tags=self.dma_tags,
            retain_samples=self.retain_samples,
            rss_table=self.rss_table,
        )


class SharedHost:
    """One host instance N device couplings contend on.

    Construction order matters and mirrors the single-device
    :class:`~repro.sim.nichost.HostCoupling` exactly: build the host,
    build the (shared) descriptor root complex, bind the couplings, then
    prepare the payload cache, the descriptor cache and the IOTLB — each
    over the *aggregate* working set, so N devices genuinely squeeze each
    other out of the LLC and the IOTLB reach.  With one device every
    aggregate equals the device's own working set and the preparation is
    identical to the un-shared path.
    """

    def __init__(
        self,
        fabric: FabricConfig,
        device_configs: Sequence[NicHostConfig],
        ring_depths: Sequence[int],
        *,
        seed: int,
    ) -> None:
        if not device_configs:
            raise ValidationError("a shared host needs at least one device")
        if len(device_configs) != len(ring_depths):
            raise ValidationError(
                "need one ring depth per device config "
                f"({len(device_configs)} vs {len(ring_depths)})"
            )
        partitioned = (
            fabric.ddio_partition is not None and len(device_configs) > 1
        )
        states = {config.payload_cache_state for config in device_configs}
        if (
            len(states) > 1
            and not partitioned
            and fabric.cache_model == "statistical"
        ):
            # Only the statistical shared regime folds every device into
            # one aggregate residency; the faithful model warms each
            # device's real address region and partitions are per-device
            # by construction.
            raise ValidationError(
                "devices sharing one aggregate cache residency must share "
                f"one payload cache preparation state, got {sorted(states)}; "
                "per-device states need ddio_partition or the faithful "
                "cache model"
            )
        if (
            fabric.ddio_partition is not None
            and len(fabric.ddio_partition) != len(device_configs)
        ):
            raise ValidationError(
                f"need one ddio_partition share per device "
                f"({len(device_configs)}), got {len(fabric.ddio_partition)}"
            )
        self.config = fabric
        self.partitioned = partitioned
        self.host = HostSystem.from_profile(
            fabric.system,
            iommu_enabled=fabric.iommu_enabled,
            iommu_page_size=fabric.iommu_page_size,
            seed=seed,
            cache_model=fabric.cache_model,
        )
        profile = self.host.profile
        descriptor_rng = SimRng(seed ^ _DESCRIPTOR_SEED_SALT)
        if fabric.cache_model == "faithful":
            descriptor_cache: StatisticalCache | SetAssociativeCache = (
                SetAssociativeCache(
                    profile.llc_bytes, ddio_fraction=profile.ddio_fraction
                )
            )
        else:
            descriptor_cache = StatisticalCache(
                profile.llc_bytes,
                ddio_fraction=profile.ddio_fraction,
                rng=descriptor_rng,
            )
        self.descriptor_rc = RootComplex(
            profile.root_complex_config(),
            cache=descriptor_cache,
            iommu=self.host.iommu,
            numa=self.host.numa,
            memory=self.host.root_complex.memory,
            noise=profile.noise,
            rng=descriptor_rng,
        )
        self.couplings = [
            HostCoupling(
                config,
                ring_depth=ring_depth,
                seed=seed,
                shared=self,
                device_index=index,
            )
            for index, (config, ring_depth) in enumerate(
                zip(device_configs, ring_depths)
            )
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
        nothing to partition against and always takes the historical
        (bit-identical) preparation.
        """
        payload_lines = sum(
            coupling.payload_buffer.window_cachelines
            for coupling in self.couplings
        )
        ring_lines = sum(
            2 * coupling.ring_buffers["tx"].window_cachelines
            for coupling in self.couplings
        )
        if self.config.cache_model == "faithful":
            self._prepare_faithful()
        elif self.partitioned:
            shares = self.config.ddio_partition
            owner = _line_owner(len(self.couplings))
            payload_cache = self.host.root_complex.cache
            descriptor_cache = self.descriptor_rc.cache
            payload_cache.partition(shares, owner)
            descriptor_cache.partition(shares, owner)
            for index, coupling in enumerate(self.couplings):
                own_payload = coupling.payload_buffer.window_cachelines
                payload_cache.prepare_partition(
                    index, coupling.config.payload_cache_state, own_payload
                )
                descriptor_cache.prepare_partition(
                    index,
                    CacheState.HOST_WARM,
                    2 * coupling.ring_buffers["tx"].window_cachelines
                    + own_payload,
                )
        else:
            self.host.root_complex.prepare_cache(
                self.couplings[0].config.payload_cache_state, payload_lines
            )
            descriptor_window = ring_lines
            if len(self.couplings) > 1:
                # The rings share the LLC with every device's payload
                # buffers: aggregate payload pressure squeezes them out.
                descriptor_window += payload_lines
            self.descriptor_rc.prepare_cache(
                CacheState.HOST_WARM, descriptor_window
            )
        self._warm_iotlb()

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
        if self.config.cache_model != "statistical":
            raise ValidationError(
                "mid-run repartitioning needs the statistical cache model"
            )
        resized = tuple(float(share) for share in shares)
        if len(resized) != len(self.couplings):
            raise ValidationError(
                f"need one share per device ({len(self.couplings)}), "
                f"got {len(resized)}"
            )
        if any(share <= 0 for share in resized):
            raise ValidationError(f"shares must be positive, got {resized}")
        owner = _line_owner(len(self.couplings))
        payload_cache = self.host.root_complex.cache
        descriptor_cache = self.descriptor_rc.cache
        payload_cache.partition(resized, owner)
        descriptor_cache.partition(resized, owner)
        for index, coupling in enumerate(self.couplings):
            own_payload = coupling.payload_buffer.window_cachelines
            payload_cache.prepare_partition(
                index, coupling.config.payload_cache_state, own_payload
            )
            descriptor_cache.prepare_partition(
                index,
                CacheState.HOST_WARM,
                2 * coupling.ring_buffers["tx"].window_cachelines
                + own_payload,
            )

    def _warm_iotlb(self) -> None:
        """Prime the shared IOTLB over every device's buffer regions."""
        iommu = self.host.iommu
        iommu.invalidate()
        if iommu.enabled:
            page = self.config.iommu_page_size
            for coupling in self.couplings:
                buffer = coupling.payload_buffer
                pages_to_warm = min(
                    buffer.window_pages, iommu.config.iotlb_entries
                )
                iommu.warm(
                    [
                        buffer.base_address + index * page
                        for index in range(pages_to_warm)
                    ]
                )
            # Ring pages last, per device, so every device's (few) ring
            # translations begin as the most recently used entries.
            for coupling in self.couplings:
                for buffer in coupling.ring_buffers.values():
                    iommu.warm(
                        [
                            buffer.base_address + index * page
                            for index in range(buffer.window_pages)
                        ]
                    )
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
            payload_cache.partition_ddio(self.config.ddio_partition, owner)
            descriptor_cache.partition_ddio(self.config.ddio_partition, owner)
        for coupling in self.couplings:
            buffer = coupling.payload_buffer
            state = CacheState.from_value(coupling.config.payload_cache_state)
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
        # Warming is preparation, not measurement.
        payload_cache.stats = CacheStats()
        descriptor_cache.stats = CacheStats()


def _line_owner(device_count: int):
    """Map a cache-line address to the device owning its address region.

    Device regions are offset by :data:`~repro.sim.nichost.
    DEVICE_ADDRESS_STRIDE`, so the owning device falls straight out of the
    line address — this is how the partitioned cache models route an
    access to its owner's capacity slice without threading device ids
    through the root complex.
    """
    region_lines = DEVICE_ADDRESS_STRIDE // CACHELINE_BYTES

    def owner(line_address: int) -> int:
        return min(device_count - 1, line_address // region_lines)

    return owner


class _UpstreamPort:
    """One device's view of the arbitrated ingress and walker resources.

    Bound to a device index so :class:`~repro.sim.nicsim._Datapath` stays
    device-agnostic; ``claim`` replays the single-device serialisation
    order (ingress first, walker second, per-device stall accounting) but
    through the fabric's compiled arbitration topology — a single
    root-level queue set for the flat topology, a switch tree otherwise.

    The walker request chained after an ingress grant matures ``ingress
    occupancy`` nanoseconds in the simulated future; submitting it
    eagerly would let the arbiter book walker time before other devices'
    earlier requests even exist (pre-booking is exactly the unfairness
    the arbitration layer removes).  It is therefore *scheduled* through
    the event loop and submitted only when simulated time reaches it, so
    every ``request`` the arbiter sees carries the current time.
    """

    __slots__ = ("_ingress", "_walker", "_client", "_schedule", "_tracer", "_device")

    def __init__(
        self,
        ingress: CompiledTopology,
        walker: CompiledTopology,
        client: int,
        schedule,
        tracer: Tracer | None = None,
        device: str = "",
    ) -> None:
        self._ingress = ingress
        self._walker = walker
        self._client = client
        self._schedule = schedule
        #: Span tracer + device name: the port records the walker *service*
        #: span (per-hop arbitration *waits* are recorded by the compiled
        #: topologies' own trace hooks).  ``None`` keeps ``claim`` on the
        #: historical code path.
        self._tracer = tracer
        self._device = device

    def claim(self, now, access, coupling, then) -> None:
        claim = _HostClaim(self, now, access, coupling, then)
        occupancy = access.ingress_occupancy_ns
        if occupancy > 0.0:
            self._ingress.request(self._client, now, occupancy, claim.at_ingress)
        else:
            claim.after_ingress(now)


class _HostClaim:
    """One host access on its way through a device's :class:`_UpstreamPort`.

    The access's state lives in this slotted record and its bound methods
    are the grant and event callbacks, so a finished access leaves no
    reference cycle behind for the garbage collector.
    """

    __slots__ = ("port", "now", "access", "coupling", "then", "ready")

    def __init__(self, port: _UpstreamPort, now, access, coupling, then) -> None:
        self.port = port
        self.now = now
        self.access = access
        self.coupling = coupling
        self.then = then
        #: When the walker request was submitted (set by ``at_walker``).
        self.ready = now

    def at_ingress(self, start: float) -> None:
        """Ingress granted at ``start``: the pipeline frees after its occupancy."""
        self.after_ingress(start + self.access.ingress_occupancy_ns)

    def after_ingress(self, ready: float) -> None:
        if self.access.walker_occupancy_ns > 0.0:
            if ready > self.now:
                self.port._schedule(ready, self.at_walker)
            else:
                self.at_walker(ready)
        else:
            self.then(ready)

    def at_walker(self, ready: float) -> None:
        self.ready = ready
        port = self.port
        port._walker.request(
            port._client, ready, self.access.walker_occupancy_ns, self.granted
        )

    def granted(self, start: float) -> None:
        """Walker granted at ``start``: the host can proceed after its service."""
        occupancy = self.access.walker_occupancy_ns
        self.coupling.note_walker_stall(max(0.0, start - self.ready))
        port = self.port
        if port._tracer is not None:
            port._tracer.record(
                port._device, "walker", -1, STAGE_WALKER, start, occupancy
            )
        self.then(start + occupancy)


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricPortStats:
    """Per-device arbitration counters for one shared resource (frozen
    snapshot of :class:`~repro.sim.engine.ArbiterClientStats`).

    For devices behind a switch tree the counters are end-to-end: one
    request per DMA, busy time counted once, and the wait folds every
    hop's queueing (and, under the sliced scheme, preemption gaps) beyond
    the pure store-and-forward service.
    """

    requests: int
    waited: int
    wait_ns_total: float
    busy_ns_total: float
    wait_ns_max: float = 0.0

    @classmethod
    def from_client(cls, stats) -> "FabricPortStats":
        """Snapshot one client's live counters."""
        return cls(
            requests=stats.requests,
            waited=stats.waited,
            wait_ns_total=stats.wait_ns_total,
            busy_ns_total=stats.busy_ns_total,
            wait_ns_max=stats.wait_ns_max,
        )

    @property
    def wait_ns_mean(self) -> float:
        """Mean queueing delay per request (0 when nothing was submitted)."""
        return self.wait_ns_total / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "requests": self.requests,
            "waited": self.waited,
            "wait_ns_total": self.wait_ns_total,
            "wait_ns_mean": self.wait_ns_mean,
            "wait_ns_max": self.wait_ns_max,
            "busy_ns_total": self.busy_ns_total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FabricPortStats":
        """Rebuild port statistics from :meth:`as_dict` output."""
        return cls(
            requests=int(data["requests"]),
            waited=int(data["waited"]),
            wait_ns_total=float(data["wait_ns_total"]),
            busy_ns_total=float(data["busy_ns_total"]),
            wait_ns_max=float(data.get("wait_ns_max", 0.0)),
        )


@dataclass(frozen=True)
class DeviceContentionResult:
    """One device's outcome of a shared-host run.

    ``ingress`` / ``walker`` carry the device's arbitration counters;
    they are ``None`` for single-device runs, where no arbitration layer
    exists (the degenerate path).
    """

    name: str
    result: NicSimResult
    ingress: FabricPortStats | None = None
    walker: FabricPortStats | None = None

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        record: dict[str, object] = {
            "name": self.name,
            "result": self.result.as_dict(),
        }
        if self.ingress is not None:
            record["ingress"] = self.ingress.as_dict()
        if self.walker is not None:
            record["walker"] = self.walker.as_dict()
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceContentionResult":
        """Rebuild a device record from :meth:`as_dict` output."""
        ingress = data.get("ingress")
        walker = data.get("walker")
        return cls(
            name=str(data["name"]),
            result=NicSimResult.from_dict(data["result"]),
            ingress=FabricPortStats.from_dict(ingress) if ingress else None,
            walker=FabricPortStats.from_dict(walker) if walker else None,
        )


@dataclass(frozen=True)
class ContentionResult:
    """Everything one shared-host (multi-device) run produced.

    ``topology`` is the compact spec of the fabric tree (``None`` means
    flat: every device on the root port) and ``topology_depth`` the
    deepest device's hop count; ``quantum_ns`` / ``ddio_partition`` echo
    the sliced-arbitration and cache-partition settings of the run so
    analyses can label scenarios without the original parameters.

    ``controller`` / ``control_window_ns`` / ``control_actions`` record
    the control plane: which policy ran, its window, and the full audit
    log of every knob it retuned (empty for the static baseline).
    """

    system: str
    arbiter: str
    weights: tuple[float, ...]
    seed: int
    duration_ns: float
    devices: tuple[DeviceContentionResult, ...] = field(default_factory=tuple)
    topology: str | None = None
    topology_depth: int = 1
    quantum_ns: float | None = None
    ddio_partition: tuple[float, ...] | None = None
    controller: str = "static"
    control_window_ns: float | None = None
    control_actions: tuple[ControlAction, ...] = field(default_factory=tuple)
    #: Engine phase timing (attached only when profiling was requested)
    #: and the serialised metrics-registry snapshot (attached only when a
    #: registry was supplied) — both absent by default so historical
    #: records and the seeded goldens round-trip unchanged.
    profile: EngineProfile | None = None
    metrics: dict | None = None

    def device(self, name: str) -> DeviceContentionResult:
        """Look one device's record up by name."""
        for record in self.devices:
            if record.name == name:
                return record
        raise ValidationError(
            f"no device {name!r} in this run; devices: "
            + ", ".join(record.name for record in self.devices)
        )

    @property
    def throughputs_gbps(self) -> dict[str, float]:
        """Per-device mean payload throughput, keyed by device name."""
        return {
            record.name: record.result.throughput_gbps
            for record in self.devices
        }

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation (tagged ``"kind": "CONTENTION"``).

        The topology/quantum/partition keys are emitted only when they
        differ from the flat-fabric defaults, so PR 4-era records
        round-trip unchanged.
        """
        record: dict[str, object] = {
            "kind": "CONTENTION",
            "system": self.system,
            "arbiter": self.arbiter,
            "weights": list(self.weights),
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "devices": [device.as_dict() for device in self.devices],
        }
        if self.topology is not None:
            record["topology"] = self.topology
            record["topology_depth"] = self.topology_depth
        if self.quantum_ns is not None:
            record["quantum_ns"] = self.quantum_ns
        if self.ddio_partition is not None:
            record["ddio_partition"] = list(self.ddio_partition)
        if self.controller != "static":
            record["controller"] = self.controller
            record["control_window_ns"] = self.control_window_ns
            record["control_actions"] = [
                action.as_dict() for action in self.control_actions
            ]
        if self.profile is not None:
            record["profile"] = self.profile.as_dict()
        if self.metrics is not None:
            record["metrics"] = self.metrics
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "ContentionResult":
        """Rebuild a result from :meth:`as_dict` output."""
        topology = data.get("topology")
        quantum = data.get("quantum_ns")
        partition = data.get("ddio_partition")
        return cls(
            system=str(data["system"]),
            arbiter=str(data["arbiter"]),
            weights=tuple(float(weight) for weight in data["weights"]),
            seed=int(data["seed"]),
            duration_ns=float(data["duration_ns"]),
            devices=tuple(
                DeviceContentionResult.from_dict(record)
                for record in data["devices"]
            ),
            topology=None if topology is None else str(topology),
            topology_depth=int(data.get("topology_depth", 1)),
            quantum_ns=None if quantum is None else float(quantum),
            ddio_partition=(
                None
                if partition is None
                else tuple(float(share) for share in partition)
            ),
            controller=str(data.get("controller", "static")),
            control_window_ns=(
                None
                if data.get("control_window_ns") is None
                else float(data["control_window_ns"])
            ),
            control_actions=tuple(
                ControlAction.from_dict(action)
                for action in data.get("control_actions", ())
            ),
            profile=(
                EngineProfile.from_dict(data["profile"])
                if data.get("profile")
                else None
            ),
            metrics=data.get("metrics"),
        )


# ---------------------------------------------------------------------------
# The fabric simulator
# ---------------------------------------------------------------------------


class FabricSimulator:
    """Runs N NIC datapaths against one shared host in one event loop."""

    def __init__(
        self,
        devices: Sequence[FabricDevice],
        fabric: FabricConfig | None = None,
        config: PCIeConfig = PAPER_DEFAULT_CONFIG,
    ) -> None:
        if not devices:
            raise ValidationError("a fabric needs at least one device")
        self.fabric = fabric or FabricConfig()
        if (
            self.fabric.weights is not None
            and len(self.fabric.weights) != len(devices)
        ):
            raise ValidationError(
                f"need one arbitration weight per device ({len(devices)}), "
                f"got {len(self.fabric.weights)}"
            )
        names = [
            device.name or f"dev{index}"
            for index, device in enumerate(devices)
        ]
        if len(set(names)) != len(names):
            raise ValidationError(f"device names must be unique, got {names}")
        if (
            self.fabric.ddio_partition is not None
            and len(self.fabric.ddio_partition) != len(devices)
        ):
            raise ValidationError(
                f"need one ddio_partition share per device ({len(devices)}), "
                f"got {len(self.fabric.ddio_partition)}"
            )
        if self.fabric.topology is not None:
            self.fabric.topology.validate_devices(names)
        self.devices = tuple(devices)
        self.names = tuple(names)
        self.config = config
        #: Wall-clock phase timing of the most recent :meth:`run`.
        self.last_profile: EngineProfile | None = None

    def run(
        self,
        *,
        seed: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        mode: str = "exact",
    ) -> ContentionResult:
        """Simulate every device's workload against the shared host.

        ``tracer`` opts the run into span tracing (per-packet lifecycle
        stages per device, walker service, per-hop arbitration waits);
        ``metrics`` attaches a window-sampled registry snapshot to the
        result.  Both default to off; neither changes what is simulated.

        ``mode`` selects the engine, mirroring
        :meth:`NicDatapathSimulator.run <repro.sim.nicsim.NicDatapathSimulator.run>`.
        Fabric runs couple every datapath to the shared host — the very
        interaction the vectorised batch solver declares a fallback on —
        so ``"batch"`` here *is* the scalar engine (same fallback the
        single-device path takes, decided up front instead of after a
        failed solve).
        """
        if mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {mode!r}"
            )
        resolved_seed = DEFAULT_SEED if seed is None else seed
        wall_start = perf_counter()
        fabric = self.fabric
        loop = EventLoop()
        shared = SharedHost(
            fabric,
            [device.host_config(fabric) for device in self.devices],
            [device.ring_depth for device in self.devices],
            seed=resolved_seed,
        )
        count = len(self.devices)
        multi = count > 1
        weights = fabric.weights or (1.0,) * count
        if multi:
            ingress_arb = compile_topology(
                "fabric.root_complex.ingress",
                fabric.topology,
                self.names,
                schedule=loop.at,
                scheme=fabric.arbiter,
                weights=weights,
                quantum_ns=fabric.quantum_ns,
                trace=self._arb_trace(tracer, "ingress"),
            )
            walker_arb = compile_topology(
                "fabric.iommu.walker",
                fabric.topology,
                self.names,
                schedule=loop.at,
                scheme=fabric.arbiter,
                weights=weights,
                quantum_ns=fabric.quantum_ns,
                trace=self._arb_trace(tracer, "walker"),
            )
            # Batched grants: back-to-back grants on an idle horizon skip
            # the scheduler round trip (bit-identical pop order).
            ingress_arb.attach_loop(loop)
            walker_arb.attach_loop(loop)
        else:
            # Degenerate case: one device, nothing to arbitrate.  Without
            # an upstream port the device serialises on private ingress
            # and walker resources, the code path of a NicDatapathSimulator
            # run, preserving golden runs bit for bit.
            ingress_arb = walker_arb = None

        # The control plane exists only when asked for: the static
        # default builds no runtime, installs no observers and feeds
        # packets straight to their queues.
        runtime: ControlRuntime | None = None
        if fabric.controller != "static":
            runtime = ControlRuntime(
                build_controller(fabric.controller),
                (
                    fabric.control_window_ns
                    if fabric.control_window_ns is not None
                    else DEFAULT_CONTROL_WINDOW_NS
                ),
                loop,
            )

        nics = [
            _Device(
                name,
                "fabric",
                device.model,
                self.config,
                device.sim_config(fabric),
                loop,
                device.workload,
                device.packets,
                seed=resolved_seed if device.seed is None else device.seed,
                coupling=shared.couplings[index],
                host_port=(
                    _UpstreamPort(
                        ingress_arb,
                        walker_arb,
                        index,
                        loop.at,
                        tracer=tracer,
                        device=name,
                    )
                    if multi
                    else None
                ),
                tracer=tracer,
                steered=runtime is not None,
            )
            for index, (name, device) in enumerate(zip(self.names, self.devices))
        ]

        if runtime is not None:
            for index, nic in enumerate(nics):
                runtime.add_device(
                    nic.name,
                    index,
                    nic.directions[0][1],  # TX queues
                    nic.steerings,
                    nic.coupling,
                )
            if multi:
                if fabric.arbiter in WEIGHTED_SCHEMES:
                    runtime.bind_weights(
                        weights,
                        [
                            ingress_arb.set_device_weights,
                            walker_arb.set_device_weights,
                        ],
                    )
                def port_totals(index, _i=ingress_arb, _w=walker_arb):
                    ingress_stats = _i.client_stats(index)
                    walker_stats = _w.client_stats(index)
                    return (
                        ingress_stats.wait_ns_total
                        + walker_stats.wait_ns_total,
                        ingress_stats.busy_ns_total
                        + walker_stats.busy_ns_total,
                    )

                runtime.bind_port_stats(port_totals)
            if shared.partitioned and fabric.cache_model == "statistical":
                runtime.bind_ddio(fabric.ddio_partition, shared.repartition)
            runtime.start()

        if metrics is not None:
            # Align metric windows with the control plane's observation
            # windows when a controller is running.
            _install_metrics_sampler(
                metrics,
                loop,
                nics,
                window_ns=(
                    runtime.window_ns
                    if runtime is not None
                    else DEFAULT_CONTROL_WINDOW_NS
                ),
            )

        events_start = perf_counter()
        loop.run()
        stats_start = perf_counter()

        records = [
            DeviceContentionResult(
                name=nic.name,
                result=nic.finish(),
                ingress=_port_stats(ingress_arb, index) if multi else None,
                walker=_port_stats(walker_arb, index) if multi else None,
            )
            for index, nic in enumerate(nics)
        ]

        self.last_profile = EngineProfile(
            label=(
                f"contend {'+'.join(self.names)} "
                f"({fabric.arbiter}, {fabric.system})"
            ),
            build_s=events_start - wall_start,
            events_s=stats_start - events_start,
            stats_s=perf_counter() - stats_start,
            events=loop.processed,
            mode="exact",
        )
        if metrics is not None:
            for nic, record in zip(nics, records):
                nic.publish(metrics, record.result)
                dev = metric_segment(nic.name)
                for resource, stats in (
                    ("ingress", record.ingress),
                    ("walker", record.walker),
                ):
                    if stats is not None:
                        metrics.gauge(
                            f"fabric.{dev}.{resource}.wait_ns_mean"
                        ).set(stats.wait_ns_mean)
        topology = fabric.topology
        # A single device bypasses arbitration entirely (the degenerate
        # path), so none of the topology/quantum/partition knobs applied:
        # suppress them rather than label a solo run a fabric scenario.
        return ContentionResult(
            system=fabric.system,
            arbiter=fabric.arbiter,
            weights=tuple(weights),
            seed=resolved_seed,
            duration_ns=max(
                [0.0] + [record.result.duration_ns for record in records]
            ),
            devices=tuple(records),
            topology=(
                None
                if not multi or topology is None or topology.is_flat
                else topology.spec()
            ),
            topology_depth=(
                1 if not multi or topology is None else topology.depth()
            ),
            quantum_ns=fabric.quantum_ns if multi else None,
            ddio_partition=fabric.ddio_partition if multi else None,
            controller=fabric.controller,
            control_window_ns=(
                runtime.window_ns if runtime is not None else None
            ),
            control_actions=(
                tuple(runtime.actions) if runtime is not None else ()
            ),
            metrics=metrics.as_dict() if metrics is not None else None,
        )

    def _arb_trace(self, tracer: Tracer | None, resource: str):
        """Per-hop grant observer for one arbitrated resource, or ``None``.

        Records the *wait* (request → grant) at each hop as an
        ``arb:<resource>@<node>`` span of the requesting device.  The
        sliced scheme can grant virtual (backdated) starts, so
        non-positive waits are skipped rather than recorded as negative
        spans.
        """
        if tracer is None:
            return None
        names = self.names

        def trace(
            device: int, node: str, asked: float, start: float, duration: float
        ) -> None:
            wait = start - asked
            if wait > 0.0:
                tracer.record(
                    names[device],
                    resource,
                    -1,
                    f"{ARB_PREFIX}{resource}@{node}",
                    asked,
                    wait,
                )

        return trace


def _port_stats(
    resource: CompiledTopology, client: int
) -> FabricPortStats:
    """Snapshot one device's counters from a compiled topology."""
    return FabricPortStats.from_client(resource.client_stats(client))
