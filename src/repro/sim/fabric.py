"""Shared-host fabric: several NIC datapaths contending on one host.

The paper's §7 speculates that the host side of PCIe — root-complex
ingress, the IOMMU page walker, the DDIO slice of the LLC — becomes a
contended and potentially *unfair* bottleneck once several devices share
it.  Every earlier layer of this reproduction models a single device on
its own host; this module supplies the missing multi-device substrate:

* **One shared host**: every device binds to one
  :class:`~repro.sim.nichost.SharedHost` (the builder a solo run binds
  through as its only device), so the devices keep private buffer regions
  but genuinely contend on one cache residency, one IOTLB and one memory
  system, warmed over their *aggregate* working set.

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

import math
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
from ..core.nic import NicModel, model_by_name
from ..errors import ValidationError, record_reader
from ..obs.metrics import MetricsRegistry, metric_segment
from ..obs.trace import ARB_PREFIX, STAGE_WALKER, Tracer
from ..units import KIB, MIB
from ..workloads import Workload
from ..workloads.rss import check_rss_table
from .engine import (
    ARBITER_SCHEMES,
    WEIGHTED_SCHEMES,
    DEFAULT_QUANTUM_NS,
    MODES,
    EngineProfile,
    EventLoop,
)
from .nichost import NicHostConfig, SharedHost
from .nicsim import (
    NicSimConfig,
    NicSimResult,
    _Device,
    _install_metrics_sampler,
)
from .profiles import get_profile
from .rng import DEFAULT_SEED
from .topology import CompiledTopology, FabricTopology, compile_topology


@dataclass(frozen=True)
class FabricConfig:
    """The host and arbitration settings every device shares.

    The weights, the quantum, the partition shares and the control window
    must be finite and positive; anything else raises
    :class:`~repro.errors.ValidationError`.

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
            if any(not 0 < weight < math.inf for weight in weights):
                raise ValidationError(
                    f"arbitration weights must be finite and positive, got {weights}"
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
            if not 0 < quantum < math.inf:
                raise ValidationError(
                    f"quantum_ns must be finite and positive, got {quantum}"
                )
            object.__setattr__(self, "quantum_ns", quantum)
        elif self.quantum_ns is not None:
            raise ValidationError(
                "quantum_ns only applies to the sliced arbiter, not "
                f"{self.arbiter!r}"
            )
        if self.ddio_partition is not None:
            shares = tuple(float(share) for share in self.ddio_partition)
            if any(not 0 < share < math.inf for share in shares):
                raise ValidationError(
                    f"ddio_partition shares must be finite and positive, "
                    f"got {shares}"
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
            if not 0 < window < math.inf:
                raise ValidationError(
                    f"control_window_ns must be finite and positive, got {window}"
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

    def sim_config(self, fabric: FabricConfig) -> NicSimConfig:
        """The datapath configuration this device runs with.

        Its host half binds the device's buffer layout to the fabric's
        shared host.
        """
        return NicSimConfig(
            ring_depth=self.ring_depth,
            rx_backpressure=self.rx_backpressure,
            host=NicHostConfig(
                system=fabric.system,
                iommu_enabled=fabric.iommu_enabled,
                iommu_page_size=fabric.iommu_page_size,
                payload_window=self.payload_window,
                payload_cache_state=self.payload_cache_state,
                payload_placement=self.payload_placement,
            ),
            num_queues=self.num_queues,
            dma_tags=self.dma_tags,
            retain_samples=self.retain_samples,
            rss_table=self.rss_table,
        )


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
    @record_reader
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
    @record_reader
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
        # Built once here, so a malformed device knob fails at
        # construction rather than inside run().
        self._sim_configs = tuple(
            device.sim_config(self.fabric) for device in self.devices
        )
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
        failed solve), and the profile records that fallback and its
        reason.
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
            [config.host for config in self._sim_configs],
            [config.ring_depth for config in self._sim_configs],
            seed=resolved_seed,
            cache_model=fabric.cache_model,
            ddio_partition=fabric.ddio_partition,
        )
        count = len(self.devices)
        multi = count > 1
        weights = fabric.weights or (1.0,) * count
        if multi:
            ingress_arb = compile_topology(
                "fabric.root_complex.ingress",
                fabric.topology,
                self.names,
                loop,
                scheme=fabric.arbiter,
                weights=weights,
                quantum_ns=fabric.quantum_ns,
                trace=self._arb_trace(tracer, "ingress"),
            )
            walker_arb = compile_topology(
                "fabric.iommu.walker",
                fabric.topology,
                self.names,
                loop,
                scheme=fabric.arbiter,
                weights=weights,
                quantum_ns=fabric.quantum_ns,
                trace=self._arb_trace(tracer, "walker"),
            )
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
                self._sim_configs[index],
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
            # With a controller running, the registry samples from the
            # control tick, on the control plane's observation windows.
            _install_metrics_sampler(
                metrics,
                loop,
                nics,
                window_ns=DEFAULT_CONTROL_WINDOW_NS,
                runtime=runtime,
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
            # The batch solver's own reason for a host-coupled device.
            fallback_reason=(
                "host coupling is an interaction point"
                if mode == "batch"
                else None
            ),
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
