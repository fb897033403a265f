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

* **Per-device DDIO way partitioning** (``ContentionParams.ddio_partition``):
  instead of one aggregate cache residency that lets a bulk neighbour
  dilute everyone's hit probability, each device can own a slice of the
  LLC/DDIO capacity (routed by its address region), so its payload window
  *and its descriptor rings* keep their solo hit rates no matter what the
  neighbours do.  In the shared (unpartitioned) regime, multi-device runs
  model the aggregate payload pressure squeezing the descriptor rings out
  of the LLC — the eviction effect partitioning removes.

* :class:`FabricSimulator` runs the devices of one
  :class:`ContentionParams` record — each with its own links, rings,
  queues, tag pool, workload and RNG streams — inside **one**
  discrete-event loop, so their DMAs interleave on the shared host in
  true time order.  Device *i* is built from
  :meth:`ContentionParams.solo_params`, the record of its solo run.

Degenerate-case contract: both simulators build every device with one
builder (:class:`~repro.sim.nicsim._Device`: links, tag pool, queues,
arrival feed, result), and only what surrounds the devices differs.  A
fabric with a *single* device gives it no arbitration port, so the device
serialises on plain ``SerialResource`` ingress/walker resources with the
historical RNG stream names — the code path of a
:class:`~repro.sim.nicsim.NicDatapathSimulator` run — and reproduces its
solo record's run (``params.solo_params(0)``), and a traced run's spans,
bit for bit.  The arbitration layer only engages with two or more
devices, where there is something to arbitrate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from time import perf_counter
from typing import Sequence

from ..control import (
    CONTROL_POLICIES,
    DEFAULT_CONTROL_WINDOW_NS,
    MIN_CONTROL_WINDOW_NS,
    ControlAction,
    ControlRuntime,
    build_controller,
)
from ..errors import ValidationError, check_field_types, record_reader
from ..obs.metrics import MetricsRegistry, metric_segment
from ..obs.trace import ARB_PREFIX, STAGE_WALKER, Tracer
from ..units import KIB, format_size
from ..workloads import Workload
from .engine import (
    ARBITER_SCHEMES,
    WEIGHTED_SCHEMES,
    DEFAULT_QUANTUM_NS,
    MODES,
    EngineProfile,
    EventLoop,
)
from .cache import ddio_way_count
from .iommu import SUPPORTED_PAGE_SIZES
from .nichost import SharedHost
from .nicsim import (
    NicSimParams,
    NicSimResult,
    _Device,
    _install_metrics_sampler,
)
from .profiles import get_profile
from .rng import DEFAULT_SEED, check_seed
from .topology import CompiledTopology, FabricTopology, compile_topology

#: The ``kind`` tag used in labels and serialised records.
CONTENTION_KIND = "CONTENTION"

#: Device fields the fabric owns — the shared host's profile and IOMMU
#: page size, and the engine — with the default a device must leave them at.
_FABRIC_OWNED = {
    f.name: f.default
    for f in fields(NicSimParams)
    if f.name in ("system", "iommu_page_size", "mode")
}


def _positive(name: str, value: float) -> float:
    """``value`` as a float, if it is finite and positive."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return float(value)


def _per_device(name: str, values: object, count: int) -> tuple[float, ...]:
    """``values`` as one finite positive float per device."""
    if not isinstance(values, (list, tuple)) or len(values) != count:
        raise ValidationError(
            f"{name} needs one value per device ({count}), got {values!r}"
        )
    if not all(
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0 < value < math.inf
        for value in values
    ):
        raise ValidationError(
            f"{name} must be finite and positive, got {values!r}"
        )
    return tuple(float(value) for value in values)


@dataclass(frozen=True)
class ContentionParams:
    """Complete description of one shared-host contention run.

    The one input of :class:`FabricSimulator`: N per-device workload
    specifications plus the fabric they contend on (host profile, shared
    IOMMU settings, arbitration scheme and weights).  Every field must
    hold its annotated type, and every rule below is checked at
    construction; a violation raises
    :class:`~repro.errors.ValidationError`.

    Attributes:
        devices: one :class:`~repro.sim.nicsim.NicSimParams` per device.
            The fabric owns the host and the engine, so a device leaves
            ``system``, ``iommu_page_size`` and ``mode`` at their defaults.
            Each device's ``payload_window`` / ``payload_cache_state``
            sizes its working set on the shared host, and its ``seed``
            (when set) overrides the run seed for that device's workload
            draws.
        names: optional per-device labels (``("victim", "aggressor")``);
            defaults to ``dev0..devN-1``.
        system: Table 1 profile of the shared host (root complex, cache,
            IOMMU, NUMA and noise calibrations).
        iommu_enabled / iommu_page_size: shared IOMMU settings (all DMAs
            of all devices translate through one IOTLB and one walker).
        arbiter: arbitration scheme applied at every fabric node
            (``fcfs``, ``rr``, ``wrr``, ``age``, ``sliced``; see
            :class:`~repro.sim.engine.ArbitratedResource`).
        weights: per-device service weights, finite and positive, for the
            weighted schemes (``wrr``/``age``/``sliced``; equal weights
            when unset); rejected by the unweighted ones.  Switch ports
            compete at their parent with their subtree's summed weight.
        topology: fabric tree as a compact spec string, e.g.
            ``"victim=root,aggressor=sw0,sw0=root"`` (devices → N-port
            switches → root port; see
            :class:`~repro.sim.topology.FabricTopology`).  Its leaves are
            the devices' names.  ``None`` is the flat topology with every
            device directly on the root port.
        quantum_ns: preemptible service quantum of the ``sliced`` arbiter
            (``None`` uses :data:`~repro.sim.engine.DEFAULT_QUANTUM_NS`);
            rejected by the other schemes.
        ddio_partition: per-device DDIO/LLC capacity shares, finite and
            positive; ``None`` keeps one shared residency over the
            aggregate working set.  With shares, a bulk neighbour can no
            longer evict a victim's payload window or descriptor rings.
            Devices whose ``payload_cache_state`` differ need shares or
            the faithful cache, since one statistical residency has one
            preparation state.
        cache_model: ``"statistical"`` (default, the occupancy-probability
            model) or ``"faithful"`` — the line-accurate
            :class:`~repro.sim.cache.SetAssociativeCache`, warmed over
            each device's real address regions (per-owner DDIO *way*
            budgets when combined with ``ddio_partition``, so at most as
            many partitioned devices as the profile has DDIO ways; O(window
            lines) to warm, so best with windows of a few MiB or less).
        controller: closed-loop control policy retuning the run's QoS
            knobs mid-run (``static`` — no control plane, the default —
            ``threshold`` or ``aimd``; see :mod:`repro.control`).
        control_window_ns: the controller's observation window in
            simulated nanoseconds, at least
            :data:`~repro.control.runtime.MIN_CONTROL_WINDOW_NS` (``None``
            uses :data:`~repro.control.runtime.DEFAULT_CONTROL_WINDOW_NS`;
            rejected with the ``static`` controller, which never ticks).
        mode: engine selection (``"exact"`` or ``"batch"``).  Fabric runs
            couple every datapath to the shared host, the interaction the
            vectorised batch solver falls back on, so ``"batch"`` runs the
            exact scalar engine and the profile records that fallback and
            its reason.
        engine_profile: attach the run's
            :class:`~repro.sim.engine.EngineProfile` to the result
            (``result.profile``).  A parameter rather than only a runner
            kwarg so profiling survives the process-pool dispatch, which
            pickles parameters and results but no sinks.
        seed: run seed (``None`` uses the library default).
    """

    devices: tuple[NicSimParams, ...]
    names: tuple[str, ...] | None = None
    system: str = "NFP6000-HSW"
    iommu_enabled: bool = False
    iommu_page_size: int = 4 * KIB
    arbiter: str = "fcfs"
    weights: tuple[float, ...] | None = None
    topology: str | None = None
    quantum_ns: float | None = None
    ddio_partition: tuple[float, ...] | None = None
    cache_model: str = "statistical"
    controller: str = "static"
    control_window_ns: float | None = None
    mode: str = "exact"
    engine_profile: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if not isinstance(self.devices, (list, tuple)) or not self.devices:
            raise ValidationError(
                f"a contention run needs at least one device, got {self.devices!r}"
            )
        object.__setattr__(self, "devices", tuple(self.devices))
        count = len(self.devices)
        for index, device in enumerate(self.devices):
            if not isinstance(device, NicSimParams):
                raise ValidationError(
                    f"device {index} must be NicSimParams, got {type(device)}"
                )
            for name, default in _FABRIC_OWNED.items():
                if getattr(device, name) != default:
                    raise ValidationError(
                        f"device {index} sets {name}={getattr(device, name)!r}, "
                        f"which the fabric owns: set ContentionParams.{name} "
                        f"and leave the device's at {default!r}"
                    )
        if self.names is not None:
            names = self.names
            if not isinstance(names, (list, tuple)) or not all(
                isinstance(name, str) for name in names
            ):
                raise ValidationError(
                    f"names must be a sequence of strings, got {names!r}"
                )
            if len(names) != count:
                raise ValidationError(
                    f"need one name per device ({count}), got {len(names)}"
                )
            if len(set(names)) != len(names):
                raise ValidationError(f"device names must be unique: {names}")
            object.__setattr__(self, "names", tuple(names))
        # Keep the canonical profile spelling for labels and records.
        profile = get_profile(self.system)
        object.__setattr__(self, "system", profile.name)
        if self.iommu_page_size not in SUPPORTED_PAGE_SIZES:
            raise ValidationError(
                f"iommu_page_size must be one of {SUPPORTED_PAGE_SIZES}, "
                f"got {self.iommu_page_size}"
            )
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
            object.__setattr__(
                self, "weights", _per_device("weights", self.weights, count)
            )
        if self.topology is not None:
            # The leaves must be exactly this run's devices; pin the
            # canonical spec spelling.
            topology = FabricTopology.parse(self.topology)
            topology.validate_devices(self.device_names())
            object.__setattr__(self, "topology", topology.spec())
        if self.quantum_ns is not None:
            if self.arbiter != "sliced":
                raise ValidationError(
                    "quantum_ns only applies to the sliced arbiter, not "
                    f"{self.arbiter!r}"
                )
            object.__setattr__(
                self, "quantum_ns", _positive("quantum_ns", self.quantum_ns)
            )
        if self.ddio_partition is not None:
            object.__setattr__(
                self,
                "ddio_partition",
                _per_device("ddio_partition", self.ddio_partition, count),
            )
        if self.cache_model not in ("statistical", "faithful"):
            raise ValidationError(
                "cache_model must be 'statistical' or 'faithful', got "
                f"{self.cache_model!r}"
            )
        partitioned = self.ddio_partition is not None and count > 1
        states = sorted({device.payload_cache_state for device in self.devices})
        if len(states) > 1 and not partitioned and self.cache_model == "statistical":
            # Only the statistical shared regime folds every device into
            # one aggregate residency; the faithful model warms each
            # device's real address region and partitions are per-device
            # by construction.
            raise ValidationError(
                "devices sharing one aggregate cache residency must share "
                f"one payload cache preparation state, got {states}; "
                "per-device states need ddio_partition or the faithful "
                "cache model"
            )
        if partitioned and self.cache_model == "faithful":
            # The faithful cache splits its DDIO ways between the devices,
            # and each device needs a way of its own.
            ways = ddio_way_count(profile.ddio_fraction)
            if count > ways:
                raise ValidationError(
                    f"cannot partition {ways} DDIO ways of the {self.system} "
                    f"faithful cache between {count} devices (each needs at "
                    "least one way)"
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
            window = _positive("control_window_ns", self.control_window_ns)
            if window < MIN_CONTROL_WINDOW_NS:
                raise ValidationError(
                    f"control_window_ns must be at least "
                    f"{MIN_CONTROL_WINDOW_NS:g} ns, got {window:g}: a "
                    "shorter window holds too few packets for a policy to act"
                )
            object.__setattr__(self, "control_window_ns", window)
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if self.seed is not None:
            check_seed(self.seed)

    @property
    def kind(self) -> str:
        """Benchmark kind tag (always ``"CONTENTION"``)."""
        return CONTENTION_KIND

    def device_names(self) -> tuple[str, ...]:
        """Resolved per-device labels."""
        if self.names is not None:
            return self.names
        return tuple(f"dev{index}" for index in range(len(self.devices)))

    def solo_params(self, index: int) -> NicSimParams:
        """Device ``index``'s own record: its datapath on a host of its own.

        The returned ``NICSIM`` parameters couple the device to a
        one-device shared host with the fabric's profile and IOMMU
        settings — what the device would measure if it did not share.
        :class:`FabricSimulator` builds the device from this record, and
        dividing a contended device's metrics by this record's solo run
        yields its *slowdown*.

        Seed semantics: a plain ``NICSIM`` run has one seed for both
        workload and host, so the record takes the device's seed override
        when one is set (else the run seed).  A *one-device* contention
        run seeds its host the same way, so the bit-identical degenerate
        contract holds with or without an override; in a *multi-device*
        fabric a device's seed override decorrelates only that device's
        workload/RSS draws — the shared host always uses the run seed,
        and baselines for such devices compare workload-identical but
        host-stream-shifted runs.
        """
        if not 0 <= index < len(self.devices):
            raise ValidationError(
                f"device index must be within [0, {len(self.devices)}), "
                f"got {index}"
            )
        device = self.devices[index]
        return device.with_(
            system=self.system,
            iommu_enabled=self.iommu_enabled,
            iommu_page_size=self.iommu_page_size,
            seed=device.seed if device.seed is not None else self.seed,
        )

    def with_(self, **changes: object) -> "ContentionParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def label(self) -> str:
        """Compact human-readable description used in logs and reports."""
        parts = [
            CONTENTION_KIND,
            f"{len(self.devices)}x",
            f"host={self.system}",
            f"arbiter={self.arbiter}",
        ]
        if self.weights is not None:
            parts.append(
                "weights=" + ":".join(f"{weight:g}" for weight in self.weights)
            )
        if self.topology is not None:
            depth = FabricTopology.parse(self.topology).depth()
            parts.append(f"topology=depth{depth}")
        if self.quantum_ns is not None:
            parts.append(f"quantum={self.quantum_ns:g}ns")
        if self.ddio_partition is not None:
            parts.append(
                "ddio="
                + ":".join(f"{share:g}" for share in self.ddio_partition)
            )
        if self.cache_model != "statistical":
            parts.append(f"cache={self.cache_model}")
        if self.controller != "static":
            parts.append(f"controller={self.controller}")
            if self.control_window_ns is not None:
                parts.append(f"window={self.control_window_ns:g}ns")
        if self.mode != "exact":
            parts.append(f"mode={self.mode}")
        if self.iommu_enabled:
            parts.append(f"iommu({format_size(self.iommu_page_size)} pages)")
        for name, device in zip(self.device_names(), self.devices):
            load = (
                "saturating"
                if device.offered_load_gbps is None
                else f"{device.offered_load_gbps:g}Gb/s"
            )
            parts.append(f"[{name}: {device.workload} {load}]")
        return " ".join(parts)

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation of the parameters.

        The topology/quantum/partition keys are emitted only when they
        differ from the flat-fabric defaults, so records written before
        those knobs existed round-trip unchanged.
        """
        record: dict[str, object] = {
            "kind": CONTENTION_KIND,
            "system": self.system,
            "iommu_enabled": self.iommu_enabled,
            "iommu_page_size": self.iommu_page_size,
            "arbiter": self.arbiter,
            "weights": None if self.weights is None else list(self.weights),
            "seed": self.seed,
            "devices": [device.as_dict() for device in self.devices],
        }
        if self.names is not None:
            record["names"] = list(self.names)
        if self.topology is not None:
            record["topology"] = self.topology
        if self.quantum_ns is not None:
            record["quantum_ns"] = self.quantum_ns
        if self.ddio_partition is not None:
            record["ddio_partition"] = list(self.ddio_partition)
        if self.cache_model != "statistical":
            record["cache_model"] = self.cache_model
        if self.controller != "static":
            record["controller"] = self.controller
            if self.control_window_ns is not None:
                record["control_window_ns"] = self.control_window_ns
        if self.mode != "exact":
            record["mode"] = self.mode
        if self.engine_profile:
            record["engine_profile"] = True
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "ContentionParams":
        """Rebuild parameters from :meth:`as_dict` output."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs = {key: value for key, value in data.items() if key in known}
        kwargs["devices"] = tuple(
            NicSimParams.from_dict(device)  # type: ignore[arg-type]
            for device in data["devices"]  # type: ignore[union-attr]
        )
        return cls(**kwargs)  # type: ignore[arg-type]


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
    """Runs the devices of one :class:`ContentionParams` on one shared host.

    Device *i* is built from its solo record ``params.solo_params(i)``:
    its datapath and host knobs, its workload, packets and seed.  ``workloads``,
    one prepared :class:`~repro.workloads.Workload` per device, replaces
    the traffic the records name, for mixes no record can (a single hot
    flow among mice); the run is otherwise the record's.
    """

    def __init__(
        self,
        params: ContentionParams,
        workloads: Sequence[Workload] | None = None,
    ) -> None:
        self.params = params
        self.names = params.device_names()
        self.devices = tuple(
            params.solo_params(index) for index in range(len(params.devices))
        )
        if workloads is None:
            workloads = [device.build_workload() for device in self.devices]
        elif len(workloads) != len(self.devices):
            raise ValidationError(
                f"need one workload per device ({len(self.devices)}), "
                f"got {len(workloads)}"
            )
        self.workloads = tuple(workloads)
        self._topology = (
            None
            if params.topology is None
            else FabricTopology.parse(params.topology)
        )
        #: Wall-clock phase timing of the most recent :meth:`run`.
        self.last_profile: EngineProfile | None = None

    def run(
        self,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> ContentionResult:
        """Simulate every device's workload against the shared host.

        ``tracer`` opts the run into span tracing (per-packet lifecycle
        stages per device, walker service, per-hop arbitration waits);
        ``metrics`` attaches a window-sampled registry snapshot to the
        result.  Both default to off; neither changes what is simulated.
        """
        params = self.params
        count = len(self.devices)
        multi = count > 1
        # One device seeds its host as its own record's solo run would.
        seed = params.seed if multi else self.devices[0].seed
        resolved_seed = DEFAULT_SEED if seed is None else seed
        quantum = params.quantum_ns
        if quantum is None and params.arbiter == "sliced":
            quantum = DEFAULT_QUANTUM_NS
        wall_start = perf_counter()
        loop = EventLoop()
        shared = SharedHost(
            self.devices,
            seed=resolved_seed,
            cache_model=params.cache_model,
            ddio_partition=params.ddio_partition,
        )
        weights = params.weights or (1.0,) * count
        if multi:
            ingress_arb = compile_topology(
                "fabric.root_complex.ingress",
                self._topology,
                self.names,
                loop,
                scheme=params.arbiter,
                weights=weights,
                quantum_ns=quantum,
                trace=self._arb_trace(tracer, "ingress"),
            )
            walker_arb = compile_topology(
                "fabric.iommu.walker",
                self._topology,
                self.names,
                loop,
                scheme=params.arbiter,
                weights=weights,
                quantum_ns=quantum,
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
        if params.controller != "static":
            runtime = ControlRuntime(
                build_controller(params.controller),
                (
                    params.control_window_ns
                    if params.control_window_ns is not None
                    else DEFAULT_CONTROL_WINDOW_NS
                ),
                loop,
            )

        nics = [
            _Device(
                name,
                "fabric",
                device,
                loop,
                self.workloads[index],
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
                if params.arbiter in WEIGHTED_SCHEMES:
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
            if shared.partitioned and params.cache_model == "statistical":
                runtime.bind_ddio(params.ddio_partition, shared.repartition)
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
                f"({params.arbiter}, {params.system})"
            ),
            build_s=events_start - wall_start,
            events_s=stats_start - events_start,
            stats_s=perf_counter() - stats_start,
            events=loop.processed,
            mode="exact",
            # The batch solver's own reason for a host-coupled device.
            fallback_reason=(
                "host coupling is an interaction point"
                if params.mode == "batch"
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
        topology = self._topology
        # A single device bypasses arbitration entirely (the degenerate
        # path), so none of the topology/quantum/partition knobs applied:
        # suppress them rather than label a solo run a fabric scenario.
        return ContentionResult(
            system=params.system,
            arbiter=params.arbiter,
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
            quantum_ns=quantum if multi else None,
            ddio_partition=params.ddio_partition if multi else None,
            controller=params.controller,
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
