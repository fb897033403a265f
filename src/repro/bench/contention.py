"""Multi-device contention runs as a first-class benchmark.

:class:`ContentionParams` plays the role :class:`~repro.bench.nicsim.NicSimParams`
plays for single-device datapath simulations: a frozen, validated,
serialisable description of one shared-host run — N per-device workload
specifications plus the fabric they contend on (host profile, shared IOMMU
settings, arbitration scheme and weights) — that the
:class:`~repro.bench.runner.BenchmarkRunner` can execute alongside the
classic micro-benchmarks and the ``NICSIM`` kind.

Per-device specifications are plain :class:`NicSimParams` with their host
half left empty (``system=None``): the fabric owns the host, so a device
spec only describes its traffic, datapath knobs and buffer working set.
``solo_device_params`` turns one device spec back into a standalone
host-coupled ``NICSIM`` run on a host of its own with the fabric's
settings — the baseline the victim/aggressor slowdown analysis divides
by.  A solo run builds that host as a one-device
:class:`~repro.sim.nichost.SharedHost`, the builder a fabric uses, so
it is bit-identical to a one-device contention run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ValidationError, record_reader
from ..sim.engine import MODES
from ..sim.fabric import (
    ContentionResult,
    FabricConfig,
    FabricDevice,
    FabricSimulator,
)
from ..sim.iommu import SUPPORTED_PAGE_SIZES
from ..sim.rng import check_seed
from ..sim.topology import FabricTopology
from ..units import KIB, MIB, format_size
from .nicsim import NicSimParams

#: The ``kind`` tag used in labels and serialised records.
CONTENTION_KIND = "CONTENTION"


def noisy_neighbour_pair(
    *,
    victim_packets: int = 600,
    aggressor_packets: int = 5000,
) -> tuple[NicSimParams, NicSimParams]:
    """The canonical (victim, aggressor) device pair of the §7 study.

    One definition shared by the CLI default, the suite scenarios and the
    ``figure-10-contention`` experiment, so the "stock pair" the docs
    describe cannot drift: a latency-sensitive DPDK victim (512 B fixed
    at 5 Gb/s, 64-deep rings, a 256 KiB warm window, 12 DMA tags — the
    bounded pool is what turns host stalls into lost throughput) against
    a bulk kernel-driver IMIX aggressor whose 64 MiB window blows through
    the IOTLB reach.  The aggressor needs roughly 8x the victim's packet
    count to stay saturating for the victim's whole measured window.
    """
    victim = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        offered_load_gbps=5.0,
        packets=victim_packets,
        ring_depth=64,
        payload_window=256 * KIB,
        dma_tags=12,
    )
    aggressor = NicSimParams(
        model="kernel",
        workload="imix",
        packets=aggressor_packets,
        payload_window=64 * MIB,
    )
    return victim, aggressor


def four_device_mix(
    *,
    victim_packets: int = 600,
    aggressor_packets: int = 5000,
) -> tuple[NicSimParams, NicSimParams, NicSimParams, NicSimParams]:
    """A four-device shared-host mix: the fabric beyond the canonical pair.

    The :func:`noisy_neighbour_pair` victim and bulk aggressor joined by
    two mid-rate neighbours — a second (smaller-window) IMIX bulk device
    and a steady 1024 B streamer — so suite scenarios and invariant grids
    exercise N > 2 devices: four upstream queues per arbiter, four
    address regions in the shared IOTLB, four-way cache pressure.
    """
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=victim_packets, aggressor_packets=aggressor_packets
    )
    bulk2 = NicSimParams(
        model="kernel",
        workload="imix",
        packets=max(1, aggressor_packets // 2),
        payload_window=16 * MIB,
    )
    streamer = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=1024,
        offered_load_gbps=10.0,
        packets=victim_packets,
        payload_window=1 * MIB,
    )
    return victim, aggressor, bulk2, streamer


#: Device labels of :func:`four_device_mix`, in order.
FOUR_DEVICE_NAMES = ("victim", "aggressor", "bulk2", "streamer")


@dataclass(frozen=True)
class ContentionParams:
    """Complete description of one shared-host contention run.

    Attributes:
        devices: one :class:`NicSimParams` per device, host half empty
            (``system=None``; the fabric supplies the shared host).  Each
            device's ``payload_window`` / ``payload_cache_state`` sizes its
            working set on the shared host, and its ``seed`` (when set)
            overrides the run seed for that device's workload draws.
        names: optional per-device labels (``("victim", "aggressor")``);
            defaults to ``dev0..devN-1``.
        system: Table 1 profile of the shared host.
        iommu_enabled / iommu_page_size: shared IOMMU settings.
        arbiter: arbitration scheme applied at every fabric node
            (``fcfs``, ``rr``, ``wrr``, ``age``, ``sliced``).
        weights: per-device service weights for the weighted schemes
            (``wrr``/``age``/``sliced``).
        topology: fabric tree as a compact spec string, e.g.
            ``"victim=root,aggressor=sw0,sw0=root"`` (devices → N-port
            switches → root port); ``None`` is the flat topology with
            every device directly on the root port.
        quantum_ns: preemptible service quantum of the ``sliced``
            arbiter (``None`` uses the engine default).
        ddio_partition: per-device DDIO/LLC capacity shares; ``None``
            keeps the shared aggregate residency.
        cache_model: ``"statistical"`` (default) or ``"faithful"`` — the
            line-accurate set-associative cache, warmed over each
            device's real address regions (per-owner DDIO *way* budgets
            when combined with ``ddio_partition``; O(window) to warm).
        controller: closed-loop control policy retuning the run's QoS
            knobs mid-run (``static`` — no control plane, the default —
            ``threshold`` or ``aimd``; see :mod:`repro.control`).
        control_window_ns: the controller's observation window in
            simulated nanoseconds (``None`` uses the control-plane
            default; only valid with a non-static controller).
        mode: engine selection (``"exact"`` or ``"batch"``, see
            :meth:`~repro.sim.fabric.FabricSimulator.run`).  Fabric runs
            always couple the host, so ``"batch"`` runs the exact scalar
            engine.
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
        object.__setattr__(self, "devices", tuple(self.devices))
        if not self.devices:
            raise ValidationError("a contention run needs at least one device")
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if self.seed is not None:
            check_seed(self.seed)
        for index, device in enumerate(self.devices):
            if not isinstance(device, NicSimParams):
                raise ValidationError(
                    f"device {index} must be NicSimParams, got {type(device)}"
                )
            if device.system is not None:
                raise ValidationError(
                    f"device {index} sets system={device.system!r}; the "
                    "fabric owns the host — leave the device's host half "
                    "empty (system=None)"
                )
        if self.iommu_page_size not in SUPPORTED_PAGE_SIZES:
            raise ValidationError(
                f"iommu_page_size must be one of {SUPPORTED_PAGE_SIZES}, "
                f"got {self.iommu_page_size}"
            )
        if self.names is not None:
            names = tuple(str(name) for name in self.names)
            if len(names) != len(self.devices):
                raise ValidationError(
                    f"need one name per device ({len(self.devices)}), "
                    f"got {len(names)}"
                )
            if len(set(names)) != len(names):
                raise ValidationError(f"device names must be unique: {names}")
            object.__setattr__(self, "names", names)
        # Delegate the fabric-half validation (profile, arbiter scheme,
        # weight/quantum scheme compatibility and positivity, topology
        # grammar, partition-share positivity, cache model) to the
        # FabricConfig these parameters will construct at run time — one
        # source of truth — and keep only the device-count-dependent
        # rules here, which FabricConfig cannot know.
        fabric = self._fabric_config()
        object.__setattr__(self, "system", fabric.system)
        if fabric.weights is not None:
            if len(fabric.weights) != len(self.devices):
                raise ValidationError(
                    f"need one weight per device ({len(self.devices)}), "
                    f"got {len(fabric.weights)}"
                )
            object.__setattr__(self, "weights", fabric.weights)
        if self.quantum_ns is not None:
            object.__setattr__(self, "quantum_ns", float(self.quantum_ns))
        if fabric.topology is not None:
            # The leaves must be exactly this run's devices; pin the
            # canonical spec spelling.
            fabric.topology.validate_devices(self.device_names())
            object.__setattr__(self, "topology", fabric.topology.spec())
        if fabric.ddio_partition is not None:
            if len(fabric.ddio_partition) != len(self.devices):
                raise ValidationError(
                    f"need one ddio_partition share per device "
                    f"({len(self.devices)}), got {len(fabric.ddio_partition)}"
                )
            object.__setattr__(self, "ddio_partition", fabric.ddio_partition)
        if fabric.control_window_ns is not None:
            object.__setattr__(
                self, "control_window_ns", fabric.control_window_ns
            )

    def _fabric_config(self) -> FabricConfig:
        """The runtime fabric these parameters describe (also validates)."""
        return FabricConfig(
            system=self.system,
            iommu_enabled=self.iommu_enabled,
            iommu_page_size=self.iommu_page_size,
            arbiter=self.arbiter,
            weights=self.weights,
            topology=self.topology,
            quantum_ns=self.quantum_ns,
            ddio_partition=self.ddio_partition,
            cache_model=self.cache_model,
            controller=self.controller,
            control_window_ns=self.control_window_ns,
        )

    @property
    def kind(self) -> str:
        """Benchmark kind tag (always ``"CONTENTION"``)."""
        return CONTENTION_KIND

    def device_names(self) -> tuple[str, ...]:
        """Resolved per-device labels."""
        if self.names is not None:
            return self.names
        return tuple(f"dev{index}" for index in range(len(self.devices)))

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
        devices = tuple(
            NicSimParams.from_dict(dict(device))  # type: ignore[arg-type]
            for device in data["devices"]  # type: ignore[union-attr]
        )
        names = data.get("names")
        weights = data.get("weights")
        topology = data.get("topology")
        quantum = data.get("quantum_ns")
        partition = data.get("ddio_partition")
        return cls(
            devices=devices,
            names=None if names is None else tuple(names),  # type: ignore[arg-type]
            system=str(data.get("system", "NFP6000-HSW")),
            iommu_enabled=bool(data.get("iommu_enabled", False)),
            iommu_page_size=int(data.get("iommu_page_size", 4 * KIB)),  # type: ignore[arg-type]
            arbiter=str(data.get("arbiter", "fcfs")),
            weights=None if weights is None else tuple(weights),  # type: ignore[arg-type]
            topology=None if topology is None else str(topology),
            quantum_ns=None if quantum is None else float(quantum),  # type: ignore[arg-type]
            ddio_partition=(
                None if partition is None else tuple(partition)  # type: ignore[arg-type]
            ),
            cache_model=str(data.get("cache_model", "statistical")),
            controller=str(data.get("controller", "static")),
            control_window_ns=(
                None
                if data.get("control_window_ns") is None
                else float(data["control_window_ns"])  # type: ignore[arg-type]
            ),
            mode=str(data.get("mode", "exact")),
            engine_profile=bool(data.get("engine_profile", False)),
            seed=data.get("seed"),  # type: ignore[arg-type]
        )


def solo_device_params(params: ContentionParams, index: int) -> NicSimParams:
    """One device's standalone baseline: the same datapath with no neighbours.

    The returned ``NICSIM`` parameters couple the device to a one-device
    shared host with the fabric's profile and IOMMU settings — what the
    device would measure if it did not share.  Dividing a contended
    device's metrics by this run's yields its *slowdown*.

    Seed semantics: a plain ``NICSIM`` run has one seed for both workload
    and host, so the baseline uses the device's seed override when one is
    set (else the run seed).  A *one-device* contention run resolves its
    host seed the same way (see :func:`run_contention_benchmark`), so the
    bit-identical degenerate contract holds with or without an override;
    in a *multi-device* fabric a device's seed override decorrelates only
    that device's workload/RSS draws — the shared host always uses the
    run seed, and baselines for such devices compare workload-identical
    but host-stream-shifted runs.
    """
    if not 0 <= index < len(params.devices):
        raise ValidationError(
            f"device index must be within [0, {len(params.devices)}), "
            f"got {index}"
        )
    device = params.devices[index]
    return device.with_(
        system=params.system,
        iommu_enabled=params.iommu_enabled,
        iommu_page_size=params.iommu_page_size,
        seed=device.seed if device.seed is not None else params.seed,
    )


def _fabric_device(device: NicSimParams, name: str) -> FabricDevice:
    """Translate one device spec into the simulator's device description."""
    return FabricDevice(
        workload=device.build_workload(),
        model=device.model,
        packets=device.packets,
        name=name,
        ring_depth=device.ring_depth,
        rx_backpressure=device.rx_backpressure,
        num_queues=device.num_queues,
        dma_tags=device.dma_tags,
        payload_window=device.payload_window,
        payload_cache_state=device.payload_cache_state,
        payload_placement=device.payload_placement,
        seed=device.seed,
        retain_samples=device.retain_samples,
        rss_table=device.rss_table,
    )


def run_contention_benchmark(
    params: ContentionParams,
    *,
    profile_sink: list | None = None,
    tracer=None,
    metrics=None,
) -> ContentionResult:
    """Run one shared-host contention benchmark as described by ``params``.

    A one-device run whose device overrides the seed resolves the run
    seed to that override: a plain ``NICSIM`` run seeds host and workload
    together, so this is what keeps the degenerate case bit-identical to
    :func:`solo_device_params` even under per-device seeding.

    ``profile_sink`` (a caller-owned list) collects the run's
    :class:`~repro.sim.engine.EngineProfile` when provided — the hook
    behind the ``pcie-bench contend --profile`` flag.  When profiling is
    requested (via the sink or ``params.engine_profile``), the profile is
    also attached to the returned result so it serialises with it.

    ``tracer`` / ``metrics`` opt the run into the observability layer
    (:mod:`repro.obs`): a span :class:`~repro.obs.Tracer` threaded
    through every device's datapath and the fabric arbitration hops, and
    a :class:`~repro.obs.MetricsRegistry` sampled per control window and
    attached to the result as ``result.metrics``.
    """
    seed = params.seed
    if len(params.devices) == 1 and params.devices[0].seed is not None:
        seed = params.devices[0].seed
    fabric = params._fabric_config()
    devices = [
        _fabric_device(device, name)
        for device, name in zip(params.devices, params.device_names())
    ]
    simulator = FabricSimulator(devices, fabric)
    result = simulator.run(
        seed=seed, tracer=tracer, metrics=metrics, mode=params.mode
    )
    if simulator.last_profile is not None:
        if profile_sink is not None:
            profile_sink.append(simulator.last_profile)
        if params.engine_profile or profile_sink is not None:
            result = replace(result, profile=simulator.last_profile)
    return result
