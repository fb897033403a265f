"""NIC datapath simulation as a first-class benchmark.

:class:`NicSimParams` plays the role :class:`~repro.bench.params.BenchmarkParams`
plays for the pcie-bench micro-benchmarks: a frozen, validated, serialisable
description of one run — NIC/driver model, traffic workload, offered load,
ring depth, and (optionally) the host the datapath is coupled to — that the
:class:`~repro.bench.runner.BenchmarkRunner` can execute alongside the
classic ``LAT_*``/``BW_*`` kinds and that sweeps can derive variants from
with :meth:`NicSimParams.with_`.

The host-coupling fields mirror the classic benchmark parameters: ``system``
picks a Table 1 profile (``None`` keeps the link-only datapath), and
``iommu_enabled`` / ``iommu_page_size`` / ``payload_window`` /
``payload_cache_state`` / ``payload_placement`` configure the
:class:`~repro.sim.nichost.NicHostConfig` the simulator builds from them.

:func:`run_nicsim_benchmark` is the one way to run a solo NIC datapath from
parameters; :func:`cross_validate` runs a record's fixed-size saturating
variants against the analytic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..core.nic import model_by_name
from ..errors import ValidationError, record_reader
from ..sim.engine import MODES
from ..sim.nichost import NicHostConfig
from ..sim.nicsim import NicDatapathSimulator, NicSimConfig, NicSimResult
from ..sim.rng import check_seed
from ..units import KIB, MIB, format_size
from ..workloads import (
    Workload,
    build_flow_model,
    build_workload,
    canonical_flow_name,
    workload_names,
)

#: The ``kind`` tag used in labels and serialised records, mirroring the
#: ``BenchmarkKind`` values of the classic micro-benchmarks.
NICSIM_KIND = "NICSIM"


@dataclass(frozen=True)
class NicSimParams:
    """Complete description of one NIC datapath simulation run.

    Attributes:
        model: NIC/driver model name (``"simple"``, ``"kernel"``,
            ``"dpdk"`` or a full Figure 1 model name).
        workload: named traffic workload (see :mod:`repro.workloads`).
        packet_size: frame size for the fixed-size workload families.
        offered_load_gbps: offered load per direction; ``None`` saturates.
        packets: packets simulated per direction.
        ring_depth: descriptor ring depth per direction.
        duplex: full-duplex (TX and RX) or TX-only traffic.
        rx_backpressure: stall instead of dropping when the RX ring fills.
        system: Table 1 host profile to couple the datapath to; ``None``
            runs the link-only datapath (flat host latency).
        iommu_enabled: translate DMA addresses (needs ``system``).
        iommu_page_size: IOVA page size (4 KiB, 2 MiB or 1 GiB).
        payload_window: payload-buffer working set the workload cycles
            through (drives cache and IOTLB pressure).
        payload_cache_state: cache preparation of the payload window.
        payload_placement: ``"local"`` or ``"remote"`` NUMA placement of
            the payload buffers (``"remote"`` needs ``system``).
        num_queues: TX/RX ring pairs per device (RSS steering when > 1).
        dma_tags: bounded in-flight DMA tag pool size; ``None`` keeps the
            historical unbounded issue.
        rss: flow scenario steering a multi-queue run (``"uniform"``,
            ``"zipf"``/``"skewed"``, ``"hot"``); ignored when
            ``num_queues == 1``.
        rss_table: optional RSS indirection table; entry ``b`` names the
            queue for hash bucket ``b`` (``queue = table[hash % len]``).
            ``None`` (the default) uses the identity table, which sends
            every flow to queue ``hash % num_queues``.  Requires
            ``num_queues > 1``.
        seed: workload RNG seed (``None`` uses the library default).
        retain_samples: keep per-packet latency arrays (the default).
            ``False`` streams latencies through an O(1)-memory quantile
            sketch instead — the mode fleet-scale runs use.
        mode: engine selection — ``"exact"`` (default, the scalar event
            loop every golden rests on) or ``"batch"`` (vectorised solver
            with automatic scalar fallback).
    """

    model: str = "Simple NIC"
    workload: str = "fixed"
    packet_size: int = 1024
    offered_load_gbps: float | None = None
    packets: int = 4000
    ring_depth: int = 512
    duplex: bool = True
    rx_backpressure: bool = False
    system: str | None = None
    iommu_enabled: bool = False
    iommu_page_size: int = 4 * KIB
    payload_window: int = 4 * MIB
    payload_cache_state: str = "host_warm"
    payload_placement: str = "local"
    num_queues: int = 1
    dma_tags: int | None = None
    rss: str = "uniform"
    rss_table: tuple[int, ...] | None = None
    seed: int | None = None
    retain_samples: bool = True
    mode: str = "exact"

    def __post_init__(self) -> None:
        # Normalise aliases ("dpdk") to the canonical model name and fail
        # fast on unknown models/workloads, as BenchmarkParams does.
        object.__setattr__(self, "model", model_by_name(self.model).name)
        key = self.workload.strip().lower()
        if key not in workload_names():
            raise ValidationError(
                f"unknown workload {self.workload!r}; known workloads: "
                + ", ".join(workload_names())
            )
        object.__setattr__(self, "workload", key)
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if self.packet_size <= 0:
            raise ValidationError(
                f"packet_size must be positive, got {self.packet_size}"
            )
        load = self.offered_load_gbps
        if load is not None and not 0 < load < math.inf:
            raise ValidationError(
                f"offered_load_gbps must be finite and positive, got {load}"
            )
        if self.packets <= 0:
            raise ValidationError(f"packets must be positive, got {self.packets}")
        if self.seed is not None:
            check_seed(self.seed)
        # Canonicalise the RSS scenario name ("skewed" -> "zipf") so labels
        # and serialised params are stable whichever alias was written.
        object.__setattr__(self, "rss", canonical_flow_name(self.rss))
        # The datapath and host knobs are validated by building the configs
        # the simulator runs with, one source of truth.  Params without a
        # host check their host knobs against the default profile, so a bad
        # value fails where it is written, not at a later with_(system=...).
        object.__setattr__(self, "rss_table", self.sim_config().rss_table)
        if self.system is None and self.iommu_enabled:
            raise ValidationError(
                "iommu_enabled requires a host system (set system=...)"
            )
        if self.system is None and self.payload_placement != "local":
            raise ValidationError(
                "remote payload placement requires a host system (set system=...)"
            )
        host = self._host_config(self.system or NicHostConfig.system)
        object.__setattr__(self, "payload_cache_state", host.payload_cache_state)
        if self.system is not None:
            # Keep the canonical profile spelling for labels and records.
            object.__setattr__(self, "system", host.system)

    @property
    def kind(self) -> str:
        """Benchmark kind tag (always ``"NICSIM"``)."""
        return NICSIM_KIND

    def host_config(self) -> NicHostConfig | None:
        """The host coupling these parameters describe (``None`` when decoupled)."""
        if self.system is None:
            return None
        return self._host_config(self.system)

    def _host_config(self, system: str) -> NicHostConfig:
        return NicHostConfig(
            system=system,
            iommu_enabled=self.iommu_enabled,
            iommu_page_size=self.iommu_page_size,
            payload_window=self.payload_window,
            payload_cache_state=self.payload_cache_state,
            payload_placement=self.payload_placement,
        )

    def sim_config(self) -> NicSimConfig:
        """The datapath configuration the run's simulator is built with."""
        return NicSimConfig(
            ring_depth=self.ring_depth,
            rx_backpressure=self.rx_backpressure,
            host=self.host_config(),
            num_queues=self.num_queues,
            dma_tags=self.dma_tags,
            retain_samples=self.retain_samples,
            rss_table=self.rss_table,
        )

    def build_workload(self) -> Workload:
        """The traffic the run replays.

        A multi-queue run steers packets by flow, so a workload without a
        flow model gets the ``rss`` scenario's.
        """
        workload = build_workload(
            self.workload,
            size=self.packet_size,
            load_gbps=self.offered_load_gbps,
            duplex=self.duplex,
        )
        if self.num_queues > 1 and workload.flows is None:
            workload = workload.with_(flows=build_flow_model(self.rss))
        return workload

    def with_(self, **changes: object) -> "NicSimParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def label(self) -> str:
        """Compact human-readable description used in logs and reports."""
        parts = [NICSIM_KIND, self.model, self.workload]
        if self.workload in ("fixed", "poisson", "bursty"):
            parts.append(f"{self.packet_size}B")
        parts.append(
            "saturating"
            if self.offered_load_gbps is None
            else f"{self.offered_load_gbps:g}Gb/s"
        )
        parts.append(f"ring={self.ring_depth}")
        if self.num_queues > 1:
            parts.append(f"queues={self.num_queues}")
            parts.append(f"rss={self.rss}")
            if self.rss_table is not None:
                parts.append(f"rss-table[{len(self.rss_table)}]")
        if self.dma_tags is not None:
            parts.append(f"tags={self.dma_tags}")
        if not self.retain_samples:
            parts.append("streaming")
        if self.mode != "exact":
            parts.append(f"mode={self.mode}")
        if not self.duplex:
            parts.append("tx-only")
        if self.system is not None:
            parts.append(f"host={self.system}")
            parts.append(f"window={format_size(self.payload_window)}")
            parts.append(self.payload_cache_state)
            if self.iommu_enabled:
                parts.append(
                    f"iommu({format_size(self.iommu_page_size)} pages)"
                )
            if self.payload_placement != "local":
                parts.append(self.payload_placement)
        return " ".join(parts)

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation of the parameters.

        The multi-queue/tag keys are emitted only when they differ from the
        single-queue, unbounded defaults, so records written before those
        knobs existed (the PR 2 golden file) round-trip unchanged.
        """
        record: dict[str, object] = {
            "kind": NICSIM_KIND,
            "model": self.model,
            "workload": self.workload,
            "packet_size": self.packet_size,
            "offered_load_gbps": self.offered_load_gbps,
            "packets": self.packets,
            "ring_depth": self.ring_depth,
            "duplex": self.duplex,
            "rx_backpressure": self.rx_backpressure,
            "system": self.system,
            "iommu_enabled": self.iommu_enabled,
            "iommu_page_size": self.iommu_page_size,
            "payload_window": self.payload_window,
            "payload_cache_state": self.payload_cache_state,
            "payload_placement": self.payload_placement,
            "seed": self.seed,
        }
        if self.num_queues != 1:
            record["num_queues"] = self.num_queues
        if self.rss != "uniform":
            record["rss"] = self.rss
        if self.rss_table is not None:
            record["rss_table"] = list(self.rss_table)
        if self.dma_tags is not None:
            record["dma_tags"] = self.dma_tags
        if not self.retain_samples:
            record["retain_samples"] = False
        if self.mode != "exact":
            record["mode"] = self.mode
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "NicSimParams":
        """Rebuild parameters from :meth:`as_dict` output."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)  # type: ignore[arg-type]


def run_nicsim_benchmark(
    params: NicSimParams,
    *,
    profile_sink: list | None = None,
    tracer=None,
    metrics=None,
    device: str = "nic",
) -> NicSimResult:
    """Run one NIC datapath simulation as described by ``params``.

    ``profile_sink`` (a caller-owned list) collects the run's
    :class:`~repro.sim.engine.EngineProfile` when provided — the hook the
    ``pcie-bench nicsim --profile`` flag uses; the profile also attaches
    to the returned result (``result.profile``) so it serialises.

    ``tracer`` / ``metrics`` opt the run into the observability layer
    (:mod:`repro.obs`) — span traces of every packet lifecycle stage and
    a window-sampled metrics registry attached as ``result.metrics``.
    ``device`` names the run in spans and metric names.
    """
    simulator = NicDatapathSimulator(params.model, params.sim_config())
    result = simulator.run(
        params.build_workload(),
        params.packets,
        seed=params.seed,
        tracer=tracer,
        metrics=metrics,
        device=device,
        mode=params.mode,
    )
    if profile_sink is not None:
        profile_sink.append(simulator.last_profile)
        result = replace(result, profile=simulator.last_profile)
    return result


@dataclass(frozen=True)
class CrossValidationPoint:
    """Analytic vs simulated throughput for one (model, packet size) pair."""

    model: str
    packet_size: int
    analytic_gbps: float
    simulated_gbps: float

    @property
    def relative_error(self) -> float:
        """``|simulated - analytic| / analytic``."""
        return abs(self.simulated_gbps - self.analytic_gbps) / self.analytic_gbps

    def within(self, tolerance: float = 0.1) -> bool:
        """Whether the simulation agrees with the model to ``tolerance``."""
        return self.relative_error <= tolerance


def cross_validate(
    params: NicSimParams, sizes: tuple[int, ...] = (64, 512, 1500)
) -> list[CrossValidationPoint]:
    """Compare steady-state simulated throughput with the analytic curve.

    Runs each size as the fixed-size, saturating, full-duplex variant of
    ``params`` — the exact setting the closed-form model describes — and
    pairs the measured per-direction payload throughput with
    :meth:`~repro.core.nic.NicModel.throughput_gbps`.  RX backpressure is
    enabled so both directions stay in the 1:1 lossless mix the model
    assumes (with tail-drop, dropped RX packets would free upstream
    bandwidth and let TX exceed the model's bound).  Agreement here is
    what licenses trusting the simulator where the model cannot go (bursty
    arrivals, mixed sizes, shallow rings).  Every other field of
    ``params`` (model, packets, ring depth, seed, host, tag pool, ...)
    applies as written.

    A host-coupled ``params`` runs the comparison with the datapath
    coupled to a host model; with a *neutral* host configuration (IOMMU
    off, warm cache, local buffers) the agreement must survive the
    coupling — the regression contract the host-coupling refactor is held
    to.  A ``dma_tags`` bound participates in the same contract only while
    the pool is deep enough not to bind; a deliberately small pool
    *should* break the agreement (that is the Figure 8 experiment).
    """
    model = model_by_name(params.model)
    points = []
    for size in sizes:
        result = run_nicsim_benchmark(
            params.with_(
                workload="fixed",
                packet_size=size,
                offered_load_gbps=None,
                duplex=True,
                rx_backpressure=True,
            )
        )
        points.append(
            CrossValidationPoint(
                model=model.name,
                packet_size=size,
                analytic_gbps=model.throughput_gbps(size),
                simulated_gbps=result.throughput_gbps,
            )
        )
    return points
