"""Packet-level NIC datapath simulation (the dynamic counterpart of Figure 1).

The analytic models in :mod:`repro.core.nic` turn a packet size into
*average* PCIe bytes per packet; every doorbell, descriptor fetch and
interrupt is amortised into a per-packet fraction.  This module replays the
same declarative :class:`~repro.core.nic.NicModel` transaction sequences as
*individual* PCIe transactions: TX and RX descriptor rings of finite depth,
doorbell MMIO writes, batched descriptor fetch/write-back DMAs, per-packet
payload DMAs, interrupts and pointer reads, each occupying the two link
directions (modelled as :class:`~repro.sim.engine.SerialResource`) for its
real serialisation time.

Unlike the cursor-based pipeline in :mod:`repro.sim.dma` — whose
transactions are homogeneous enough to be generated in issue order — the
NIC datapath mixes transactions with very different causal delays
(a doorbell is ready instantly, a read completion only after the host
round trip), so transactions here are scheduled through a small
discrete-event loop and claim link time only at the moment they are
actually ready.  That keeps link service FIFO in *time* order, which is
what lets unrelated transactions fill the gaps a latency-bound chain would
otherwise leave.

Batched (amortised) transactions are issued as real instances: fetch-side
transactions fire at the head of each batch (the NIC prefetches a batch of
descriptors), completion-report transactions fire when the batch fills
(write-backs and moderated interrupts trail their packets), and a packet
is *complete* when its driver learns about it — the interrupt for
interrupt-driven models, the descriptor write-back for polling drivers.

Under smooth fixed-size load the simulation converges on the closed-form
:meth:`~repro.core.nic.NicModel.throughput_gbps` (the cross-validation
harness :func:`repro.bench.nicsim.cross_validate` checks that); under
bursty or mixed-size traffic it additionally exposes what the averages
hide — ring occupancy, head-of-line waits, drops, and the latency cost of
interrupt moderation — which is the new scientific output of the
subsystem.

When the run's record names a host ``system``, the flat per-DMA host
latency is replaced by the full host model: every descriptor fetch,
payload DMA and write-back becomes a
:class:`~repro.sim.root_complex.HostAccess` against that Table 1 profile,
adding cache hit/DRAM-miss latency, DDIO write-backs, IOTLB walks
serialised on a shared page-walker resource, per-TLP root-complex ingress
occupancy and remote-NUMA penalties on top of link serialisation.
Data flow: ``workloads → nicsim (rings, event loop, links) → nichost
(buffers, address streams) → root_complex (cache/IOMMU/NUMA/memory/
noise)``.  Without a host the PR 1 link-only behaviour is preserved bit
for bit.

Two device-side resource limits complete the picture:

* **Bounded DMA tags** (``NicSimParams.dma_tags``): real NICs hold a
  finite pool of outstanding-DMA contexts, so host latency does not just
  stretch the tail — once every tag is waiting out a host round trip, the
  device cannot issue new work and *throughput* collapses (the Figure 8
  bandwidth dip).  Every descriptor fetch, payload DMA and write-back
  acquires a tag from one device-wide :class:`~repro.sim.engine.TagPool`
  before touching a link; reads hold it until the completion lands,
  writes until the root complex has drained them (the flow-control
  credit loop).  ``dma_tags=None`` keeps the historical unbounded issue.
* **Multiple queues** (``NicSimParams.num_queues``): N TX/RX ring pairs
  per device, each an independent descriptor ring with its own batching
  state, sharing the two link directions, the host coupling and the tag
  pool.  Packets are steered by hashing their workload-assigned flow
  label (:mod:`repro.workloads.rss`), so skewed flow mixes reproduce the
  queue imbalance real RSS suffers.  ``num_queues=1`` is the degenerate
  case and remains bit-identical to the single-queue datapath.

A run is described by one :class:`NicSimParams` record, defined here and
run by ``NicDatapathSimulator(params).run()``; each device of a
contention run is one too.  Every rule a run depends on is checked when
the record is built, so a record that constructs, runs.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, partial
from time import perf_counter
from typing import Callable

import numpy as np

from ..control import ControlRuntime, RssSteering, identity_table
from ..core.config import PAPER_DEFAULT_CONFIG
from ..core.nic import NicModel, model_by_name
from ..core.transactions import OpKind
from ..errors import (
    SimulationError,
    ValidationError,
    check_field_types,
    record_reader,
)
from ..obs.metrics import (
    DEFAULT_METRICS_WINDOW_NS,
    MetricsRegistry,
    metric_segment,
)
from ..obs.trace import (
    ARB_PREFIX,
    OP_PREFIX,
    STAGE_COMPLETION,
    STAGE_DROP,
    STAGE_ISSUE,
    STAGE_PAYLOAD,
    STAGE_RING,
    STAGE_WALKER,
    Tracer,
)
from ..stats import QuantileSketch
from ..units import KIB, MIB, bytes_over_time_to_gbps, format_size, ns_to_s
from ..workloads import (
    PacketSchedule,
    Workload,
    build_flow_model,
    build_workload,
    canonical_flow_name,
    rss_buckets,
    workload_names,
)
from ..workloads.rss import check_rss_table
from .engine import MODES, EngineProfile, EventLoop, SerialResource, TagPool
from .cache import CacheState
from .iommu import SUPPORTED_PAGE_SIZES
from .nichost import PAYLOAD_UNIT_BYTES, HostCoupling, HostSideStats, SharedHost
from .profiles import get_profile
from .rng import DEFAULT_SEED, SimRng, check_seed
from .root_complex import HostAccess

#: Packet size used to classify a model's transaction sequence (any valid
#: frame size works; it only needs to dominate descriptor-sized DMAs).
_REFERENCE_PACKET = 1024

#: Host-side latency from a DMA read request arriving at the root complex
#: to the first completion data, in a run not coupled to a host model.
HOST_READ_LATENCY_NS = 400.0
#: Device-register read turnaround for driver pointer reads, in a run not
#: coupled to a host model.
MMIO_READ_LATENCY_NS = 300.0
#: Leading fraction of delivered packets excluded from throughput and
#: latency statistics (pipeline fill).
WARMUP_FRACTION = 0.25


#: The ``kind`` tag used in labels and serialised records, mirroring the
#: ``BenchmarkKind`` values of the classic micro-benchmarks.
NICSIM_KIND = "NICSIM"


@dataclass(frozen=True)
class NicSimParams:
    """Complete description of one NIC datapath simulation run.

    The record of a solo run (:func:`~repro.bench.nicsim.run_nicsim_benchmark`)
    and of each device of a contention run
    (:class:`~repro.sim.fabric.ContentionParams`).  Every field must hold
    its annotated type; a wrong type or value raises
    :class:`~repro.errors.ValidationError`.

    Attributes:
        model: NIC/driver model name (``"simple"``, ``"kernel"``,
            ``"dpdk"`` or a full Figure 1 model name).
        workload: named traffic workload (see :mod:`repro.workloads`).
        packet_size: frame size for the fixed-size workload families.
        offered_load_gbps: offered load per direction; ``None`` saturates.
        packets: packets simulated per direction; at least the
            workload's arrival process needs (two bursts for ``bursty``
            and ``bursty-imix``).
        ring_depth: descriptor ring depth per direction; at least the
            model's completion-report batch (16 for the kernel driver, 8
            for DPDK), since entries free only when a report fires.
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
        check_field_types(self)
        # Normalise aliases ("dpdk") to the canonical model name and fail
        # fast on unknown models/workloads, as BenchmarkParams does.
        model = model_by_name(self.model)
        object.__setattr__(self, "model", model.name)
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
        if self.ring_depth <= 0:
            raise ValidationError(
                f"ring_depth must be positive, got {self.ring_depth}"
            )
        for direction in ("tx", "rx"):
            # Entries free only when a completion report fires, and the
            # report fires only after its batch of payloads completes: a
            # shallower ring could never fill a batch and deadlocks.
            report = _report_batch(model, direction)
            if report is not None and self.ring_depth < report.per_packets:
                raise ValidationError(
                    f"ring_depth {self.ring_depth} is shallower than the "
                    f"{model.name} completion-report batch ({report.label!r} "
                    f"every {report.per_packets:g} packets); the datapath "
                    "could never report a batch"
                )
        if not 1 <= self.num_queues <= 256:
            raise ValidationError(
                f"num_queues must be within [1, 256], got {self.num_queues}"
            )
        if self.dma_tags is not None and self.dma_tags <= 0:
            raise ValidationError(
                f"dma_tags must be positive (or None for unbounded), "
                f"got {self.dma_tags}"
            )
        object.__setattr__(
            self, "rss_table", check_rss_table(self.rss_table, self.num_queues)
        )
        if self.system is None and self.iommu_enabled:
            raise ValidationError(
                "iommu_enabled requires a host system (set system=...)"
            )
        if self.system is None and self.payload_placement != "local":
            raise ValidationError(
                "remote payload placement requires a host system (set system=...)"
            )
        # The host knobs are checked with or without a host, so a bad value
        # fails where it is written, not at a later with_(system=...).
        profile = None if self.system is None else get_profile(self.system)
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
        if profile is not None:
            # Keep the canonical profile spelling for labels and records.
            object.__setattr__(self, "system", profile.name)
            if self.payload_placement == "remote" and profile.sockets < 2:
                raise ValidationError(
                    f"{profile.name} has a single socket; remote payload "
                    "placement needs a two-socket profile"
                )
        # The arrival process shapes each direction's gaps when the run
        # generates its schedule; ask it, without generating one, how many
        # packets it needs.
        arrivals = build_workload(
            self.workload,
            size=self.packet_size,
            load_gbps=self.offered_load_gbps,
            duplex=self.duplex,
        ).arrivals
        if self.packets < arrivals.min_packets:
            raise ValidationError(
                f"the {self.workload!r} workload's {arrivals.name} arrivals "
                f"need at least {arrivals.min_packets} packets per direction, "
                f"got {self.packets}"
            )

    @property
    def kind(self) -> str:
        """Benchmark kind tag (always ``"NICSIM"``)."""
        return NICSIM_KIND

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


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingStats:
    """Occupancy and drop accounting for one descriptor ring."""

    depth: int
    posts: int
    drops: int
    max_occupancy: int
    mean_occupancy: float

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "depth": self.depth,
            "posts": self.posts,
            "drops": self.drops,
            "max_occupancy": self.max_occupancy,
            "mean_occupancy": self.mean_occupancy,
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "RingStats":
        """Rebuild ring statistics from :meth:`as_dict` output."""
        return cls(
            depth=int(data["depth"]),
            posts=int(data["posts"]),
            drops=int(data["drops"]),
            max_occupancy=int(data["max_occupancy"]),
            mean_occupancy=float(data["mean_occupancy"]),
        )


@dataclass(frozen=True)
class DmaTagStats:
    """Accounting of the bounded in-flight DMA tag pool over one run.

    ``waited`` grants out of ``acquires`` found the pool exhausted and
    queued; their cumulative queueing time is ``wait_ns_total``.  A pool
    whose ``max_in_flight`` never reaches ``capacity`` was effectively
    unbounded for that run.
    """

    capacity: int
    acquires: int
    max_in_flight: int
    waited: int
    wait_ns_total: float

    @property
    def wait_ns_mean(self) -> float:
        """Mean queueing time per delayed grant (0 when nothing waited)."""
        return self.wait_ns_total / self.waited if self.waited else 0.0

    @classmethod
    def from_pool(cls, pool: TagPool) -> "DmaTagStats":
        """Snapshot a :class:`~repro.sim.engine.TagPool` after a run."""
        return cls(
            capacity=pool.capacity,
            acquires=pool.acquires,
            max_in_flight=pool.max_in_flight,
            waited=pool.waited,
            wait_ns_total=pool.wait_ns_total,
        )

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "capacity": self.capacity,
            "acquires": self.acquires,
            "max_in_flight": self.max_in_flight,
            "waited": self.waited,
            "wait_ns_total": self.wait_ns_total,
            "wait_ns_mean": self.wait_ns_mean,
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "DmaTagStats":
        """Rebuild tag-pool statistics from :meth:`as_dict` output."""
        return cls(
            capacity=int(data["capacity"]),
            acquires=int(data["acquires"]),
            max_in_flight=int(data["max_in_flight"]),
            waited=int(data["waited"]),
            wait_ns_total=float(data["wait_ns_total"]),
        )


@dataclass(frozen=True)
class LatencySummary:
    """Per-packet latency percentiles in nanoseconds.

    Built either from raw samples (:meth:`from_samples`, exact numpy
    percentiles) or from a streaming :class:`~repro.stats.QuantileSketch`
    (:meth:`from_sketch`, percentiles within the sketch's documented
    relative-error bound; the sketch itself rides along on ``sketch`` so
    downstream consumers — the fleet reduce step — can keep merging).
    A summary with ``count == 0`` is the explicit empty representation
    (a fleet host whose device saw no traffic in a window): every
    statistic is zero and no consumer needs to special-case an exception.
    """

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    p999: float
    minimum: float
    maximum: float
    sketch: QuantileSketch | None = None

    @classmethod
    def empty(cls) -> "LatencySummary":
        """The summary of zero samples (all statistics zero)."""
        return cls(
            count=0,
            mean=0.0,
            median=0.0,
            p90=0.0,
            p99=0.0,
            p999=0.0,
            minimum=0.0,
            maximum=0.0,
        )

    @classmethod
    def from_samples(cls, samples_ns: np.ndarray) -> "LatencySummary":
        """Compute the summary from raw samples (empty input → :meth:`empty`)."""
        samples = np.asarray(samples_ns, dtype=np.float64)
        if samples.size == 0:
            return cls.empty()
        return cls(
            count=int(samples.size),
            mean=float(np.mean(samples)),
            median=float(np.median(samples)),
            p90=float(np.percentile(samples, 90)),
            p99=float(np.percentile(samples, 99)),
            p999=float(np.percentile(samples, 99.9)),
            minimum=float(np.min(samples)),
            maximum=float(np.max(samples)),
        )

    @classmethod
    def from_sketch(cls, sketch: QuantileSketch) -> "LatencySummary":
        """Summarise a quantile sketch (the O(1)-memory streaming path).

        Count, mean, min and max are exact; the percentiles carry the
        sketch's relative-error bound (0.5% at the default accuracy).
        The sketch is attached so shard summaries stay mergeable.
        """
        if sketch.count == 0:
            return cls.empty()
        return cls(
            count=sketch.count,
            mean=sketch.mean,
            median=sketch.quantile(0.5),
            p90=sketch.quantile(0.90),
            p99=sketch.quantile(0.99),
            p999=sketch.quantile(0.999),
            minimum=sketch.minimum,
            maximum=sketch.maximum,
            sketch=sketch,
        )

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        record: dict[str, object] = {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p99": self.p99,
            "p99.9": self.p999,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self.sketch is not None:
            record["sketch"] = self.sketch.as_dict()
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "LatencySummary":
        """Rebuild a latency summary from :meth:`as_dict` output."""
        sketch = data.get("sketch")
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            median=float(data["median"]),
            p90=float(data["p90"]),
            p99=float(data["p99"]),
            p999=float(data["p99.9"]),
            minimum=float(data["min"]),
            maximum=float(data["max"]),
            sketch=QuantileSketch.from_dict(sketch) if sketch else None,
        )


@dataclass(frozen=True)
class PathResult:
    """Measured behaviour of one direction (TX or RX) of the datapath.

    ``offered_bytes`` / ``dropped_bytes`` and ``in_flight`` (packets still
    queued for a ring entry when the run ended) make the conservation laws
    checkable from the result alone: ``offered_packets = delivered_packets
    + drops + in_flight`` exactly, and ``payload_bytes + dropped_bytes <=
    offered_bytes`` (the remainder being the bytes of in-flight packets,
    whose sizes are not recorded individually).

    Multi-queue directions additionally carry ``queues``: one nested
    :class:`PathResult` per RX/TX queue (direction labelled ``"tx[0]"``,
    ``"tx[1]"``, ...), whose counters sum to the direction totals.  The
    direction-level ring statistics aggregate the per-queue rings: posts
    and drops sum, ``max_occupancy`` is the worst single queue and
    ``mean_occupancy`` the mean across queues, so every per-ring bound
    (``<= depth``) still holds for the aggregate.  Single-queue runs leave
    ``queues`` as ``None`` and serialise exactly as before.
    """

    direction: str
    offered_packets: int
    delivered_packets: int
    drops: int
    in_flight: int
    payload_bytes: int
    offered_bytes: int
    dropped_bytes: int
    throughput_gbps: float
    packet_rate_pps: float
    latency: LatencySummary | None
    ring: RingStats
    queues: tuple["PathResult", ...] | None = None

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        record: dict[str, object] = {
            "direction": self.direction,
            "offered_packets": self.offered_packets,
            "delivered_packets": self.delivered_packets,
            "drops": self.drops,
            "in_flight": self.in_flight,
            "payload_bytes": self.payload_bytes,
            "offered_bytes": self.offered_bytes,
            "dropped_bytes": self.dropped_bytes,
            "throughput_gbps": self.throughput_gbps,
            "packet_rate_pps": self.packet_rate_pps,
            "ring": self.ring.as_dict(),
        }
        if self.latency is not None:
            record["latency_ns"] = self.latency.as_dict()
        if self.queues is not None:
            record["queues"] = [queue.as_dict() for queue in self.queues]
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "PathResult":
        """Rebuild a path result from :meth:`as_dict` output."""
        latency = data.get("latency_ns")
        queues = data.get("queues")
        return cls(
            direction=str(data["direction"]),
            offered_packets=int(data["offered_packets"]),
            delivered_packets=int(data["delivered_packets"]),
            drops=int(data["drops"]),
            in_flight=int(data.get("in_flight", 0)),
            payload_bytes=int(data["payload_bytes"]),
            offered_bytes=int(data.get("offered_bytes", 0)),
            dropped_bytes=int(data.get("dropped_bytes", 0)),
            throughput_gbps=float(data["throughput_gbps"]),
            packet_rate_pps=float(data["packet_rate_pps"]),
            latency=LatencySummary.from_dict(latency) if latency else None,
            ring=RingStats.from_dict(data["ring"]),
            queues=(
                tuple(cls.from_dict(queue) for queue in queues)
                if queues is not None
                else None
            ),
        )


@dataclass(frozen=True)
class NicSimResult:
    """Everything one simulated workload run produced."""

    model: str
    workload: str
    packets: int
    duration_ns: float
    tx: PathResult
    rx: PathResult | None
    link_utilisation_up: float
    link_utilisation_down: float
    host: HostSideStats | None = None
    tags: DmaTagStats | None = None
    #: Engine phase timing, attached only when profiling was requested, and
    #: the serialised metrics-registry snapshot, attached only when a
    #: registry was supplied — both absent by default so historical records
    #: (and the seeded goldens) round-trip unchanged.
    profile: EngineProfile | None = None
    metrics: dict | None = None

    @property
    def throughput_gbps(self) -> float:
        """Mean per-direction payload throughput across the active paths."""
        paths = [path for path in (self.tx, self.rx) if path is not None]
        return sum(path.throughput_gbps for path in paths) / len(paths)

    @property
    def total_drops(self) -> int:
        """Drops across both rings."""
        drops = self.tx.drops
        if self.rx is not None:
            drops += self.rx.drops
        return drops

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation (used by the CLI and reports).

        The ``"kind"`` tag distinguishes these records from micro-benchmark
        results when both are persisted in one file.
        """
        record: dict[str, object] = {
            "kind": "NICSIM",
            "model": self.model,
            "workload": self.workload,
            "packets": self.packets,
            "duration_ns": self.duration_ns,
            "throughput_gbps": self.throughput_gbps,
            "link_utilisation_up": self.link_utilisation_up,
            "link_utilisation_down": self.link_utilisation_down,
            "tx": self.tx.as_dict(),
        }
        if self.rx is not None:
            record["rx"] = self.rx.as_dict()
        if self.host is not None:
            record["host"] = self.host.as_dict()
        if self.tags is not None:
            record["tags"] = self.tags.as_dict()
        if self.profile is not None:
            record["profile"] = self.profile.as_dict()
        if self.metrics is not None:
            record["metrics"] = self.metrics
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "NicSimResult":
        """Rebuild a result from :meth:`as_dict` output."""
        rx = data.get("rx")
        host = data.get("host")
        tags = data.get("tags")
        profile = data.get("profile")
        return cls(
            model=str(data["model"]),
            workload=str(data["workload"]),
            packets=int(data["packets"]),
            duration_ns=float(data["duration_ns"]),
            tx=PathResult.from_dict(data["tx"]),
            rx=PathResult.from_dict(rx) if rx else None,
            link_utilisation_up=float(data["link_utilisation_up"]),
            link_utilisation_down=float(data["link_utilisation_down"]),
            host=HostSideStats.from_dict(host) if host else None,
            tags=DmaTagStats.from_dict(tags) if tags else None,
            profile=EngineProfile.from_dict(profile) if profile else None,
            metrics=data.get("metrics"),
        )


# ---------------------------------------------------------------------------
# Event-loop machinery
# ---------------------------------------------------------------------------


class _Signal:
    """A one-shot completion other work can wait on (a batch's fetch DMA)."""

    __slots__ = ("time", "_waiters")

    def __init__(self) -> None:
        self.time: float | None = None
        self._waiters: list[Callable[[float], None]] = []

    def fire(self, now: float) -> None:
        self.time = now
        waiters, self._waiters = self._waiters, []
        for fn in waiters:
            fn(now)


@dataclass(frozen=True, slots=True)
class _CompiledOp:
    """One transaction of a sequence with its serialisation times resolved."""

    kind: OpKind
    per_packets: float
    size: int
    up_ns: float
    down_ns: float
    label: str
    #: Whether the transaction is a DMA (holds a tag when the pool is
    #: bounded) — precomputed so the issue path skips the kind test.
    dma: bool


def _compile_sequence(
    model: NicModel, direction: str, size: int
) -> list[_CompiledOp]:
    """One direction's transactions for a ``size``-byte packet, on the paper's link."""
    sequence = (
        model.tx_sequence(size) if direction == "tx" else model.rx_sequence(size)
    )
    link = PAPER_DEFAULT_CONFIG.link
    ops = []
    for transaction in sequence.transactions:
        wire = transaction.wire_bytes(PAPER_DEFAULT_CONFIG)
        ops.append(
            _CompiledOp(
                kind=transaction.kind,
                per_packets=transaction.per_packets,
                size=transaction.size,
                up_ns=link.serialisation_time_ns(wire.device_to_host),
                down_ns=link.serialisation_time_ns(wire.host_to_device),
                label=transaction.label,
                dma=transaction.kind in (OpKind.DMA_READ, OpKind.DMA_WRITE),
            )
        )
    return ops


def _find_payload(reference: list[_CompiledOp]) -> int:
    """Index of the payload DMA: the per-packet DMA whose wire time scales
    with the reference packet, i.e. the largest per-packet DMA."""
    payload = None
    payload_time = None
    for index, op in enumerate(reference):
        if op.per_packets != 1.0:
            continue
        if op.kind not in (OpKind.DMA_READ, OpKind.DMA_WRITE):
            continue
        time = max(op.up_ns, op.down_ns)
        if payload_time is None or time > payload_time:
            payload_time = time
            payload = index
    if payload is None:
        raise SimulationError(
            "transaction sequence has no per-packet payload DMA"
        )
    return payload


def _find_notify(reference: list[_CompiledOp], payload_idx: int) -> int | None:
    """Index of the completion report: the first trailing interrupt write,
    else the first trailing DMA write (``None`` when nothing reports)."""
    trailing = range(payload_idx + 1, len(reference))
    for index in trailing:
        op = reference[index]
        if op.kind is OpKind.DMA_WRITE and "interrupt" in op.label.lower():
            return index
    for index in trailing:
        if reference[index].kind is OpKind.DMA_WRITE:
            return index
    return None


# Records name one of the registered models, so the cache holds at most
# one entry per model and direction.
@cache
def _report_batch(model: NicModel, direction: str) -> _CompiledOp | None:
    """The transaction whose completion frees a direction's ring entries."""
    reference = _compile_sequence(model, direction, _REFERENCE_PACKET)
    notify = _find_notify(reference, _find_payload(reference))
    return None if notify is None else reference[notify]


class _Ring:
    """A descriptor ring: bounded entries, completion-batched reclamation.

    Entries are claimed when a packet posts and freed when the driver
    learns the packet finished — which, for batched write-backs and
    moderated interrupts, happens for several entries at once (the source
    of the occupancy plateaus the analytic model cannot show).  A full TX
    ring backpressures the sender; a full RX ring drops the packet, since
    the wire does not wait.  :meth:`_Datapath.on_arrival` claims entries
    inline, on the hottest call chain of the simulator; the ring frees
    them.
    """

    __slots__ = (
        "name",
        "depth",
        "_used",
        "_waiters",
        "posts",
        "drops",
        "max_occupancy",
        "_occupancy_integral",
        "_first_event",
        "_last_event",
    )

    def __init__(self, name: str, depth: int) -> None:
        self.name = name
        self.depth = depth
        self._used = 0
        self._waiters: deque[Callable[[float], None]] = deque()
        self.posts = 0
        self.drops = 0
        self.max_occupancy = 0
        # Time-weighted occupancy accounting: sampling only at events would
        # weight busy bursts and ignore idle periods entirely.
        self._occupancy_integral = 0.0
        self._first_event: float | None = None
        self._last_event = 0.0

    @property
    def occupancy(self) -> int:
        """Entries currently held."""
        return self._used

    @property
    def waiting(self) -> int:
        """Packets queued for an entry (TX backpressure queue)."""
        return len(self._waiters)

    def _advance(self, now: float) -> None:
        if self._first_event is None:
            self._first_event = now
            if now > self._last_event:
                self._last_event = now
        elif now > self._last_event:
            self._occupancy_integral += self._used * (now - self._last_event)
            self._last_event = now

    def release(self, now: float, count: int) -> None:
        """Free ``count`` entries, handing them straight to any waiters."""
        self._advance(now)
        for _ in range(count):
            if self._waiters:
                self.posts += 1
                self._waiters.popleft()(now)
            else:
                if self._used <= 0:
                    raise SimulationError(f"ring {self.name} released too often")
                self._used -= 1

    def stats(self) -> RingStats:
        """Snapshot of the ring accounting."""
        elapsed = (
            self._last_event - self._first_event
            if self._first_event is not None
            else 0.0
        )
        mean = self._occupancy_integral / elapsed if elapsed > 0 else 0.0
        return RingStats(
            depth=self.depth,
            posts=self.posts,
            drops=self.drops,
            max_occupancy=self.max_occupancy,
            mean_occupancy=mean,
        )


def _ignore(_now: float) -> None:
    """Completion sink for transactions nothing waits on."""


def _streaming_warmup_threshold(packets: int, *, ring_depth: int) -> int:
    """A-priori warmup cutoff for streaming (``retain_samples=False``) runs.

    Mirrors the retained-mode rule in :func:`_path_statistics`, with the
    *offered* packet count standing in for the delivered count — which a
    streaming run cannot know until it ends, and by then the early samples
    would already have polluted the sketch.
    """
    return max(
        int(packets * WARMUP_FRACTION),
        min(ring_depth, packets // 2),
    )


class _WarmupGate:
    """Shared per-direction warmup counter for streaming-mode statistics.

    All queues of one direction report their deliveries through one gate,
    so the first ``threshold`` packets of the *direction* (in completion-
    report order, the order ``_flush`` observes) are excluded — the
    streaming analogue of retained mode's sort-by-completion warmup cut.
    """

    __slots__ = ("threshold", "seen")

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.seen = 0

    def admit(self) -> bool:
        """True when the packet falls past the warmup cutoff (measure it)."""
        measured = self.seen >= self.threshold
        self.seen += 1
        return measured


class _StreamStats:
    """O(1)-memory measurement accumulator for one queue (streaming mode).

    Holds what :func:`_path_statistics` would have recomputed from the
    retained arrays: a latency sketch over the post-warmup samples plus
    the measurement window (first/last completion, byte and packet
    totals) that throughput and packet rate derive from.  ``merge`` folds
    queues into their direction aggregate.
    """

    __slots__ = ("sketch", "count", "payload_bytes", "first_done", "first_size", "last_done")

    def __init__(self) -> None:
        self.sketch = QuantileSketch()
        self.count = 0
        self.payload_bytes = 0
        self.first_done = float("inf")
        self.first_size = 0
        self.last_done = float("-inf")

    def record(self, latency_ns: float, done: float, size: int) -> None:
        self.sketch.add(latency_ns)
        self.count += 1
        self.payload_bytes += size
        if done < self.first_done:
            self.first_done = done
            self.first_size = size
        if done > self.last_done:
            self.last_done = done

    def merge(self, other: "_StreamStats") -> "_StreamStats":
        self.sketch.merge(other.sketch)
        self.count += other.count
        self.payload_bytes += other.payload_bytes
        if other.first_done < self.first_done:
            self.first_done = other.first_done
            self.first_size = other.first_size
        self.last_done = max(self.last_done, other.last_done)
        return self

    def statistics(self) -> tuple[float, float, LatencySummary | None]:
        """Throughput (Gb/s), packet rate (pps) and latency summary.

        Matches the retained-mode measurement rules: the first measured
        packet marks t0 (its own bytes precede the window) and fewer than
        two measured packets yield no statistics.
        """
        if self.count < 2:
            return 0.0, 0.0, None
        throughput = 0.0
        rate = 0.0
        elapsed = self.last_done - self.first_done
        if elapsed > 0.0:
            throughput = bytes_over_time_to_gbps(
                self.payload_bytes - self.first_size, elapsed
            )
            rate = (self.count - 1) / ns_to_s(elapsed)
        return throughput, rate, LatencySummary.from_sketch(self.sketch)


class _Datapath:
    """One queue of one direction (TX or RX) of the simulated NIC datapath.

    A single-queue device has exactly one of these per direction (the
    historical layout).  A multi-queue device has ``num_queues`` per
    direction, each with its own descriptor ring, batching credits and
    per-packet accounting, all sharing the two link directions, the host
    coupling and the device-wide DMA tag pool.
    """

    __slots__ = (
        "direction",
        "queue_index",
        "label",
        "_model",
        "_params",
        "_loop",
        "_link_up",
        "_link_down",
        "_coupling",
        "_ingress",
        "_walker",
        "_tags",
        "_host_port",
        "ring",
        "_compiled",
        "_payload_idx",
        "_notify_idx",
        "_credits",
        "_signals",
        "_pending",
        "_wait_on_full",
        "arrivals",
        "dones",
        "notifies",
        "delivered_sizes",
        "offered",
        "offered_bytes",
        "dropped_bytes",
        "delivered",
        "delivered_bytes",
        "max_notify",
        "stream",
        "_warmup_gate",
        "observer",
        "tracer",
        "device",
    )

    def __init__(
        self,
        direction: str,
        model: NicModel,
        params: NicSimParams,
        loop: EventLoop,
        link_up: SerialResource,
        link_down: SerialResource,
        coupling: HostCoupling | None = None,
        ingress: SerialResource | None = None,
        walker: SerialResource | None = None,
        tags: TagPool | None = None,
        queue_index: int = 0,
        host_port: "object | None" = None,
        warmup_gate: _WarmupGate | None = None,
        tracer: Tracer | None = None,
        device: str = "nic",
    ) -> None:
        self.direction = direction
        self.queue_index = queue_index
        #: Display label: plain direction for single-queue devices (so
        #: serialised results stay identical), ``"tx[i]"`` per queue.
        self.label = (
            direction if params.num_queues == 1 else f"{direction}[{queue_index}]"
        )
        self._model = model
        self._params = params
        self._loop = loop
        self._link_up = link_up
        self._link_down = link_down
        self._coupling = coupling
        self._ingress = ingress
        self._walker = walker
        self._tags = tags
        #: Optional arbitrated upstream port (multi-device fabric runs):
        #: an object with ``claim(now, access, coupling, then)`` that
        #: replaces the direct ingress/walker serialisation below.
        self._host_port = host_port
        self.ring = _Ring(f"{self.label}_ring", params.ring_depth)
        #: A full ring queues the packet (TX backpressure / RX with
        #: backpressure on) or drops it (default RX) — fixed per run.
        self._wait_on_full = direction == "tx" or params.rx_backpressure
        self._compiled: dict[int, list[_CompiledOp]] = {}

        reference = self._ops_for(_REFERENCE_PACKET)
        self._payload_idx = _find_payload(reference)
        self._notify_idx = _find_notify(reference, self._payload_idx)
        # Fetch-side (gating) transactions start with a full credit so the
        # first packet of every batch issues the instance (prefetch);
        # completion-report (trailing) transactions start empty so the
        # instance fires when the batch fills.
        self._credits = [
            op.per_packets if index < self._payload_idx else 0.0
            for index, op in enumerate(reference)
        ]
        self._signals: list[_Signal] = [_Signal() for _ in reference]
        for signal in self._signals:
            signal.fire(0.0)  # nothing to wait for until an instance issues
        #: Delivered packets awaiting their completion report: arrival,
        #: done, size and the traced packet id (``None`` untraced).
        self._pending: list[tuple[float, float, int, int | None]] = []

        #: Retained mode's per-packet columns, in delivery order.  Read
        #: only after the run: a numpy view of a column makes its
        #: ``append`` raise ``BufferError``.
        self.arrivals = array("d")
        self.dones = array("d")
        self.notifies = array("d")
        self.delivered_sizes = array("q")
        self.offered = 0
        self.offered_bytes = 0
        self.dropped_bytes = 0
        self.delivered = 0
        self.delivered_bytes = 0
        #: Latest completion-report time seen (the run duration source in
        #: both modes — streaming runs have no notify list to max over).
        self.max_notify = 0.0
        #: Streaming-mode accumulator; ``None`` in retained mode, where
        #: the per-packet lists above are kept instead.
        self.stream: _StreamStats | None = None
        #: Control-plane observation hook: ``observer(latency_ns)`` per
        #: delivered packet.  ``None`` (always, for controller-less runs)
        #: keeps ``_record`` on the exact historical code path.
        self.observer: Callable[[float], None] | None = None
        #: Span tracer (``None`` keeps every span site at a bare ``is None``
        #: check) and the device name its spans carry (fabric runs pass the
        #: contending device's name; single-device runs default to "nic").
        self.tracer = tracer
        self.device = device
        self._warmup_gate = warmup_gate
        if not params.retain_samples:
            self.stream = _StreamStats()
            if self._warmup_gate is None:
                # Direct construction without a shared gate: measure from
                # the first packet (the runners always pass a gate).
                self._warmup_gate = _WarmupGate(0)

    # -- sequence compilation ---------------------------------------------------

    def _ops_for(self, size: int) -> list[_CompiledOp]:
        ops = self._compiled.get(size)
        if ops is None:
            ops = _compile_sequence(self._model, self.direction, size)
            self._compiled[size] = ops
        return ops

    # -- transaction issue ------------------------------------------------------

    def _claim_host_resources(self, now: float, access) -> float:
        """Serialise a transaction through root-complex ingress and walker.

        Returns the time host processing can begin; the IOMMU page walker
        is a shared serial resource, so concurrent misses queue — the
        throughput collapse of §6.5.
        """
        ready = now
        tracer = self.tracer
        occupancy = access.ingress_occupancy_ns
        if occupancy > 0.0:
            start = self._ingress.occupy(ready, occupancy)
            if tracer is not None and start > ready:
                tracer.record(
                    self.device,
                    self.label,
                    -1,
                    ARB_PREFIX + "ingress",
                    ready,
                    start - ready,
                )
            ready = start + occupancy
        occupancy = access.walker_occupancy_ns
        if occupancy > 0.0:
            stall = self._walker.free_at - ready
            self._coupling.note_walker_stall(stall if stall > 0.0 else 0.0)
            start = self._walker.occupy(ready, occupancy)
            if tracer is not None:
                if start > ready:
                    tracer.record(
                        self.device,
                        self.label,
                        -1,
                        ARB_PREFIX + "walker",
                        ready,
                        start - ready,
                    )
                tracer.record(
                    self.device, self.label, -1, STAGE_WALKER, start, occupancy
                )
            ready = start + occupancy
        return ready

    def _visit_host(
        self, now: float, access, then: Callable[[float], None]
    ) -> None:
        """Route one transaction through the host-side resources.

        A device alone on its host (a nicsim run, or a one-device fabric)
        takes the direct, synchronous path above; devices contending in a
        fabric route through their arbitrated upstream port, where ingress
        and walker grants are scheduled among all devices sharing the host.
        ``then(ready)`` fires when host processing can begin.
        """
        if self._host_port is None:
            then(self._claim_host_resources(now, access))
        else:
            self._host_port.claim(now, access, self._coupling, then)

    def _issue(
        self,
        op: _CompiledOp,
        now: float,
        on_done: Callable[[float], None],
        *,
        payload: bool = False,
    ) -> None:
        """Issue one transaction instance, gated by the DMA tag pool.

        With a bounded pool, every DMA (descriptor fetch, payload,
        write-back) must hold a tag while outstanding; an exhausted pool
        delays the issue until the longest-held tag frees — the finite
        concurrency that turns host latency into a throughput cap.  MMIO
        transactions are device register traffic and bypass the pool.
        """
        tags = self._tags
        if tags is None or not op.dma:
            _Transfer(self, op, on_done, payload, False).start(now)
        else:
            tags.acquire(now, _Transfer(self, op, on_done, payload, True).start)

    # -- packet lifecycle -------------------------------------------------------
    #
    # One walk per packet through four contiguous stages: ``ring`` (arrival
    # to ring post), ``issue`` (post to payload dispatch, through the gating
    # transactions), ``payload`` (dispatch to payload done) and
    # ``completion`` (done to the completion report).  A traced datapath
    # numbers each packet on arrival and records one span per stage as the
    # walk leaves it, so the four durations sum to the packet's recorded
    # latency ``notify - arrival``.  Untraced, the packet number is
    # ``None`` and each span site costs one ``is None`` test.

    def on_arrival(self, now: float, size: int) -> None:
        """A packet reaches the datapath (driver for TX, wire for RX)."""
        self.offered += 1
        self.offered_bytes += size
        tracer = self.tracer
        packet = None if tracer is None else tracer.next_packet()
        # The ring admit, open-coded: an entry is usually free, and a call
        # per packet would cost more than the admit itself on the hottest
        # call chain of the whole simulator.
        ring = self.ring
        # _Ring._advance, open-coded for the same reason.
        if ring._first_event is None:
            ring._first_event = now
            if now > ring._last_event:
                ring._last_event = now
        elif now > ring._last_event:
            ring._occupancy_integral += ring._used * (now - ring._last_event)
            ring._last_event = now
        if ring._used < ring.depth:
            used = ring._used + 1
            ring._used = used
            ring.posts += 1
            if used > ring.max_occupancy:
                ring.max_occupancy = used
            ops = self._compiled.get(size)
            if ops is None:
                ops = self._ops_for(size)
            self._step(ops, 0, now, size, packet, None, now)
        elif self._wait_on_full:
            ring._waiters.append(
                partial(self._step, self._ops_for(size), 0, now, size, packet, None)
            )
        else:
            ring.drops += 1
            self.dropped_bytes += size
            if packet is not None:
                tracer.record(self.device, self.label, packet, STAGE_DROP, now, 0.0)

    def _step(
        self,
        ops: list[_CompiledOp],
        index: int,
        arrival: float,
        size: int,
        packet: int | None,
        post: float | None,
        now: float,
    ) -> None:
        """Walk the gating transactions in causal order, then the payload.

        Iterative over the already-fired gates (the steady-state case:
        every wait on an already-fired signal continues synchronously), so
        one packet costs one ``_step`` frame instead of one per gate.
        ``now`` comes last, so a packet waiting for a ring entry or a gate
        resumes as ``partial(self._step, ...)(time)``; at ``index`` 0 it
        is the ring-post time.  Traced, the walk records the ``ring`` span
        on entry, one ``op:<label>`` span per gating instance it issues
        (batch-level, so ``packet=-1``) and the ``issue`` span, from
        ``post``, when the payload dispatches.
        """
        if packet is not None and index == 0:
            post = now
            self.tracer.record(
                self.device, self.label, packet, STAGE_RING, arrival, now - arrival
            )
        payload_idx = self._payload_idx
        credits = self._credits
        signals = self._signals
        while index != payload_idx:
            op = ops[index]
            if credits[index] >= op.per_packets:
                credits[index] -= op.per_packets
                signal = _Signal()
                signals[index] = signal
                self._issue(
                    op,
                    now,
                    signal.fire
                    if packet is None
                    else partial(self._gate_done, signal, now, OP_PREFIX + op.label),
                )
            credits[index] += 1.0
            signal = signals[index]
            time = signal.time
            if time is None:
                signal._waiters.append(
                    partial(self._step, ops, index + 1, arrival, size, packet, post)
                )
                return
            if time > now:
                now = time
            index += 1
        if packet is not None:
            self.tracer.record(
                self.device, self.label, packet, STAGE_ISSUE, post, now - post
            )
        self._issue(
            ops[index],
            now,
            partial(self._on_payload, arrival, size, packet, now),
            payload=True,
        )

    def _gate_done(
        self, signal: _Signal, issued: float, stage: str, done: float
    ) -> None:
        """A traced gating instance completed: record its span, fire its gate."""
        self.tracer.record(self.device, self.label, -1, stage, issued, done - issued)
        signal.fire(done)

    def _on_payload(
        self,
        arrival: float,
        size: int,
        packet: int | None,
        dispatch: float,
        done: float,
    ) -> None:
        """Payload DMA finished: account trailing (report-side) transactions."""
        if packet is not None:
            self.tracer.record(
                self.device,
                self.label,
                packet,
                STAGE_PAYLOAD,
                dispatch,
                done - dispatch,
            )
        self._pending.append((arrival, done, size, packet))
        ops = self._compiled.get(size)
        if ops is None:
            ops = self._ops_for(size)
        credits = self._credits
        for index in range(self._payload_idx + 1, len(ops)):
            op = ops[index]
            credits[index] += 1.0
            while credits[index] >= op.per_packets:
                credits[index] -= op.per_packets
                if index == self._notify_idx:
                    batch, self._pending = self._pending, []
                    self._issue(op, done, partial(self._flush, batch))
                else:
                    self._issue(op, done, _ignore)
        if self._notify_idx is None:
            batch, self._pending = self._pending, []
            self._flush(batch, done)

    def _flush(
        self, batch: list[tuple[float, float, int, int | None]], report: float
    ) -> None:
        """The driver learned about a batch: free ring entries, sample stats."""
        self.ring.release(report, len(batch))
        tracer = self.tracer
        for arrival, done, size, packet in batch:
            notify = done if done > report else report
            if packet is not None:
                tracer.record(
                    self.device,
                    self.label,
                    packet,
                    STAGE_COMPLETION,
                    done,
                    notify - done,
                )
            self._record(arrival, done, notify, size)

    def finish(self) -> None:
        """Account packets whose completion report never fired (end of run).

        The last, partial batch has delivered its payloads but the
        moderated interrupt / write-back that would report it never came;
        record those packets with their payload-completion time so the
        delivered/latency accounting covers every packet.  Ring state no
        longer matters once the event loop has drained.
        """
        batch, self._pending = self._pending, []
        for arrival, done, size, packet in batch:
            if packet is not None:
                # Never reported: the completion stage collapses to zero
                # width at the payload-done time, keeping the span sum exact.
                self.tracer.record(
                    self.device, self.label, packet, STAGE_COMPLETION, done, 0.0
                )
            self._record(arrival, done, done, size)

    def _record(self, arrival: float, done: float, notify: float, size: int) -> None:
        """One delivered packet: retained mode appends, streaming sketches."""
        self.delivered += 1
        self.delivered_bytes += size
        if notify > self.max_notify:
            self.max_notify = notify
        if self.stream is None:
            self.arrivals.append(arrival)
            self.dones.append(done)
            self.notifies.append(notify)
            self.delivered_sizes.append(size)
        elif self._warmup_gate.admit():
            self.stream.record(notify - arrival, done, size)
        if self.observer is not None:
            self.observer(notify - arrival)

    # -- statistics -------------------------------------------------------------

    def result(self) -> PathResult:
        """Summarise this queue (or the whole direction, single-queue)."""
        if self.stream is None:
            throughput, rate, latency = _path_statistics(
                self.arrivals,
                self.dones,
                self.notifies,
                self.delivered_sizes,
                ring_depth=self._params.ring_depth,
            )
        else:
            throughput, rate, latency = self.stream.statistics()
        return PathResult(
            direction=self.label,
            offered_packets=self.offered,
            delivered_packets=self.delivered,
            drops=self.ring.drops,
            in_flight=self.ring.waiting,
            payload_bytes=self.delivered_bytes,
            offered_bytes=self.offered_bytes,
            dropped_bytes=self.dropped_bytes,
            throughput_gbps=throughput,
            packet_rate_pps=rate,
            latency=latency,
            ring=self.ring.stats(),
        )


class _Transfer:
    """One transaction instance on its way over the links and the host.

    :meth:`start` claims link time for the instance; ``on_done`` fires at
    completion.  With host coupling active, DMA transactions additionally
    visit the root complex *at the simulated time they arrive there* (so
    ingress and walker occupancy is claimed in event order): reads wait
    out the returned host latency before their completion claims the
    down link; posted writes complete on the wire but still consume host
    resources, back-pressuring later transactions.

    A held tag (``tagged``) frees when the device's DMA context would:
    for reads, when the completion lands back at the device; for posted
    writes, at wire completion — or, host-coupled, when the root complex
    has drained the write into the memory system (the flow-control
    credit loop that lets a slow host throttle even posted traffic).

    The instance's state lives in this slotted record and its bound
    methods are the event and grant callbacks: one object per instance
    instead of a closure per stage, freed by reference counting alone.
    """

    __slots__ = ("path", "op", "on_done", "payload", "tagged", "access")

    def __init__(
        self,
        path: _Datapath,
        op: _CompiledOp,
        on_done: Callable[[float], None],
        payload: bool,
        tagged: bool,
    ) -> None:
        self.path = path
        self.op = op
        self.on_done = on_done
        self.payload = payload
        self.tagged = tagged
        #: The root complex's answer, once the DMA reaches it.
        self.access: HostAccess | None = None

    def start(self, now: float) -> None:
        """Put the instance on the wire at ``now`` (issue or tag grant)."""
        path = self.path
        op = self.op
        kind = op.kind
        if kind is OpKind.DMA_READ:
            up_ns = op.up_ns
            start = path._link_up.occupy(now, up_ns)
            if path._coupling is None:
                path._loop.at(
                    start + up_ns + HOST_READ_LATENCY_NS,
                    self.read_completion,
                )
            else:
                path._loop.at(start + up_ns, self.read_at_root_complex)
        elif kind is OpKind.DMA_WRITE:
            up_ns = op.up_ns
            start = path._link_up.occupy(now, up_ns)
            if path._coupling is None:
                path._loop.at(
                    start + up_ns, self.done if self.tagged else self.on_done
                )
            else:
                at = path._loop.at
                at(start + up_ns, self.on_done)
                at(start + up_ns, self.write_at_root_complex)
        elif kind is OpKind.MMIO_WRITE:
            start = path._link_down.occupy(now, op.down_ns)
            path._loop.at(start + op.down_ns, self.on_done)
        else:  # MMIO_READ: request downstream, completion upstream
            start = path._link_down.occupy(now, op.down_ns)
            turnaround = (
                path._coupling.mmio_read_ns
                if path._coupling is not None
                else MMIO_READ_LATENCY_NS
            )
            path._loop.at(start + op.down_ns + turnaround, self.mmio_completion)

    def read_at_root_complex(self, time: float) -> None:
        """The read request reached the root complex: service it there."""
        path = self.path
        op = self.op
        access = path._coupling.access(
            op.kind, direction=path.direction, payload=self.payload, size=op.size
        )
        self.access = access
        path._visit_host(time, access, self.host_ready)

    def host_ready(self, ready: float) -> None:
        """Host processing may begin: the completion leaves after its latency."""
        self.path._loop.at(ready + self.access.latency_ns, self.read_completion)

    def read_completion(self, time: float) -> None:
        """The read completion claims the down link back to the device."""
        path = self.path
        down_ns = self.op.down_ns
        start = path._link_down.occupy(time, down_ns)
        path._loop.at(start + down_ns, self.done if self.tagged else self.on_done)

    def write_at_root_complex(self, time: float) -> None:
        """The posted write reached the root complex: service it there."""
        path = self.path
        op = self.op
        access = path._coupling.access(
            op.kind, direction=path.direction, payload=self.payload, size=op.size
        )
        self.access = access
        path._visit_host(time, access, self.write_drained)

    def write_drained(self, ready: float) -> None:
        """Host processing began: a held tag frees once the write commits."""
        if self.tagged:
            path = self.path
            path._loop.at(ready + self.access.latency_ns, path._tags.release)

    def mmio_completion(self, time: float) -> None:
        """The register read's completion claims the up link."""
        path = self.path
        up_ns = self.op.up_ns
        start = path._link_up.occupy(time, up_ns)
        path._loop.at(start + up_ns, self.on_done)

    def done(self, time: float) -> None:
        """The tagged instance completed: free its tag, then report."""
        self.path._tags.release(time)
        self.on_done(time)


class _Device:
    """One simulated NIC: links, tag pool, per-direction queues and feed.

    Both simulators build their devices here from the device's
    :class:`NicSimParams` record — a :class:`NicDatapathSimulator` run
    builds one from its own record, a
    :class:`~repro.sim.fabric.FabricSimulator` run one per device of its
    :class:`~repro.sim.fabric.ContentionParams`, from that device's solo
    record (:meth:`~repro.sim.fabric.ContentionParams.solo_params`) — so a
    device is assembled, fed and summarised one way.  The record gives the
    model, the rings, queues and tag pool, the packet count and the seed;
    the caller supplies the traffic (``workload``) and what devices share:
    the event loop, the host coupling and, when several devices contend,
    the arbitrated upstream port.  A host-coupled device without a port
    serialises its host accesses on private ingress and walker resources.

    Construction draws each direction's schedule (``tx``, then ``rx``)
    from one RNG seeded with the record's seed (the library default when
    unset) and feeds the arrivals to the loop.  Multi-queue directions
    steer through an RSS indirection table: the record's ``rss_table``,
    or the identity table, which sends every flow where hashing it
    straight onto the queues would.  With
    ``steered`` the table is a live :class:`~repro.control.RssSteering`
    (listed in ``steerings``) that a controller may rewrite mid-run.
    """

    __slots__ = (
        "name",
        "prefix",
        "params",
        "model",
        "workload",
        "coupling",
        "link_up",
        "link_down",
        "tags",
        "directions",
        "steerings",
    )

    def __init__(
        self,
        name: str,
        prefix: str,
        params: NicSimParams,
        loop: EventLoop,
        workload: Workload,
        *,
        coupling: HostCoupling | None = None,
        host_port: "object | None" = None,
        tracer: Tracer | None = None,
        steered: bool = False,
    ) -> None:
        self.name = name
        #: Metric and resource name prefix (``"nicsim"`` or ``"fabric"``).
        self.prefix = prefix
        self.params = params
        self.model = model = model_by_name(params.model)
        self.workload = workload
        self.coupling = coupling
        base = f"{prefix}.{name}"
        self.link_up = SerialResource(f"{base}.device_to_host")
        self.link_down = SerialResource(f"{base}.host_to_device")
        self.tags = (
            TagPool(f"{base}.dma_tags", params.dma_tags)
            if params.dma_tags is not None
            else None
        )
        ingress = walker = None
        if coupling is not None and host_port is None:
            ingress = SerialResource(f"{base}.root_complex.ingress")
            walker = SerialResource(f"{base}.iommu.walker")
        seed = DEFAULT_SEED if params.seed is None else params.seed
        rng = SimRng(seed)
        packets = params.packets
        self.directions: list[tuple[str, list[_Datapath]]] = []
        self.steerings: list[RssSteering] = []
        for direction in ("tx", "rx") if workload.duplex else ("tx",):
            warmup_gate = (
                None
                if params.retain_samples
                else _WarmupGate(
                    _streaming_warmup_threshold(
                        packets,
                        ring_depth=params.ring_depth,
                    )
                )
            )
            queues = [
                _Datapath(
                    direction,
                    model,
                    params,
                    loop,
                    self.link_up,
                    self.link_down,
                    coupling=coupling,
                    ingress=ingress,
                    walker=walker,
                    tags=self.tags,
                    queue_index=index,
                    host_port=host_port,
                    warmup_gate=warmup_gate,
                    tracer=tracer,
                    device=name,
                )
                for index in range(params.num_queues)
            ]
            schedule = workload.generate(packets, rng, stream=direction)
            self._feed(loop, queues, schedule, seed=seed, steered=steered)
            self.directions.append((direction, queues))

    def _feed(
        self,
        loop: EventLoop,
        queues: list[_Datapath],
        schedule: PacketSchedule,
        *,
        seed: int,
        steered: bool,
    ) -> None:
        """Feed one direction's arrivals to the loop as one source.

        The arrivals are pre-generated and nearly sorted, so feeding them
        costs one stable merge and a pointer walk instead of scheduling
        each one.  The RSS key derives from ``seed``: reseeding the run
        reprograms the hash, like a driver re-keying Toeplitz.
        """
        times = schedule.arrival_times_ns
        sizes = schedule.sizes
        if len(queues) == 1:
            loop.feed(times, queues[0].on_arrival, sizes)
            return
        if schedule.flows is None:
            raise ValidationError(
                f"a {len(queues)}-queue device needs a workload with a flow "
                "model to steer by (set Workload.flows, e.g. via "
                "repro.workloads.build_flow_model)"
            )
        table = self.params.rss_table or identity_table(len(queues))
        if steered:
            steering = RssSteering(queues, table)
            self.steerings.append(steering)
            targets = [
                partial(steering.dispatch, bucket) for bucket in range(len(table))
            ]
        else:
            targets = [queues[queue].on_arrival for queue in table]
        targets = np.fromiter(targets, dtype=object, count=len(targets))
        buckets = rss_buckets(schedule.flows, len(table), seed=seed)
        loop.feed(times, targets[buckets], sizes)

    def finish(self) -> NicSimResult:
        """Account unreported packets and summarise the device after the run.

        The device's duration is its last completion report.
        """
        paths = [path for _, queues in self.directions for path in queues]
        for path in paths:
            path.finish()
        duration = max([0.0] + [path.max_notify for path in paths])
        results = [
            _direction_result(direction, queues, self.params)
            for direction, queues in self.directions
        ]
        return NicSimResult(
            model=self.model.name,
            workload=self.workload.name,
            packets=self.params.packets,
            duration_ns=duration,
            tx=results[0],
            rx=results[1] if len(results) > 1 else None,
            link_utilisation_up=(
                self.link_up.utilisation(duration) if duration > 0 else 0.0
            ),
            link_utilisation_down=(
                self.link_down.utilisation(duration) if duration > 0 else 0.0
            ),
            host=self.coupling.stats() if self.coupling is not None else None,
            tags=DmaTagStats.from_pool(self.tags) if self.tags is not None else None,
        )

    def publish(self, metrics: MetricsRegistry, result: NicSimResult) -> None:
        """Publish end-of-run totals, latency histograms and link gauges."""
        dev = f"{self.prefix}.{metric_segment(self.name)}"
        for direction, queues in self.directions:
            base = f"{dev}.{direction}"
            _update_direction_counters(metrics, base, queues)
            histogram = metrics.histogram(base + ".latency_ns")
            for queue in queues:
                if queue.stream is not None:
                    histogram.sketch.merge(queue.stream.sketch)
                elif queue.notifies:
                    histogram.observe_many(
                        np.subtract(queue.notifies, queue.arrivals).tolist()
                    )
        metrics.gauge(dev + ".link.up_utilisation").set(result.link_utilisation_up)
        metrics.gauge(dev + ".link.down_utilisation").set(
            result.link_utilisation_down
        )


def _path_statistics(
    arrivals: array | np.ndarray,
    dones: array | np.ndarray,
    notifies: array | np.ndarray,
    sizes: array | np.ndarray,
    *,
    ring_depth: int,
) -> tuple[float, float, LatencySummary | None]:
    """Steady-state throughput, packet rate and latency of one packet set.

    Shared by the per-queue and the merged per-direction summaries so both
    apply exactly the same warmup and measurement-window rules.  The
    columns are read through the buffer protocol, without a copy.
    """
    delivered = len(dones)
    if delivered < 2:
        return 0.0, 0.0, None
    dones = np.asarray(dones)
    order = np.argsort(dones, kind="stable")
    # The pipeline-fill transient lasts about one ring depth of
    # packets; skip at least that much (up to half the run) on top
    # of the warmup fraction.
    warmup = max(
        int(delivered * WARMUP_FRACTION),
        min(ring_depth, delivered // 2),
    )
    warmup = min(warmup, delivered - 2)
    measured = order[warmup:]
    throughput = 0.0
    rate = 0.0
    done_times = dones[measured]
    measured_sizes = np.asarray(sizes)[measured]
    elapsed = float(done_times[-1] - done_times[0])
    if elapsed > 0.0:
        # The first measured packet marks t0; its own bytes precede it.
        throughput = bytes_over_time_to_gbps(
            int(measured_sizes[1:].sum()), elapsed
        )
        rate = (measured_sizes.size - 1) / ns_to_s(elapsed)
    samples = np.subtract(notifies, arrivals)[measured]
    return throughput, rate, LatencySummary.from_samples(samples)


def _merged(queues: list["_Datapath"], column: str) -> np.ndarray:
    """One retained per-packet column of ``queues``, in queue order."""
    return np.concatenate([getattr(queue, column) for queue in queues])


def _direction_result(
    direction: str, queues: list["_Datapath"], params: NicSimParams
) -> PathResult:
    """Aggregate the queues of one direction into its :class:`PathResult`.

    The single-queue case returns the queue's own result untouched (the
    bit-identical degenerate path).  Otherwise counters sum across queues,
    ring statistics aggregate per the :class:`PathResult` docstring, and
    throughput/latency are recomputed over the *merged* packet set so the
    direction numbers weight every queue by its actual traffic.
    """
    if len(queues) == 1:
        return queues[0].result()
    per_queue = tuple(queue.result() for queue in queues)
    if queues[0].stream is not None:
        # Streaming mode: fold the per-queue sketches/windows in queue
        # order — integer bucket counts make the merged quantiles exact
        # under any order, fixed order keeps the float sums bit-stable.
        merged = _StreamStats()
        for queue in queues:
            merged.merge(queue.stream)
        throughput, rate, latency = merged.statistics()
    else:
        throughput, rate, latency = _path_statistics(
            _merged(queues, "arrivals"),
            _merged(queues, "dones"),
            _merged(queues, "notifies"),
            _merged(queues, "delivered_sizes"),
            ring_depth=params.ring_depth,
        )
    ring = RingStats(
        depth=params.ring_depth,
        posts=sum(result.ring.posts for result in per_queue),
        drops=sum(result.ring.drops for result in per_queue),
        max_occupancy=max(result.ring.max_occupancy for result in per_queue),
        mean_occupancy=(
            sum(result.ring.mean_occupancy for result in per_queue)
            / len(per_queue)
        ),
    )
    return PathResult(
        direction=direction,
        offered_packets=sum(result.offered_packets for result in per_queue),
        delivered_packets=sum(result.delivered_packets for result in per_queue),
        drops=sum(result.drops for result in per_queue),
        in_flight=sum(result.in_flight for result in per_queue),
        payload_bytes=sum(result.payload_bytes for result in per_queue),
        offered_bytes=sum(result.offered_bytes for result in per_queue),
        dropped_bytes=sum(result.dropped_bytes for result in per_queue),
        throughput_gbps=throughput,
        packet_rate_pps=rate,
        latency=latency,
        ring=ring,
        queues=per_queue,
    )


# ---------------------------------------------------------------------------
# Metrics publication
# ---------------------------------------------------------------------------


_COUNTER_MEASURES: tuple[tuple[str, str], ...] = (
    ("offered_packets", "offered"),
    ("delivered_packets", "delivered"),
    ("delivered_bytes", "delivered_bytes"),
    ("dropped_bytes", "dropped_bytes"),
)


def _update_direction_counters(
    metrics: MetricsRegistry, base: str, queues: list["_Datapath"]
) -> None:
    """Advance the direction's counters to the queues' live totals."""
    for measure, attribute in _COUNTER_MEASURES:
        counter = metrics.counter(f"{base}.{measure}")
        total = sum(getattr(queue, attribute) for queue in queues)
        counter.add(total - counter.value)
    drops = metrics.counter(base + ".drops")
    drops.add(sum(queue.ring.drops for queue in queues) - drops.value)


def _install_metrics_sampler(
    metrics: MetricsRegistry,
    loop: EventLoop,
    devices: list[_Device],
    *,
    window_ns: float = DEFAULT_METRICS_WINDOW_NS,
    runtime: ControlRuntime | None = None,
) -> None:
    """Sample the devices' counters every ``window_ns`` of simulated time.

    One shared tick samples every direction of every device, so each
    window boundary yields exactly one registry row.  The sampler re-arms
    itself only while the loop still has events, so a drained run stops
    cleanly.  With a control ``runtime`` the sample rides the control
    tick instead, on the runtime's windows: two ticks that each re-arm
    while the other is pending would keep the run alive forever, and one
    tick schedules no event a run without a registry lacks.  Cost is zero
    on the per-packet hot path — live datapath counters are only *read*
    at window boundaries.
    """
    lanes = [
        (f"{device.prefix}.{metric_segment(device.name)}.{direction}", queues)
        for device in devices
        for direction, queues in device.directions
    ]
    for base, _ in lanes:
        for measure, _attribute in _COUNTER_MEASURES:
            metrics.counter(f"{base}.{measure}")
        metrics.counter(base + ".drops")

    def sample(now: float) -> None:
        for base, queues in lanes:
            _update_direction_counters(metrics, base, queues)
        metrics.sample(now)

    if runtime is not None:
        runtime.sampler = sample
        return

    def tick(now: float) -> None:
        sample(now)
        if loop.peek_time() < math.inf:
            loop.at(now + window_ns, tick)

    loop.at(window_ns, tick)


# ---------------------------------------------------------------------------
# The simulator façade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathTrace:
    """Raw per-packet event times of one direction, for invariant checking.

    ``NicDatapathSimulator.run`` keeps the trace of its most recent run in
    ``last_traces`` so test harnesses can assert the causal ordering
    (arrival <= payload completion <= completion report) packet by packet
    — the summaries in :class:`PathResult` cannot express that.

    ``queue_ids`` labels every delivered packet with the queue that
    carried it (all zeros for single-queue runs), so per-queue slices of
    the trace can be checked against per-queue counters.
    """

    direction: str
    arrivals_ns: np.ndarray
    dones_ns: np.ndarray
    notifies_ns: np.ndarray
    sizes: np.ndarray
    queue_ids: np.ndarray | None = None


class NicDatapathSimulator:
    """Replays one :class:`NicSimParams` record through its NIC/driver model.

    The record is the simulator's only input: the model, the traffic it
    names, the packet count, the seed, the datapath and host knobs and the
    engine mode.  The workload is built once here, so repeated runs replay
    the same traffic.
    """

    def __init__(self, params: NicSimParams) -> None:
        self.params = params
        self.model = model_by_name(params.model)
        self.workload = params.build_workload()
        #: Per-direction :class:`PathTrace` of the most recent ``run``.
        self.last_traces: dict[str, PathTrace] = {}
        #: Phase timing of the most recent ``run`` (the ``--profile`` hook).
        self.last_profile: EngineProfile | None = None

    def run(
        self,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        device: str = "nic",
    ) -> NicSimResult:
        """Simulate the record's packets per active direction.

        The record's ``mode`` selects the engine: ``"exact"`` (the scalar
        event loop every golden is pinned to) or ``"batch"`` (the
        vectorised :mod:`repro.sim.fastpath` solver, falling back to the
        scalar loop whenever an interaction point makes it inapplicable;
        the profile then records the reason).

        Args:
            tracer: optional span recorder; when set, every packet's
                lifecycle stages (and walker/arbitration waits) land in
                its flight-recorder buffer.  Tracing only observes the
                walk: the simulated behaviour is the same with ``None``
                (the default).
            metrics: optional registry; when set, per-direction counters
                are sampled every ``DEFAULT_METRICS_WINDOW_NS`` of
                simulated time and the cumulative snapshot is attached to
                the result as ``result.metrics``.
            device: name carried by spans and metric names (fabric runs
                pass the contending device's name).
        """
        params = self.params
        fallback_reason = None
        if params.mode == "batch":
            # Lazy import: fastpath imports this module itself, and exact
            # runs (every contended run, and the package-import probe of
            # perfbench's set-up time) never pay to load it.
            from .fastpath import BatchFallback, run_batch

            try:
                return run_batch(
                    self, tracer=tracer, metrics=metrics, device=device
                )
            except BatchFallback as fallback:
                # An interaction point (host coupling, bounded tags,
                # multi-queue, ring pressure) or non-convergence: the
                # scalar loop is authoritative.  Fallbacks fire before the
                # solver touches the tracer or metrics registry, so the
                # scalar run below starts from a clean slate; the profile
                # keeps mode="exact" and the reason, so records say which
                # engine ran and why.
                fallback_reason = fallback.reason
        wall_start = perf_counter()
        loop = EventLoop()
        coupling = (
            SharedHost(
                [params],
                seed=DEFAULT_SEED if params.seed is None else params.seed,
            ).couplings[0]
            if params.system is not None
            else None
        )
        nic = _Device(
            device,
            "nicsim",
            params,
            loop,
            self.workload,
            coupling=coupling,
            tracer=tracer,
        )
        if metrics is not None:
            _install_metrics_sampler(metrics, loop, [nic])
        events_start = perf_counter()
        loop.run()
        stats_start = perf_counter()
        result = nic.finish()
        # Streaming runs keep no per-packet arrays, so there is no trace
        # to publish; retained runs expose the full trace as before.
        self.last_traces = {
            direction: PathTrace(
                direction=direction,
                arrivals_ns=_merged(queues, "arrivals"),
                dones_ns=_merged(queues, "dones"),
                notifies_ns=_merged(queues, "notifies"),
                sizes=_merged(queues, "delivered_sizes"),
                queue_ids=np.repeat(
                    np.array([q.queue_index for q in queues], dtype=np.int64),
                    [len(q.dones) for q in queues],
                ),
            )
            for direction, queues in nic.directions
        } if params.retain_samples else {}
        self.last_profile = EngineProfile(
            label=f"nicsim {self.model.name} {self.workload.name}",
            build_s=events_start - wall_start,
            events_s=stats_start - events_start,
            stats_s=perf_counter() - stats_start,
            events=loop.processed,
            mode="exact",
            fallback_reason=fallback_reason,
        )
        if metrics is not None:
            nic.publish(metrics, result)
            result = replace(result, metrics=metrics.as_dict())
        return result
