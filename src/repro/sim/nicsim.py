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

When a :class:`~repro.sim.nichost.NicHostConfig` is attached (via
``NicSimConfig.host``), the flat per-DMA host latency is replaced by the
full host model: every descriptor fetch, payload DMA and write-back
becomes a :class:`~repro.sim.root_complex.HostAccess` against a Table 1
profile, adding cache hit/DRAM-miss latency, DDIO write-backs, IOTLB
walks serialised on a shared page-walker resource, per-TLP root-complex
ingress occupancy and remote-NUMA penalties on top of link serialisation.
Data flow: ``workloads → nicsim (rings, event loop, links) → nichost
(buffers, address streams) → root_complex (cache/IOMMU/NUMA/memory/
noise)``.  Without a host config the PR 1 link-only behaviour is
preserved bit for bit.

Two device-side resource limits complete the picture:

* **Bounded DMA tags** (``NicSimConfig.dma_tags``): real NICs hold a
  finite pool of outstanding-DMA contexts, so host latency does not just
  stretch the tail — once every tag is waiting out a host round trip, the
  device cannot issue new work and *throughput* collapses (the Figure 8
  bandwidth dip).  Every descriptor fetch, payload DMA and write-back
  acquires a tag from one device-wide :class:`~repro.sim.engine.TagPool`
  before touching a link; reads hold it until the completion lands,
  writes until the root complex has drained them (the flow-control
  credit loop).  ``dma_tags=None`` keeps the historical unbounded issue.
* **Multiple queues** (``NicSimConfig.num_queues``): N TX/RX ring pairs
  per device, each an independent descriptor ring with its own batching
  state, sharing the two link directions, the host coupling and the tag
  pool.  Packets are steered by hashing their workload-assigned flow
  label (:mod:`repro.workloads.rss`), so skewed flow mixes reproduce the
  queue imbalance real RSS suffers.  ``num_queues=1`` is the degenerate
  case and remains bit-identical to the single-queue datapath.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from time import perf_counter
from typing import Callable

import numpy as np

from ..control import ControlRuntime, RssSteering, identity_table
from ..core.config import PAPER_DEFAULT_CONFIG
from ..core.nic import NicModel, model_by_name
from ..core.transactions import OpKind
from ..errors import SimulationError, ValidationError, record_reader
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
from ..units import bytes_over_time_to_gbps, ns_to_s
from ..workloads import PacketSchedule, Workload, rss_buckets
from ..workloads.rss import check_rss_table
from .engine import MODES, EngineProfile, EventLoop, SerialResource, TagPool
from .nichost import HostCoupling, HostSideStats, NicHostConfig, SharedHost
from .rng import DEFAULT_SEED, SimRng
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


@dataclass(frozen=True)
class NicSimConfig:
    """Datapath parameters not captured by the :class:`NicModel` itself.

    Attributes:
        ring_depth: descriptor ring depth per direction (entries).
        rx_backpressure: when true a full RX ring stalls the source instead
            of dropping — the lossless-fabric premise of the closed-form
            model, used by the cross-validation harness.  The realistic
            default tail-drops, as a NIC must when the wire does not wait.
        host: optional :class:`~repro.sim.nichost.NicHostConfig` coupling
            the datapath to a Table 1 host model; when set, DMAs are
            serviced by the root complex (cache, IOMMU, NUMA, noise) and
            :data:`HOST_READ_LATENCY_NS` / :data:`MMIO_READ_LATENCY_NS` are
            superseded by the profile's calibrated behaviour.
        num_queues: TX/RX ring pairs per device.  Each queue has its own
            descriptor ring and batching state; packets steer to queues by
            RSS-hashing their flow label.  The default single queue is the
            degenerate case, bit-identical to the pre-multi-queue datapath.
        dma_tags: size of the device-wide pool of in-flight DMA tags every
            descriptor fetch, payload DMA and write-back must hold while
            outstanding.  ``None`` (default) models an infinitely deep
            pool — the historical behaviour, where host latency can only
            stretch the latency distribution, never cap throughput.
        retain_samples: when true (default) per-packet event times are
            kept in full, exactly as before — O(packets) memory, exact
            percentiles, ``last_traces`` populated.  When false, latency
            samples stream through a mergeable
            :class:`~repro.stats.QuantileSketch` instead (O(1) memory
            w.r.t. packet count, percentiles within the sketch's 0.5%
            documented relative error) and warmup is applied as an
            a-priori packet-count cutoff rather than the retained-mode
            sort-by-completion rule — statistically equivalent, not
            bit-identical.  Fleet-scale runs (:mod:`repro.fleet`) use
            this mode so results survive 10^8-packet sweeps.
    """

    ring_depth: int = 512
    rx_backpressure: bool = False
    host: NicHostConfig | None = None
    num_queues: int = 1
    dma_tags: int | None = None
    retain_samples: bool = True
    #: Optional RSS indirection table: ``queue = table[hash % len(table)]``.
    #: ``None`` uses the identity table, which sends every flow to queue
    #: ``hash % num_queues``.  Requires ``num_queues > 1``.
    rss_table: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.ring_depth <= 0:
            raise ValidationError(
                f"ring_depth must be positive, got {self.ring_depth}"
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
        "_sim_config",
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
        sim_config: NicSimConfig,
        loop: EventLoop,
        link_up: SerialResource,
        link_down: SerialResource,
        coupling: HostCoupling | None = None,
        ingress: SerialResource | None = None,
        walker: SerialResource | None = None,
        tags: TagPool | None = None,
        queue_index: int = 0,
        num_queues: int = 1,
        host_port: "object | None" = None,
        warmup_gate: _WarmupGate | None = None,
        tracer: Tracer | None = None,
        device: str = "nic",
    ) -> None:
        self.direction = direction
        self.queue_index = queue_index
        #: Display label: plain direction for single-queue devices (so
        #: serialised results stay identical), ``"tx[i]"`` per queue.
        self.label = direction if num_queues == 1 else f"{direction}[{queue_index}]"
        self._model = model
        self._sim_config = sim_config
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
        self.ring = _Ring(f"{self.label}_ring", sim_config.ring_depth)
        #: A full ring queues the packet (TX backpressure / RX with
        #: backpressure on) or drops it (default RX) — fixed per run.
        self._wait_on_full = direction == "tx" or sim_config.rx_backpressure
        self._compiled: dict[int, list[_CompiledOp]] = {}

        reference = self._ops_for(_REFERENCE_PACKET)
        self._payload_idx = self._find_payload(reference)
        self._notify_idx = self._find_notify(reference, self._payload_idx)
        if self._notify_idx is not None:
            notify = reference[self._notify_idx]
            if sim_config.ring_depth < notify.per_packets:
                # Entries free only when a completion report fires, and the
                # report fires only after per_packets payloads complete: a
                # shallower ring can never fill a batch and deadlocks.
                raise ValidationError(
                    f"ring_depth {sim_config.ring_depth} is shallower than "
                    f"the model's completion-report batch "
                    f"({notify.label!r} every {notify.per_packets:g} "
                    "packets); the datapath could never report a batch"
                )
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

        self.arrivals: list[float] = []
        self.dones: list[float] = []
        self.notifies: list[float] = []
        self.delivered_sizes: list[int] = []
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
        if not sim_config.retain_samples:
            self.stream = _StreamStats()
            if self._warmup_gate is None:
                # Direct construction without a shared gate: measure from
                # the first packet (the runners always pass a gate).
                self._warmup_gate = _WarmupGate(0)

    # -- sequence compilation ---------------------------------------------------

    def _ops_for(self, size: int) -> list[_CompiledOp]:
        ops = self._compiled.get(size)
        if ops is None:
            sequence = (
                self._model.tx_sequence(size)
                if self.direction == "tx"
                else self._model.rx_sequence(size)
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
                        dma=transaction.kind
                        in (OpKind.DMA_READ, OpKind.DMA_WRITE),
                    )
                )
            self._compiled[size] = ops
        return ops

    @staticmethod
    def _find_payload(reference: list[_CompiledOp]) -> int:
        payload = None
        payload_time = None
        for index, op in enumerate(reference):
            if op.per_packets != 1.0:
                continue
            if op.kind not in (OpKind.DMA_READ, OpKind.DMA_WRITE):
                continue
            # The payload is the per-packet DMA whose wire time scales with
            # the reference packet, i.e. the largest per-packet DMA.
            time = max(op.up_ns, op.down_ns)
            if payload_time is None or time > payload_time:
                payload_time = time
                payload = index
        if payload is None:
            raise SimulationError(
                "transaction sequence has no per-packet payload DMA"
            )
        return payload

    @staticmethod
    def _find_notify(reference: list[_CompiledOp], payload_idx: int) -> int | None:
        trailing = range(payload_idx + 1, len(reference))
        for index in trailing:
            op = reference[index]
            if op.kind is OpKind.DMA_WRITE and "interrupt" in op.label.lower():
                return index
        for index in trailing:
            if reference[index].kind is OpKind.DMA_WRITE:
                return index
        return None

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
                ring_depth=self._sim_config.ring_depth,
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

    Both simulators build their devices here — a
    :class:`NicDatapathSimulator` run builds one, a
    :class:`~repro.sim.fabric.FabricSimulator` run one per contending
    device — so a device is assembled, fed and summarised one way.  The
    caller supplies what devices share: the event loop, the host coupling
    and, when several devices contend, the arbitrated upstream port.  A
    host-coupled device without a port serialises its host accesses on
    private ingress and walker resources.

    Construction draws each direction's schedule (``tx``, then ``rx``)
    from one RNG seeded with ``seed`` and feeds the arrivals to the loop.
    Multi-queue directions steer through an RSS indirection table: the
    configured ``rss_table``, or the identity table, which sends every
    flow where hashing it straight onto the queues would.  With
    ``steered`` the table is a live :class:`~repro.control.RssSteering`
    (listed in ``steerings``) that a controller may rewrite mid-run.
    """

    __slots__ = (
        "name",
        "prefix",
        "model",
        "workload",
        "packets",
        "sim_config",
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
        model: NicModel,
        sim_config: NicSimConfig,
        loop: EventLoop,
        workload: Workload,
        packets: int,
        *,
        seed: int,
        coupling: HostCoupling | None = None,
        host_port: "object | None" = None,
        tracer: Tracer | None = None,
        steered: bool = False,
    ) -> None:
        self.name = name
        #: Metric and resource name prefix (``"nicsim"`` or ``"fabric"``).
        self.prefix = prefix
        self.model = model
        self.workload = workload
        self.packets = packets
        self.sim_config = sim_config
        self.coupling = coupling
        base = f"{prefix}.{name}"
        self.link_up = SerialResource(f"{base}.device_to_host")
        self.link_down = SerialResource(f"{base}.host_to_device")
        self.tags = (
            TagPool(f"{base}.dma_tags", sim_config.dma_tags)
            if sim_config.dma_tags is not None
            else None
        )
        ingress = walker = None
        if coupling is not None and host_port is None:
            ingress = SerialResource(f"{base}.root_complex.ingress")
            walker = SerialResource(f"{base}.iommu.walker")
        rng = SimRng(seed)
        num_queues = sim_config.num_queues
        self.directions: list[tuple[str, list[_Datapath]]] = []
        self.steerings: list[RssSteering] = []
        for direction in ("tx", "rx") if workload.duplex else ("tx",):
            warmup_gate = (
                None
                if sim_config.retain_samples
                else _WarmupGate(
                    _streaming_warmup_threshold(
                        packets,
                        ring_depth=sim_config.ring_depth,
                    )
                )
            )
            queues = [
                _Datapath(
                    direction,
                    model,
                    sim_config,
                    loop,
                    self.link_up,
                    self.link_down,
                    coupling=coupling,
                    ingress=ingress,
                    walker=walker,
                    tags=self.tags,
                    queue_index=index,
                    num_queues=num_queues,
                    host_port=host_port,
                    warmup_gate=warmup_gate,
                    tracer=tracer,
                    device=name,
                )
                for index in range(num_queues)
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
        """Hand one direction's arrivals to the loop's sorted stream.

        The arrivals are pre-generated and nearly sorted, so feeding them
        costs one stable sort and a pointer walk instead of scheduling
        each one.  The RSS key derives from ``seed``: reseeding the run
        reprograms the hash, like a driver re-keying Toeplitz.
        """
        times = schedule.arrival_times_ns.tolist()
        sizes = schedule.sizes.tolist()
        if len(queues) == 1:
            loop.feed_many(zip(times, repeat(queues[0].on_arrival), sizes))
            return
        if schedule.flows is None:
            raise ValidationError(
                f"a {len(queues)}-queue device needs a workload with a flow "
                "model to steer by (set Workload.flows, e.g. via "
                "repro.workloads.build_flow_model)"
            )
        table = self.sim_config.rss_table or identity_table(len(queues))
        if steered:
            steering = RssSteering(queues, table)
            self.steerings.append(steering)
            targets = [
                partial(steering.dispatch, bucket) for bucket in range(len(table))
            ]
        else:
            targets = [queues[queue].on_arrival for queue in table]
        buckets = rss_buckets(schedule.flows, len(table), seed=seed).tolist()
        loop.feed_many(
            zip(times, [targets[bucket] for bucket in buckets], sizes)
        )

    def finish(self) -> NicSimResult:
        """Account unreported packets and summarise the device after the run.

        The device's duration is its last completion report.
        """
        paths = [path for _, queues in self.directions for path in queues]
        for path in paths:
            path.finish()
        duration = max([0.0] + [path.max_notify for path in paths])
        results = [
            _direction_result(direction, queues, self.sim_config)
            for direction, queues in self.directions
        ]
        return NicSimResult(
            model=self.model.name,
            workload=self.workload.name,
            packets=self.packets,
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
                        (
                            np.asarray(queue.notifies, dtype=np.float64)
                            - np.asarray(queue.arrivals, dtype=np.float64)
                        ).tolist()
                    )
        metrics.gauge(dev + ".link.up_utilisation").set(result.link_utilisation_up)
        metrics.gauge(dev + ".link.down_utilisation").set(
            result.link_utilisation_down
        )


def _path_statistics(
    arrivals: list[float] | np.ndarray,
    dones: list[float] | np.ndarray,
    notifies: list[float] | np.ndarray,
    sizes: list[int] | np.ndarray,
    *,
    ring_depth: int,
) -> tuple[float, float, LatencySummary | None]:
    """Steady-state throughput, packet rate and latency of one packet set.

    Shared by the per-queue and the merged per-direction summaries so both
    apply exactly the same warmup and measurement-window rules.
    """
    delivered = len(dones)
    if delivered < 2:
        return 0.0, 0.0, None
    order = np.argsort(np.asarray(dones), kind="stable")
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
    done_times = np.asarray(dones, dtype=np.float64)[measured]
    measured_sizes = np.asarray(sizes, dtype=np.int64)[measured]
    elapsed = float(done_times[-1] - done_times[0])
    if elapsed > 0.0:
        # The first measured packet marks t0; its own bytes precede it.
        throughput = bytes_over_time_to_gbps(
            int(measured_sizes[1:].sum()), elapsed
        )
        rate = (measured_sizes.size - 1) / ns_to_s(elapsed)
    samples = (
        np.asarray(notifies, dtype=np.float64)
        - np.asarray(arrivals, dtype=np.float64)
    )[measured]
    return throughput, rate, LatencySummary.from_samples(samples)


def _direction_result(
    direction: str, queues: list["_Datapath"], sim_config: NicSimConfig
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
        arrivals = [time for queue in queues for time in queue.arrivals]
        dones = [time for queue in queues for time in queue.dones]
        notifies = [time for queue in queues for time in queue.notifies]
        sizes = [size for queue in queues for size in queue.delivered_sizes]
        throughput, rate, latency = _path_statistics(
            arrivals,
            dones,
            notifies,
            sizes,
            ring_depth=sim_config.ring_depth,
        )
    ring = RingStats(
        depth=sim_config.ring_depth,
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
    """Replays workloads through a NIC/driver model, packet by packet."""

    def __init__(
        self,
        model: NicModel | str,
        sim_config: NicSimConfig | None = None,
    ) -> None:
        self.model = model_by_name(model) if isinstance(model, str) else model
        self.sim_config = sim_config or NicSimConfig()
        #: Per-direction :class:`PathTrace` of the most recent ``run``.
        self.last_traces: dict[str, PathTrace] = {}
        #: Phase timing of the most recent ``run`` (the ``--profile`` hook).
        self.last_profile: EngineProfile | None = None

    def run(
        self,
        workload: Workload,
        packets: int,
        *,
        seed: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        device: str = "nic",
        mode: str = "exact",
    ) -> NicSimResult:
        """Simulate ``packets`` packets per active direction.

        Args:
            workload: the traffic description to replay.
            packets: packets per direction (full duplex runs 2x this).
            seed: RNG seed for the workload draws (defaults to the library
                seed so runs are reproducible).
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
            mode: engine selection — ``"exact"`` (default, the scalar
                event loop every golden is pinned to) or ``"batch"`` (the
                vectorised :mod:`repro.sim.fastpath` solver, falling back
                to the scalar loop whenever an interaction point makes it
                inapplicable).
        """
        if packets <= 0:
            raise ValidationError(f"packets must be positive, got {packets}")
        if mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {mode!r}"
            )
        fallback_reason = None
        if mode == "batch":
            # Lazy import: fastpath imports this module itself, and exact
            # runs (every contended run, and the package-import probe of
            # perfbench's set-up time) never pay to load it.
            from .fastpath import BatchFallback, run_batch

            try:
                return run_batch(
                    self,
                    workload,
                    packets,
                    seed=seed,
                    tracer=tracer,
                    metrics=metrics,
                    device=device,
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
        resolved_seed = DEFAULT_SEED if seed is None else seed
        loop = EventLoop()
        coupling = (
            SharedHost(
                [self.sim_config.host],
                [self.sim_config.ring_depth],
                seed=resolved_seed,
            ).couplings[0]
            if self.sim_config.host is not None
            else None
        )
        nic = _Device(
            device,
            "nicsim",
            self.model,
            self.sim_config,
            loop,
            workload,
            packets,
            seed=resolved_seed,
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
                arrivals_ns=np.asarray(
                    [t for q in queues for t in q.arrivals], dtype=np.float64
                ),
                dones_ns=np.asarray(
                    [t for q in queues for t in q.dones], dtype=np.float64
                ),
                notifies_ns=np.asarray(
                    [t for q in queues for t in q.notifies], dtype=np.float64
                ),
                sizes=np.asarray(
                    [s for q in queues for s in q.delivered_sizes],
                    dtype=np.int64,
                ),
                queue_ids=np.asarray(
                    [q.queue_index for q in queues for _ in q.dones],
                    dtype=np.int64,
                ),
            )
            for direction, queues in nic.directions
        } if self.sim_config.retain_samples else {}
        self.last_profile = EngineProfile(
            label=f"nicsim {self.model.name} {workload.name}",
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
