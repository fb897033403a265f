"""The vectorised batch engine for the NIC datapath simulator.

``mode="batch"`` on :meth:`~repro.sim.nicsim.NicDatapathSimulator.run`
(and ``--mode batch`` on the CLI) escapes per-event interpreter dispatch
through :func:`run_batch`.  When a run has no interaction points (no
host coupling, no bounded DMA tag pool, a single queue pair, and
descriptor rings that never fill), every transaction instance of the
whole run can be laid out as numpy columns and the two link directions
solved by waveform relaxation: each sweep computes every instance's
*request* time from the previous sweep's link schedule, re-serves each
link FIFO-in-request-order with a max-plus scan, and repeats until the
schedule reaches a fixed point.  Per-stage latencies are computed
column-wise and scattered back into the sketch/stats layer in one call.
The moment any coupling condition triggers (or the relaxation fails to
converge) :class:`BatchFallback` is raised and the caller falls back to
the scalar event loop.

Equivalence contract: on runs whose relaxation converges (everything
short of sustained saturation) the batch schedule is **bit-identical**
to the scalar event loop — the link solve replays the scalar float
association and serves ties in event order.  Saturated runs stop at the
sweep cap instead of iterating to the fixed point and are *statistically
equivalent*: throughput within 1%, p50 within 3%, p99 within 8%
(asserted by ``tests/property/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..core.transactions import OpKind
from ..errors import ValidationError
from .engine import EngineProfile

if TYPE_CHECKING:  # pragma: no cover
    from .nicsim import NicDatapathSimulator, NicSimResult
    from ..workloads import Workload

#: Outer waveform-relaxation sweep cap.  Interaction-free runs reach
#: their fixed point in a handful of sweeps (the per-packet dependency
#: chain is ~8 link visits) — those are the bit-identical runs.  Under
#: sustained congestion the service-order frontier only advances a burst
#: or so per sweep (one gate-batch generation per sweep is the inherent
#: information-propagation speed of waveform relaxation), so iterating a
#: saturated run to its fixed point costs more than the scalar loop.
#: The solver instead stops here and keeps the causally-clamped
#: approximate schedule.  The fixed point itself is *exact* (raising
#: this cap until convergence reproduces the scalar run bit for bit —
#: pinned by the equivalence suite), so this constant is a pure
#: speed/accuracy dial: runs that converge within the cap are exact;
#: runs that exhaust it carry the documented saturated-regime tolerance
#: (throughput <=1%, p50 <=3%, p99 <=8% — asserted by the equivalence
#: suite).
MAX_RELAXATION_SWEEPS = 6

#: Inner elementwise polish sweeps per link solve: the max-plus scan is
#: exact up to float reassociation, and each polish sweep replays the
#: scalar recurrence ``start = max(req, free_prev); free = start + dur``
#: so queue chains up to this depth settle to the bit-exact scalar
#: values.  Intermediate relaxation sweeps only need approximate starts
#: to propagate (their requests move again next sweep anyway), so they
#: run a short polish; the two *final* rounds after the relaxation loop
#: re-serve the settled schedule with the deep budget, pinning busy
#: chains up to that depth to the scalar float association.
_POLISH_SWEEPS = 4
_POLISH_FINAL = 128

#: Caps on the final deep-polish rounds (they early-exit as soon as the
#: served starts stop moving).  Converged runs get the full budget —
#: they settle in 2-3 rounds and come out bit-identical; cap-exhausted
#: (saturated) runs get two rounds, which the tolerance calibration
#: below is measured against.
_FINAL_ROUNDS = 6
_SATURATED_ROUNDS = 2

#: Tie-rank stride: ``trigger_packet * stride + op_position`` orders
#: same-instant link requests the way the event loop does (packet-major,
#: then walk order).  Compiled op chains are far shorter than this.
_RANK_STRIDE = 64

#: Tie ranks come in two tiers mirroring the event loop's fed-before-
#: dynamic rule.  Tier 0 is an occupy issued directly by an arrival-fed
#: walk (request == the trigger packet's arrival): the pre-fed arrival
#: events run first at a tied timestamp, in feed order — direction, then
#: packet, then walk position.  Tier 1 is everything dynamic (gate-fire
#: released walks, read completions, trailing ops): those resume
#: packet-major — packet, then walk position, then direction.  Tier-1
#: keys are offset past every tier-0 key.
_TIER1_BASE = 1 << 40


class BatchFallback(Exception):
    """The batch engine cannot honour this run; use the scalar path.

    Raised for *eligibility* reasons (host coupling, bounded tags,
    multiple queues, fractional batch factors) before any work happens,
    and for *dynamic* reasons (ring backpressure/drops, non-convergence)
    after the solve — both mean the scalar event loop is authoritative.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# The vectorised link model
# ---------------------------------------------------------------------------


class _Link:
    """One serialised link direction, solved as columns.

    Mirrors :class:`~repro.sim.engine.SerialResource` semantics — FIFO in
    request order, ``start = max(request, free_at)`` — over every
    transaction instance of the run at once.  Segments register their
    per-instance durations up front (fixed); each relaxation sweep fills
    the request column and :meth:`solve` re-serves the link.  The sort
    order is cached and only recomputed when a sweep actually reorders
    requests, which stops happening once the schedule stabilises.

    **Ties.**  The scalar grant order is the ``occupy`` *call* order, and
    every call happens inside an event scheduled exactly at its request
    time — so ties at equal request times resolve by the event loop's
    order at that instant: pre-fed arrival events first (in feed order —
    direction, then packet, then walk position), then dynamic events
    (gate-fire released batches, read completions) packet-major.  Each
    registration therefore carries *two* rank columns — a tier-0 key for
    arrival-fed requests and a tier-1 key for derived ones — and each
    sweep picks per entry (``_Seg.set_req``) whichever tier the entry's
    request fell into.  The link serves by ``lexsort((key, req))``.
    """

    __slots__ = (
        "name",
        "_dur_parts",
        "_rank0_parts",
        "_rank1_parts",
        "_offsets",
        "dur",
        "rank0",
        "rank1",
        "key",
        "req",
        "start",
        "moved",
        "_order",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._dur_parts: list = []
        self._rank0_parts: list = []
        self._rank1_parts: list = []
        self._offsets = [0]
        self.dur = None
        self.rank0 = None
        self.rank1 = None
        self.key = None
        self.req = None
        self.start = None
        self.moved = 0
        self._order = None

    def register(self, durations, rank0, rank1) -> tuple[int, int]:
        """Reserve a slot range; returns its ``(lo, hi)`` bounds."""
        lo = self._offsets[-1]
        self._dur_parts.append(np.asarray(durations, dtype=np.float64))
        self._rank0_parts.append(np.asarray(rank0, dtype=np.int64))
        self._rank1_parts.append(np.asarray(rank1, dtype=np.int64))
        hi = lo + self._dur_parts[-1].size
        self._offsets.append(hi)
        return lo, hi

    def finalize(self) -> None:
        total = self._offsets[-1]
        self.dur = (
            np.concatenate(self._dur_parts)
            if self._dur_parts
            else np.empty(0, dtype=np.float64)
        )
        self.rank0 = (
            np.concatenate(self._rank0_parts)
            if self._rank0_parts
            else np.empty(0, dtype=np.int64)
        )
        self.rank1 = (
            np.concatenate(self._rank1_parts)
            if self._rank1_parts
            else np.empty(0, dtype=np.int64)
        )
        self.key = self.rank1.copy()
        self.req = np.zeros(total, dtype=np.float64)

    def solve(self, polish: int = _POLISH_SWEEPS) -> bool:
        """Serve every request FIFO-in-time-order; True when starts moved."""
        n = self.req.size
        if n == 0:
            return False
        order = self._order
        if order is not None:
            r = self.req[order]
            k = self.key[order]
            if not np.all(
                (r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (k[1:] >= k[:-1]))
            ):
                order = None
        if order is None:
            order = np.lexsort((self.key, self.req))
            self._order = order
            r = self.req[order]
        d = self.dur[order]
        # Max-plus scan: free_k = c_k + max_{j<=k}(req_j - c_{j-1}).
        c = np.add.accumulate(d)
        free = c + np.maximum.accumulate(r - (c - d))
        shifted = np.empty_like(free)
        start = None
        for _ in range(polish):
            shifted[0] = 0.0
            shifted[1:] = free[:-1]
            new_start = np.maximum(r, shifted)
            new_free = new_start + d
            if start is not None and np.array_equal(new_start, start):
                break
            start = new_start
            free = new_free
        starts = np.empty_like(free)
        starts[order] = start
        if self.start is None:
            self.moved = n
        else:
            self.moved = int(np.count_nonzero(starts != self.start))
        changed = self.moved > 0
        self.start = starts
        return changed

    def busy_time(self) -> float:
        """Total service time, accumulated in final service order."""
        if self.dur.size == 0:
            return 0.0
        ordered = self.dur[self._order] if self._order is not None else self.dur
        return float(np.add.accumulate(ordered)[-1])


class _Seg:
    """One segment of a link's columns (one occupy phase of one op)."""

    __slots__ = ("link", "lo", "hi", "_bootstrap")

    def __init__(self, link: _Link, durations, rank0, rank1) -> None:
        self.link = link
        self.lo, self.hi = link.register(durations, rank0, rank1)
        self._bootstrap = None

    def set_req(self, values, fed=None) -> None:
        """Post this segment's requests for the coming solve.

        ``fed`` marks the entries whose request coincides with their
        trigger packet's arrival — those are served with the tier-0
        (feed-order) tie key; everything else keeps the tier-1
        (packet-major dynamic) key.  Segments that can never be
        arrival-fed (completion legs, trailing ops) omit it.
        """
        lo, hi = self.lo, self.hi
        link = self.link
        link.req[lo:hi] = values
        if fed is not None:
            link.key[lo:hi] = np.where(
                fed, link.rank0[lo:hi], link.rank1[lo:hi]
            )
        self._bootstrap = values

    def start(self, bootstrap: bool):
        if bootstrap:
            return self._bootstrap
        # Clamp against the request set *this* sweep: the link schedule
        # lags the requests by one sweep, and on the (tolerance-regime)
        # runs that stop before the fixed point an un-clamped stale start
        # could precede its own request and break causality.  At the
        # fixed point ``start >= req`` holds anyway, so the clamp is a
        # no-op on every bit-identical run.
        return np.maximum(self.link.start[self.lo : self.hi], self._bootstrap)


class _OpCols:
    """Column view of every instance of one transaction of one direction."""

    __slots__ = (
        "label",
        "kind",
        "batch",
        "trig",
        "pmap",
        "up",
        "down",
        "seg_up",
        "seg_down",
        "is_notify",
        "completions",
        "first_req",
    )

    def __init__(self, label: str, kind: OpKind, batch: int) -> None:
        self.label = label
        self.kind = kind
        self.batch = batch
        self.trig = None
        self.pmap = None
        self.up = None
        self.down = None
        self.seg_up = None
        self.seg_down = None
        self.is_notify = False
        self.completions = None
        self.first_req = 0.0


def _integral_batch(op, direction: str) -> int:
    batch = op.per_packets
    if batch < 1.0 or batch != int(batch):
        raise BatchFallback(
            f"{direction} op {op.label!r} has fractional batch factor "
            f"{batch:g}; the batch engine needs integral batches"
        )
    return int(batch)


class _DirSolver:
    """Per-direction column state: gates, payload, trailing, ring."""

    def __init__(
        self,
        direction: str,
        path,
        arrivals,
        sizes,
        link_up: _Link,
        link_down: _Link,
        sim_config,
        packets: int,
    ) -> None:
        self.direction = direction
        # Feed order of same-time arrival events across directions: the
        # run feeds the tx stream before rx, so tx wins tier-0 ties.
        self.dir_index = 0 if direction == "tx" else 1
        self.path = path
        self.packets = packets
        # The event loop processes arrivals in (time, feed-order) order;
        # packet indices below follow that order so gate triggers, batch
        # boundaries and record order all match the scalar walk.
        order = np.argsort(np.asarray(arrivals, dtype=np.float64), kind="stable")
        self.arrivals = np.asarray(arrivals, dtype=np.float64)[order]
        self.sizes = np.asarray(sizes, dtype=np.int64)[order]
        from .nicsim import HOST_READ_LATENCY_NS, MMIO_READ_LATENCY_NS

        self.hrl = HOST_READ_LATENCY_NS
        self.mmio = MMIO_READ_LATENCY_NS
        self.ring_depth = sim_config.ring_depth
        p = self.arrivals.size

        reference = path._ops_for(_reference_packet())
        payload_idx = path._payload_idx
        self.notify_idx = path._notify_idx

        # Per-packet payload serialisation times, gathered per unique size
        # through the datapath's own compiled sequences so every float is
        # the exact value the scalar path would use.  Non-payload ops must
        # not vary with packet size — the gate walk uses the *trigger*
        # packet's compiled sequence, which the column layout cannot.
        uniq, inverse = np.unique(self.sizes, return_inverse=True)
        pay_up = np.empty(uniq.size, dtype=np.float64)
        pay_down = np.empty(uniq.size, dtype=np.float64)
        for u, size in enumerate(uniq.tolist()):
            ops = path._ops_for(int(size))
            pay_up[u] = ops[payload_idx].up_ns
            pay_down[u] = ops[payload_idx].down_ns
            for index, op in enumerate(ops):
                if index == payload_idx:
                    continue
                ref = reference[index]
                if op.up_ns != ref.up_ns or op.down_ns != ref.down_ns:
                    raise BatchFallback(
                        f"{direction} op {op.label!r} varies with packet "
                        "size; the batch engine amortises it as constant"
                    )
        self.pay_up = pay_up[inverse]
        self.pay_down = pay_down[inverse]

        payload_op = reference[payload_idx]
        if payload_op.per_packets != 1.0:
            raise BatchFallback(
                f"{direction} payload {payload_op.label!r} is batched "
                f"({payload_op.per_packets:g} packets); expected per-packet"
            )

        self.gates: list[_OpCols] = []
        for index in range(payload_idx):
            op = reference[index]
            batch = _integral_batch(op, direction)
            col = _OpCols(op.label, op.kind, batch)
            n = -(-p // batch)
            col.trig = np.arange(n, dtype=np.int64) * batch
            col.pmap = np.arange(p, dtype=np.int64) // batch
            col.up = np.full(n, op.up_ns)
            col.down = np.full(n, op.down_ns)
            self._register(col, link_up, link_down, col.trig, index)
            self.gates.append(col)

        self.payload = _OpCols(payload_op.label, payload_op.kind, 1)
        self.payload.up = self.pay_up
        self.payload.down = self.pay_down
        self._register(
            self.payload,
            link_up,
            link_down,
            np.arange(p, dtype=np.int64),
            payload_idx,
        )

        self.trailing: list[_OpCols] = []
        for index in range(payload_idx + 1, len(reference)):
            op = reference[index]
            batch = _integral_batch(op, direction)
            col = _OpCols(op.label, op.kind, batch)
            n = p // batch
            col.trig = (np.arange(n, dtype=np.int64) + 1) * batch - 1
            col.up = np.full(n, op.up_ns)
            col.down = np.full(n, op.down_ns)
            col.is_notify = index == self.notify_idx
            self._register(col, link_up, link_down, col.trig, index)
            self.trailing.append(col)

        self.dones = None
        self.notifies = None
        self.release_times = np.empty(0, dtype=np.float64)
        self.release_count = 0

    def _register(
        self,
        col: _OpCols,
        link_up: _Link,
        link_down: _Link,
        trigger,
        op_index: int,
    ) -> None:
        """Claim link columns in the order the scalar chain visits them.

        ``trigger * stride + op_index`` orders an instance against its
        peers; the two tie keys wrap it per the fed/dynamic split: the
        tier-0 key leads with the direction (same-time arrivals are fed
        tx first), the tier-1 key leads with the packet (a gate fire
        resumes blocked packets lowest index first, each visiting its
        ops in walk order).  A second leg (DMA-read completion,
        MMIO-read response) shares its instance's keys — its completion
        events were enqueued in that same walk order.
        """
        sub = trigger * _RANK_STRIDE + op_index
        rank0 = (self.dir_index << 32) + sub
        rank1 = _TIER1_BASE + (sub << 1) + self.dir_index
        kind = col.kind
        if kind is OpKind.DMA_READ:
            col.seg_up = _Seg(link_up, col.up, rank0, rank1)
            col.seg_down = _Seg(link_down, col.down, rank0, rank1)
        elif kind is OpKind.DMA_WRITE:
            col.seg_up = _Seg(link_up, col.up, rank0, rank1)
        elif kind is OpKind.MMIO_WRITE:
            col.seg_down = _Seg(link_down, col.down, rank0, rank1)
        else:  # MMIO_READ: request downstream, completion upstream
            col.seg_down = _Seg(link_down, col.down, rank0, rank1)
            col.seg_up = _Seg(link_up, col.up, rank0, rank1)

    def _advance_op(self, col: _OpCols, req, bootstrap: bool, fed=None):
        """Post one op's requests; returns its completion/fire column.

        Each arithmetic step keeps the scalar association order
        (``(start + up) + latency``) so uncongested runs stay
        bit-identical.  ``fed`` (arrival-fed tie tier, see
        :meth:`_Seg.set_req`) applies to the request leg only — the
        completion leg always fires from a dynamically scheduled event.
        """
        col.first_req = float(req[0]) if req.size else 0.0
        kind = col.kind
        if kind is OpKind.DMA_READ:
            col.seg_up.set_req(req, fed)
            up_start = col.seg_up.start(bootstrap)
            col.seg_down.set_req((up_start + col.up) + self.hrl)
            done = col.seg_down.start(bootstrap) + col.down
        elif kind is OpKind.DMA_WRITE:
            col.seg_up.set_req(req, fed)
            done = col.seg_up.start(bootstrap) + col.up
        elif kind is OpKind.MMIO_WRITE:
            col.seg_down.set_req(req, fed)
            done = col.seg_down.start(bootstrap) + col.down
        else:  # MMIO_READ
            col.seg_down.set_req(req, fed)
            down_start = col.seg_down.start(bootstrap)
            col.seg_up.set_req((down_start + col.down) + self.mmio)
            done = col.seg_up.start(bootstrap) + col.up
        col.completions = done
        return done

    def forward(self, bootstrap: bool = False) -> None:
        """One relaxation sweep: recompute every request time.

        The gate walk is the column form of ``_Datapath._step``: packet
        ``p`` waits instance ``p // B_i`` of gate ``i``, and instance
        ``m`` issues at the walk time of packet ``m * B_i`` — i.e. the
        running ``max`` of the post time and the fires of earlier gates.
        """
        w = self.arrivals
        for col in self.gates:
            req = w[col.trig]
            fed = req == self.arrivals[col.trig]
            fire = self._advance_op(col, req, bootstrap, fed)
            w = np.maximum(w, fire[col.pmap])
        done = self._advance_op(self.payload, w, bootstrap, w == self.arrivals)
        self.dones = done
        report = None
        for col in self.trailing:
            if col.trig.size == 0:
                continue
            completion = self._advance_op(col, done[col.trig], bootstrap)
            if col.is_notify:
                report = completion
        if self.notify_idx is None:
            # No completion report: the driver learns at payload done and
            # every packet frees its ring entry individually.
            self.notifies = done
            self.release_times = done
            self.release_count = 1
        elif report is not None:
            notify_col = next(col for col in self.trailing if col.is_notify)
            covered = notify_col.trig.size * notify_col.batch
            notifies = done.copy()
            notifies[:covered] = np.maximum(
                done[:covered], np.repeat(report, notify_col.batch)
            )
            self.notifies = notifies
            self.release_times = report
            self.release_count = notify_col.batch
        else:
            # The run ended before the first report batch filled; every
            # packet is recorded by ``finish`` with notify = done.
            self.notifies = done
            self.release_times = np.empty(0, dtype=np.float64)
            self.release_count = 0

    # -- ring accounting --------------------------------------------------------

    def ring_stats(self):
        """Replay the ring occupancy sweep; fall back if it ever fills.

        Admits (+1 at each arrival) and completion-report releases (−B)
        merge in event order with arrivals first on ties — the fed-
        before-dynamic rule of the event loop.  The occupancy integral
        accumulates term-by-term in that order, matching the scalar
        ``_advance`` float-for-float.
        """
        from .nicsim import RingStats

        p = self.arrivals.size
        releases = self.release_times
        times = np.concatenate((self.arrivals, releases))
        deltas = np.concatenate(
            (
                np.ones(p, dtype=np.int64),
                np.full(releases.size, -self.release_count, dtype=np.int64),
            )
        )
        kinds = np.concatenate(
            (np.zeros(p, dtype=np.int64), np.ones(releases.size, dtype=np.int64))
        )
        order = np.lexsort((kinds, times))
        occ = np.add.accumulate(deltas[order])
        peak = int(occ.max())
        if peak > self.ring_depth:
            raise BatchFallback(
                f"{self.direction} ring would exceed depth "
                f"{self.ring_depth} (peak {peak}); backpressure/drops "
                "need the scalar event loop"
            )
        admit_mask = kinds[order] == 0
        max_occupancy = int(occ[admit_mask].max())
        t_sorted = times[order]
        if t_sorted.size > 1:
            integral = float(
                np.add.accumulate(occ[:-1] * np.diff(t_sorted))[-1]
            )
            elapsed = float(t_sorted[-1] - t_sorted[0])
        else:
            integral = 0.0
            elapsed = 0.0
        return RingStats(
            depth=self.ring_depth,
            posts=p,
            drops=0,
            max_occupancy=max_occupancy,
            mean_occupancy=integral / elapsed if elapsed > 0 else 0.0,
        )

    # -- results ----------------------------------------------------------------

    def path_result(self, sim_config):
        from .nicsim import (
            PathResult,
            _path_statistics,
            _streaming_warmup_threshold,
            _StreamStats,
        )

        ring = self.ring_stats()
        p = self.arrivals.size
        if sim_config.retain_samples:
            throughput, rate, latency = _path_statistics(
                self.arrivals,
                self.dones,
                self.notifies,
                self.sizes,
                ring_depth=sim_config.ring_depth,
            )
        else:
            stream = _StreamStats()
            threshold = _streaming_warmup_threshold(
                self.packets,
                ring_depth=sim_config.ring_depth,
            )
            if p > threshold:
                latencies = (self.notifies - self.arrivals)[threshold:]
                stream.sketch.add_array(latencies)
                stream.count = p - threshold
                stream.payload_bytes = int(self.sizes[threshold:].sum())
                measured_dones = self.dones[threshold:]
                first = int(np.argmin(measured_dones))
                stream.first_done = float(measured_dones[first])
                stream.first_size = int(self.sizes[threshold + first])
                stream.last_done = float(measured_dones.max())
            throughput, rate, latency = stream.statistics()
        return PathResult(
            direction=self.direction,
            offered_packets=p,
            delivered_packets=p,
            drops=0,
            in_flight=0,
            payload_bytes=int(self.sizes.sum()),
            offered_bytes=int(self.sizes.sum()),
            dropped_bytes=0,
            throughput_gbps=throughput,
            packet_rate_pps=rate,
            latency=latency,
            ring=ring,
        )


def _reference_packet() -> int:
    from .nicsim import _REFERENCE_PACKET

    return _REFERENCE_PACKET


# ---------------------------------------------------------------------------
# The batch engine driver
# ---------------------------------------------------------------------------


def run_batch(
    simulator: "NicDatapathSimulator",
    workload: "Workload",
    packets: int,
    *,
    seed: int | None = None,
    tracer=None,
    metrics=None,
    device: str = "nic",
) -> "NicSimResult":
    """Run one workload through the vectorised batch engine.

    Mirrors :meth:`NicDatapathSimulator.run` end to end — same RNG
    stream, same result/record shapes, same ``last_traces`` /
    ``last_profile`` side channels — but advances all packets as columns.
    Raises :class:`BatchFallback` whenever the scalar loop is needed.

    Observability differences (documented, not silent): span tracing
    emits *aggregate* per-op spans (``batch:<op>``, packet id −1) rather
    than per-packet lifecycle stages, and a metrics registry receives
    end-of-run totals with a single sample row instead of the scalar
    path's window-sampled series.
    """
    from .engine import EventLoop, SerialResource
    from .nicsim import (
        NicSimResult,
        PathTrace,
        _COUNTER_MEASURES,
        _Datapath,
        _WarmupGate,
    )
    from .rng import DEFAULT_SEED, SimRng
    from ..obs.metrics import metric_segment
    from ..obs.trace import BATCH_PREFIX

    if packets <= 0:
        raise ValidationError(f"packets must be positive, got {packets}")
    sim_config = simulator.sim_config
    if sim_config.host is not None:
        raise BatchFallback("host coupling is an interaction point")
    if sim_config.dma_tags is not None:
        raise BatchFallback("a bounded DMA tag pool is an interaction point")
    if sim_config.num_queues != 1:
        raise BatchFallback("multi-queue arbitration is an interaction point")

    wall_start = perf_counter()
    resolved_seed = DEFAULT_SEED if seed is None else seed
    rng = SimRng(resolved_seed)
    link_up = _Link("nicsim.device_to_host")
    link_down = _Link("nicsim.host_to_device")

    solvers: list[_DirSolver] = []
    for direction in ("tx", "rx") if workload.duplex else ("tx",):
        # The throwaway scalar datapath performs sequence compilation and
        # the ring-depth/notify validation exactly as the event loop
        # would, so the batch path inherits both bit-for-bit.
        path = _Datapath(
            direction,
            simulator.model,
            sim_config,
            EventLoop(),
            SerialResource("fastpath.compile.up"),
            SerialResource("fastpath.compile.down"),
            warmup_gate=None if sim_config.retain_samples else _WarmupGate(0),
            device=device,
        )
        schedule = workload.generate(packets, rng, stream=direction)
        solvers.append(
            _DirSolver(
                direction,
                path,
                schedule.arrival_times_ns,
                schedule.sizes,
                link_up,
                link_down,
                sim_config,
                packets,
            )
        )
    link_up.finalize()
    link_down.finalize()

    solve_start = perf_counter()
    for solver in solvers:
        solver.forward(bootstrap=True)
    converged = False
    for sweep in range(MAX_RELAXATION_SWEEPS):
        changed = link_up.solve()
        changed = link_down.solve() or changed
        if not changed and sweep > 0:
            # Fixed point: the schedule is self-consistent, and on runs
            # with no service-order ambiguity it is bit-identical to the
            # scalar event loop.
            converged = True
            break
        for solver in solvers:
            solver.forward()
    # Final deep-polish rounds re-serve the settled schedule with the
    # full per-chain float-association budget (intermediate sweeps run
    # a truncated polish for speed) and propagate it until the starts
    # stop moving.  On a converged run these rounds are idempotent once
    # the association correction lands, which is what makes such runs
    # bit-identical to the scalar loop.  Exhausting the outer cap
    # instead is the congested (tolerance) regime: the rounds there are
    # effectively two more relaxation sweeps (a deep polish never
    # stabilises a saturated schedule, it only costs wall time), the
    # last forward pass recomputes every completion from the final link
    # schedule, and the per-segment causal clamp keeps the
    # approximation feasible (no completion precedes its own request
    # chain).
    # A run that exhausted the cap with only a small tail of starts
    # still moving is *near*-converged (a handful of service chains
    # settling, not a saturated frontier) — give it the full budget, it
    # usually lands on the exact fixed point.
    moving = link_up.moved + link_down.moved
    near = converged or moving * 4 <= link_up.req.size + link_down.req.size
    for _ in range(_FINAL_ROUNDS if near else _SATURATED_ROUNDS):
        changed = link_up.solve(_POLISH_FINAL)
        changed = link_down.solve(_POLISH_FINAL) or changed
        if not changed:
            break
        for solver in solvers:
            solver.forward()
    stats_start = perf_counter()

    results = [solver.path_result(sim_config) for solver in solvers]
    duration = max(float(solver.notifies.max()) for solver in solvers)
    events = int(link_up.req.size + link_down.req.size)

    simulator.last_traces = {
        solver.direction: PathTrace(
            direction=solver.direction,
            arrivals_ns=solver.arrivals,
            dones_ns=solver.dones,
            notifies_ns=solver.notifies,
            sizes=solver.sizes,
            queue_ids=np.zeros(solver.arrivals.size, dtype=np.int64),
        )
        for solver in solvers
    } if sim_config.retain_samples else {}

    if tracer is not None:
        for solver in solvers:
            lane = solver.direction
            for col in [*solver.gates, solver.payload, *solver.trailing]:
                if col.completions is None or col.completions.size == 0:
                    continue
                end = float(col.completions.max())
                tracer.record(
                    device,
                    lane,
                    -1,
                    BATCH_PREFIX + col.label,
                    col.first_req,
                    end - col.first_req,
                )
            first_arrival = float(solver.arrivals[0])
            tracer.record(
                device,
                lane,
                -1,
                BATCH_PREFIX + "packets",
                first_arrival,
                float(solver.notifies.max()) - first_arrival,
            )

    up_busy = link_up.busy_time()
    down_busy = link_down.busy_time()
    if metrics is not None:
        dev = metric_segment(device)
        for solver, result in zip(solvers, results):
            base = f"nicsim.{dev}.{solver.direction}"
            for measure, _attribute in _COUNTER_MEASURES:
                counter = metrics.counter(f"{base}.{measure}")
                total = {
                    "offered_packets": result.offered_packets,
                    "delivered_packets": result.delivered_packets,
                    "delivered_bytes": result.payload_bytes,
                    "dropped_bytes": result.dropped_bytes,
                }[measure]
                counter.add(total - counter.value)
            metrics.counter(base + ".drops")
            metrics.histogram(base + ".latency_ns").observe_many(
                (solver.notifies - solver.arrivals).tolist()
            )
        metrics.sample(duration)
        metrics.gauge(f"nicsim.{dev}.link.up_utilisation").set(
            min(1.0, up_busy / duration) if duration > 0 else 0.0
        )
        metrics.gauge(f"nicsim.{dev}.link.down_utilisation").set(
            min(1.0, down_busy / duration) if duration > 0 else 0.0
        )

    stats_end = perf_counter()
    simulator.last_profile = EngineProfile(
        label=f"nicsim {simulator.model.name} {workload.name}",
        build_s=solve_start - wall_start,
        events_s=stats_start - solve_start,
        stats_s=stats_end - stats_start,
        events=events,
        mode="batch",
        solve_s=stats_start - solve_start,
    )
    return NicSimResult(
        model=simulator.model.name,
        workload=workload.name,
        packets=packets,
        duration_ns=duration,
        tx=results[0],
        rx=results[1] if len(results) > 1 else None,
        link_utilisation_up=(
            min(1.0, up_busy / duration) if duration > 0 else 0.0
        ),
        link_utilisation_down=(
            min(1.0, down_busy / duration) if duration > 0 else 0.0
        ),
        metrics=metrics.as_dict() if metrics is not None else None,
    )


__all__ = ["BatchFallback", "run_batch"]
