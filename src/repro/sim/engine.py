"""Small building blocks for the transaction-level simulation.

The DMA-engine simulation in :mod:`repro.sim.dma` is a pipelined,
cursor-based discrete-event model rather than a general event-queue
simulator: transactions are generated in issue order and the only shared
resources are serial ones (each link direction, the IOMMU page walker, the
root-complex ingress pipeline) plus a bounded pool of in-flight DMA slots.
These two primitives — :class:`SerialResource` and :class:`WorkerPool` —
capture exactly that and keep the hot loop simple and fast.

Two event-driven variants complete the set for the NIC datapath event loop
in :mod:`repro.sim.nicsim`: :class:`TagPool` (bounded in-flight DMA tags
granted through callbacks) and :class:`ArbitratedResource`, a serial
resource shared by several *clients* (devices behind one PCIe switch or
root port) whose pending requests are queued per client and dispatched by
an arbitration scheme — first-come-first-served, round-robin, weighted,
weighted-aging or preemptively sliced — instead of the implicit call-order
FIFO of :class:`SerialResource`.  :mod:`repro.sim.topology` composes these
per-port arbiters into switch trees.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import SimulationError, ValidationError, record_reader


#: The engine selection knob shared by the simulators, the bench params
#: and the CLI: ``exact`` is the scalar event loop (the default, golden-
#: verified path) and ``batch`` the vectorised solver in
#: :mod:`repro.sim.fastpath`, which falls back to ``exact`` on any run it
#: cannot vectorise.
MODES: tuple[str, ...] = ("exact", "batch")


@dataclass(frozen=True, slots=True)
class EngineProfile:
    """Wall-clock phase breakdown of one event-driven simulation run.

    Filled by the simulators' ``--profile`` hook: ``build_s`` covers
    workload generation and datapath construction, ``events_s`` is the
    event loop drain (the phase the scheduler and the datapath walk
    spend their time in), and ``stats_s`` the statistics summarisation.
    ``events`` is the number of events the loop dispatched, so
    ``events / events_s`` is the engine's raw events-per-second
    throughput.

    ``mode`` names the engine that produced the run (``exact`` scalar
    event loop or ``batch`` vectorised solver) and ``solve_s`` is the
    vectorised solve time inside ``events_s`` (zero for the scalar
    engine), so per-mode phase timings stay comparable in one record
    shape.  ``fallback_reason`` says why a run that asked for ``batch``
    ran ``exact``; it is ``None`` whenever the requested engine ran.
    """

    label: str
    build_s: float
    events_s: float
    stats_s: float
    events: int
    mode: str = "exact"
    solve_s: float = 0.0
    fallback_reason: str | None = None

    @property
    def total_s(self) -> float:
        """End-to-end wall time of the run."""
        return self.build_s + self.events_s + self.stats_s

    @property
    def events_per_sec(self) -> float:
        """Events dispatched per wall-second of the event phase."""
        return self.events / self.events_s if self.events_s > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation (the perf-smoke record shape).

        ``fallback_reason`` appears only when set, so the records of runs
        that ran the engine they asked for keep their shape.
        """
        record: dict[str, object] = {
            "label": self.label,
            "build_s": self.build_s,
            "events_s": self.events_s,
            "stats_s": self.stats_s,
            "total_s": self.total_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "mode": self.mode,
            "solve_s": self.solve_s,
        }
        if self.fallback_reason is not None:
            record["fallback_reason"] = self.fallback_reason
        return record

    @classmethod
    @record_reader
    def from_dict(cls, data: dict) -> "EngineProfile":
        """Rebuild a profile from :meth:`as_dict` output.

        The derived keys (``total_s``, ``events_per_sec``) are ignored;
        they are properties recomputed from the stored phases.
        """
        return cls(
            label=str(data["label"]),
            build_s=float(data["build_s"]),
            events_s=float(data["events_s"]),
            stats_s=float(data["stats_s"]),
            events=int(data["events"]),
            mode=str(data.get("mode", "exact")),
            solve_s=float(data.get("solve_s", 0.0)),
            fallback_reason=(
                None
                if data.get("fallback_reason") is None
                else str(data["fallback_reason"])
            ),
        )

    def format(self) -> str:
        """Human-readable one-block summary for the CLI."""
        solve = (
            f", solve {self.solve_s * 1e3:.1f} ms" if self.solve_s > 0 else ""
        )
        fallback = (
            f"; batch fell back: {self.fallback_reason}"
            if self.fallback_reason is not None
            else ""
        )
        return (
            f"[profile] {self.label} [{self.mode}]: {self.events} events in "
            f"{self.events_s * 1e3:.1f} ms "
            f"({self.events_per_sec:,.0f} events/s); "
            f"build {self.build_s * 1e3:.1f} ms{solve}, "
            f"stats {self.stats_s * 1e3:.1f} ms, "
            f"total {self.total_s * 1e3:.1f} ms{fallback}"
        )


#: A fed arrival's handler, called ``handler(time, arg)``.
_Handler = Callable[[float, object], None]


def _objects(column: Sequence[object]) -> np.ndarray:
    """``column`` as a 1-D object array, numpy numbers as Python ones.

    ``fromiter`` keeps a list's elements as they are without the nested
    sequence probing ``np.array`` does; an ndarray column converts in C.
    """
    if isinstance(column, np.ndarray):
        return column.astype(object)
    return np.fromiter(column, dtype=object, count=len(column))


class EventLoop:
    """The shared discrete-event scheduler: one binary heap and one feed.

    Events are ``(time, sequence, fn)`` records popped in time order with
    FIFO tie-break on the insertion sequence — the determinism contract
    every simulator in this package (and every seeded golden) rests on.
    Two ingestion paths, by event shape:

    * :meth:`at` — dynamic events scheduled while the loop runs, pushed
      on the heap.
    * :meth:`feed` — the pre-generated workload arrivals, one column of
      times and one of arguments per source.  A run begins with every
      arrival already known and nearly sorted, so the arrivals never
      enter the heap: :meth:`run` merges every source fed since the last
      run into three parallel lists (times, handlers, arguments), stably
      sorted on time over the sources in feed order, and walks them with
      a pointer.  That beats paying per-event scheduling for half of all
      events, and keeps the heap small.  Arrivals are fed before
      :meth:`run`; a running loop refuses them.

    ``peek_time`` exposes the earliest pending event.
    :class:`ArbitratedResource` grants read the same state directly, and
    claim a wake-up's insertion sequence before scheduling it, so they
    can service back-to-back grants without a scheduler round trip per
    grant.
    """

    __slots__ = (
        "_heap",
        "_sequence",
        "_fed",
        "_times",
        "_handlers",
        "_args",
        "_position",
        "processed",
        "running",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._sequence = 0
        #: Sources fed since the last merge: (times, handlers, args) columns.
        self._fed: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: The merged arrivals, dispatched ``handler(time, arg)`` from
        #: ``_position`` on.
        self._times: list[float] = []
        self._handlers: list[_Handler] = []
        self._args: list[object] = []
        self._position = 0
        #: Events dispatched by :meth:`run` (the profiling hook's counter).
        self.processed = 0
        #: True while :meth:`run` is draining.  Arbitrated resources
        #: check this: outside the loop, a "nothing happens before t"
        #: conclusion drawn from the pending events would be unsound,
        #: because the caller may still schedule arbitrary events before
        #: calling run.
        self.running = False

    def at(self, time: float, fn: Callable[[float], None]) -> None:
        """Schedule ``fn(time)``; same-time events run in call order."""
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, fn))

    def feed(
        self,
        times: Sequence[float],
        handler: _Handler | Sequence[_Handler],
        args: Sequence[object],
    ) -> None:
        """Pre-load one source of externally generated events.

        Entry ``i`` dispatches ``handler(times[i], args[i])`` — or
        ``handler[i](times[i], args[i])`` when ``handler`` is a sequence of
        one callable per entry — with the time as a float.  ``times`` and
        ``args`` are sequences of equal length.

        Must be called before :meth:`run`: a running loop raises
        :class:`ValidationError`.  The next run merges every source fed
        since the last one, stably sorted on time over the sources in feed
        order, so same-time entries keep feed order within and across
        sources, and all of them precede any dynamic event at the same
        timestamp — the exact order a heap gives arrivals scheduled before
        the loop starts.
        """
        if self.running:
            raise ValidationError(
                "arrivals must be fed before the event loop runs"
            )
        times = np.array(times, dtype=np.float64)
        count = len(args)
        if times.shape != (count,):
            raise ValidationError(
                f"feed needs one argument per time, got {times.size} times "
                f"and {count} arguments"
            )
        if callable(handler):
            handlers = np.full(count, handler, dtype=object)
        elif len(handler) == count:
            handlers = _objects(handler)
        else:
            raise ValidationError(
                f"feed needs one handler or one per time, got {len(handler)} "
                f"handlers for {count} times"
            )
        if count:
            self._fed.append((times, handlers, _objects(args)))

    def _merge(self) -> None:
        """Merge the fed sources behind the arrivals still pending.

        Arrivals not yet dispatched (a run that raised, or a merge by
        :meth:`peek_time`) were fed first, so they lead the stable sort.
        """
        sources = self._fed
        self._fed = []
        position = self._position
        if position < len(self._times):
            sources.insert(
                0,
                (
                    np.array(self._times[position:], dtype=np.float64),
                    _objects(self._handlers[position:]),
                    _objects(self._args[position:]),
                ),
            )
        times, handlers, args = (
            np.concatenate(column) for column in zip(*sources)
        )
        if (times[1:] < times[:-1]).any():
            order = np.argsort(times, kind="stable")
            times, handlers, args = times[order], handlers[order], args[order]
        self._times = times.tolist()
        self._handlers = handlers.tolist()
        self._args = args.tolist()
        self._position = 0

    def peek_time(self) -> float:
        """Earliest pending event time (``inf`` when idle)."""
        if self._fed:
            self._merge()
        head = self._heap[0][0] if self._heap else math.inf
        position = self._position
        if position < len(self._times) and self._times[position] < head:
            head = self._times[position]
        return head

    def run(self) -> None:
        """Dispatch events until none remain."""
        if self._fed:
            self._merge()
        times = self._times
        handlers = self._handlers
        args = self._args
        count = len(times)
        heap = self._heap
        heappop = heapq.heappop
        processed = self.processed
        self.running = True
        try:
            while True:
                position = self._position
                if position < count:
                    time = times[position]
                    # Fed events precede any dynamic event at the same time:
                    # they were all scheduled before the loop started.
                    if not heap or time <= heap[0][0]:
                        self._position = position + 1
                        processed += 1
                        handlers[position](time, args[position])
                        continue
                if not heap:
                    break
                time, _, fn = heappop(heap)
                processed += 1
                fn(time)
        finally:
            self.processed = processed
            self.running = False


class SerialResource:
    """A resource that serves one request at a time (a link direction, a walker).

    The resource is described entirely by the time it next becomes free.
    ``occupy`` asks for service starting no earlier than ``earliest_start``
    and lasting ``duration``; it returns the time service begins.

    **Tie-break contract.**  Grants are FIFO in *call order*: when two
    requests mature at the same timestamp (equal ``earliest_start``, or
    both arriving while the resource is busy until that instant), the one
    whose ``occupy`` call happens first is served first and the second
    queues behind it.  There is no hidden reordering by duration, caller
    identity or hash order — the resource holds no queue at all, only
    ``free_at``, so the grant order *is* the call order.  Simulators built
    on top (the :mod:`repro.sim.nicsim` event loop orders same-time events
    by insertion sequence) rely on this to make multi-queue runs
    reproducible bit for bit across Python versions and platforms; the
    contract is pinned by ``tests/sim/test_engine_primitives.py``.
    """

    __slots__ = ("name", "_free_at", "busy_time", "served")

    def __init__(self, name: str, *, free_at: float = 0.0) -> None:
        if free_at < 0:
            raise ValidationError(f"free_at must be non-negative, got {free_at}")
        self.name = name
        self._free_at = float(free_at)
        self.busy_time = 0.0
        self.served = 0

    @property
    def free_at(self) -> float:
        """Earliest time the resource can next start serving."""
        return self._free_at

    def occupy(self, earliest_start: float, duration: float) -> float:
        """Reserve the resource; returns the actual service start time."""
        if duration < 0:
            raise ValidationError(f"duration must be non-negative, got {duration}")
        if earliest_start < 0:
            raise ValidationError(
                f"earliest_start must be non-negative, got {earliest_start}"
            )
        start = self._free_at
        if earliest_start > start:
            start = earliest_start
        self._free_at = start + duration
        self.busy_time += duration
        self.served += 1
        return start

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` time the resource spent serving."""
        if elapsed <= 0:
            raise ValidationError(f"elapsed must be positive, got {elapsed}")
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        """Return the resource to its initial idle state."""
        self._free_at = 0.0
        self.busy_time = 0.0
        self.served = 0


class WorkerPool:
    """A bounded pool of in-flight transaction slots (DMA contexts / tags).

    ``acquire(now)`` returns the earliest time a slot is available (which may
    be later than ``now`` if all slots are busy); the caller then reports the
    slot busy until ``release_at`` via ``commit``.

    **Interleaving contract.**  Each ``acquire`` must be followed by its
    ``commit`` before the next ``acquire``.  ``acquire`` quotes the
    earliest-freeing slot and ``commit`` replaces exactly that slot; two
    acquires before any commit would both be quoted the *same* slot, and
    the second commit would silently replace whichever slot the first
    commit made earliest — corrupting the pool's timeline.  ``commit``
    detects the observable symptom (a release time before the slot it
    replaces frees) and raises :class:`SimulationError` instead of
    corrupting state; the contract is pinned by
    ``tests/sim/test_engine_primitives.py``.
    """

    __slots__ = ("slots", "_busy_until")

    def __init__(self, slots: int) -> None:
        if slots <= 0:
            raise ValidationError(f"slots must be positive, got {slots}")
        self.slots = slots
        # Min-heap of times at which each busy slot frees up.
        self._busy_until: list[float] = []

    def acquire(self, now: float) -> float:
        """Earliest time a slot can be handed out, given the current time."""
        if now < 0:
            raise ValidationError(f"now must be non-negative, got {now}")
        if len(self._busy_until) < self.slots:
            return now
        return max(now, self._busy_until[0])

    def commit(self, release_at: float) -> None:
        """Mark one slot busy until ``release_at``."""
        if release_at < 0:
            raise ValidationError(
                f"release_at must be non-negative, got {release_at}"
            )
        if len(self._busy_until) < self.slots:
            heapq.heappush(self._busy_until, release_at)
            return
        if not self._busy_until:  # pragma: no cover - guarded by slots > 0
            raise SimulationError("worker pool has no slots to replace")
        # Replace the earliest-finishing slot (the one acquire() handed
        # out).  A release before that slot even frees means the caller
        # committed against a *different* acquire — the interleaving
        # contract above was broken and a blind replace would corrupt the
        # pool's timeline.
        if release_at < self._busy_until[0]:
            raise SimulationError(
                "worker pool commit out of order: slot releasing at "
                f"{release_at} predates the earliest busy slot "
                f"({self._busy_until[0]}); each acquire must be committed "
                "before the next acquire"
            )
        heapq.heapreplace(self._busy_until, release_at)

    @property
    def in_flight(self) -> int:
        """Number of slots currently committed."""
        return len(self._busy_until)

    def reset(self) -> None:
        """Free every slot."""
        self._busy_until.clear()


class TagPool:
    """A bounded pool of in-flight DMA tags, granted through callbacks.

    :class:`WorkerPool` suits the cursor-based pipeline in
    :mod:`repro.sim.dma`, where a transaction's completion time is known at
    issue time and ``acquire``/``commit`` can book a slot in one step.  The
    NIC datapath event loop cannot know a DMA's completion time up front
    (host latency is resolved when the transaction *reaches* the root
    complex), so this pool is event-driven instead: ``acquire(now, grant)``
    invokes ``grant`` immediately if a tag is free, or queues the request;
    ``release(now)`` returns a tag, handing it straight to the
    longest-waiting request if one exists.

    Waiters are strictly FIFO — two requests queued while the pool is
    exhausted are granted in acquire order even when several tags free at
    the same timestamp — matching the :class:`SerialResource` tie-break
    contract so runs stay reproducible.

    The pool keeps the accounting a result record needs: total grants,
    peak concurrency, how many grants had to wait and for how long.
    """

    __slots__ = (
        "name",
        "capacity",
        "_held",
        "_waiters",
        "acquires",
        "max_in_flight",
        "waited",
        "wait_ns_total",
    )

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValidationError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._held = 0
        self._waiters: deque[tuple[float, Callable[[float], None]]] = deque()
        self.acquires = 0
        self.max_in_flight = 0
        self.waited = 0
        self.wait_ns_total = 0.0

    @property
    def in_flight(self) -> int:
        """Tags currently held."""
        return self._held

    @property
    def waiting(self) -> int:
        """Requests queued for a tag."""
        return len(self._waiters)

    def acquire(self, now: float, grant: Callable[[float], None]) -> None:
        """Request a tag at ``now``; ``grant`` fires when one is held."""
        if now < 0:
            raise ValidationError(f"now must be non-negative, got {now}")
        if self._held < self.capacity:
            held = self._held + 1
            self._held = held
            self.acquires += 1
            if held > self.max_in_flight:
                self.max_in_flight = held
            grant(now)
        else:
            self._waiters.append((now, grant))

    def release(self, now: float) -> None:
        """Return a tag at ``now``, re-granting it to the oldest waiter."""
        if self._waiters:
            asked, grant = self._waiters.popleft()
            self.acquires += 1
            self.waited += 1
            if now > asked:
                self.wait_ns_total += now - asked
            grant(now)
        else:
            if self._held <= 0:
                raise SimulationError(f"tag pool {self.name} released too often")
            self._held -= 1


#: Arbitration schemes :class:`ArbitratedResource` understands.
ARBITER_SCHEMES = ("fcfs", "rr", "wrr", "age", "sliced")

#: The schemes whose grant order honours per-client weights.
WEIGHTED_SCHEMES = ("wrr", "age", "sliced")

#: Default service quantum of the ``"sliced"`` scheme (preemptible grants).
DEFAULT_QUANTUM_NS = 16.0


class ArbiterClientStats:
    """Mutable per-client accounting of one :class:`ArbitratedResource`.

    The frozen, serialisable snapshot of these counters is
    :class:`repro.sim.fabric.FabricPortStats` (built via its
    ``from_client``); this class only accumulates.

    Attributes:
        requests: requests this client submitted.
        waited: grants that could not start at their request time.
        wait_ns_total: cumulative queueing delay across all grants.
        wait_ns_max: worst single-grant queueing delay (the tail the
            ``sliced`` scheme exists to bound).
        busy_ns_total: cumulative service time this client received.
    """

    __slots__ = (
        "requests",
        "waited",
        "wait_ns_total",
        "wait_ns_max",
        "busy_ns_total",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.waited = 0
        self.wait_ns_total = 0.0
        self.wait_ns_max = 0.0
        self.busy_ns_total = 0.0

    @property
    def wait_ns_mean(self) -> float:
        """Mean queueing delay per request (0 when nothing was submitted)."""
        return self.wait_ns_total / self.requests if self.requests else 0.0


class ArbitratedResource:
    """A serial resource shared by N clients under an arbitration scheme.

    :class:`SerialResource` pre-books its timeline at *call* time, so a
    burst of requests from one caller monopolises the resource no matter
    who else is waiting — exactly the unfairness a PCIe switch or root
    port avoids by keeping one upstream queue per ingress port and
    arbitrating among them.  This class models that layer: requests enter
    a per-client FIFO and the next grant is decided *when the resource
    frees*, by the configured scheme:

    * ``"fcfs"`` — the globally oldest pending request wins (ties broken
      by client index); one shared queue in effect, the behaviour closest
      to the un-arbitrated :class:`SerialResource`.
    * ``"rr"`` — round-robin over clients with pending requests, one
      grant each, starting after the last-granted client.
    * ``"wrr"`` — weighted fair service: among pending clients, grant the
      one with the smallest received service time normalised by its
      weight (``busy_ns_total / weight``), ties broken by client index.
      Under persistent backlog each client's share of the resource's busy
      time converges to its weight share; an idle client's normalised
      service falls behind, so its next request is served promptly — the
      protection a latency-sensitive victim needs against a bulk
      aggressor.
    * ``"age"`` — weighted aging (a deadline-style scheme): grant the
      pending request with the largest ``(now - asked) * weight``, ties
      broken by client index.  With equal weights this serves the oldest
      request like fcfs; weighting a latency-sensitive client effectively
      shortens its deadline, so its requests overtake an aggressor's
      backlog once they have aged a fraction ``1/weight`` as long.
    * ``"sliced"`` — preemptible weighted fair service: pick order is
      wrr's, but service is granted in quanta of ``quantum_ns``; a request
      longer than one quantum stays at the head of its queue with the
      remainder, so a victim's request never waits behind more than
      the in-flight *slice* of a bulk grant instead of its full service
      time.  The grant callback fires when the final slice is dispatched
      and receives the *virtual* start time ``completion - duration``, so
      callers computing ``start + duration`` observe the true completion;
      queueing accounting (``wait_*``) uses the same virtual start and
      therefore includes preemption gaps.

    The class is event-driven: it runs on the :class:`EventLoop` it is
    built with, waking itself when the in-flight grant's service ends.
    Grants are delivered through ``grant(start_time)`` callbacks; service
    for a grant occupies ``[start, start + duration)``.

    **Dispatch.**  One method decides every grant.  The wake-up event
    scheduled for a grant's service end runs it directly, and
    :meth:`request` runs it when the resource is idle with no wake-up
    pending.  Each scheme's pick is inline in its loop.  A count of
    queued requests (the backlog) spares the two commonest wake-ups a
    pass over the queue heads: with nothing queued the wake-up returns
    at once, and a lone request needs no pick — it is granted, or slept
    on until it arrives when it is still in the future.

    Determinism: grant order is a pure function of (request times, call
    order, scheme, weights, quantum); same-time dispatch decisions use
    client index as the final tie-break, so runs reproduce bit for bit.

    **Wake-ups.**  Every grant claims its wake-up's tie-break sequence
    from the loop before the grant callback runs, so the wake-up sorts
    ahead of any same-time event the callback schedules, and pushes the
    wake-up after the callback.  One exception batches back-to-back
    grants: while the loop is running and its next pending event is
    strictly *after* the service end, nothing can change the queues
    before the resource frees, so the next grant is dispatched inline
    instead of through a wake-up event — the same pop order either way.
    A request made outside :meth:`EventLoop.run` always gets its wake-up
    pushed: the caller may still schedule anything before the loop runs.
    """

    __slots__ = (
        "name",
        "clients",
        "scheme",
        "weights",
        "quantum_ns",
        "_loop",
        "_queues",
        "_sequence",
        "_backlog",
        "_busy_until",
        "_dispatch_pending",
        "_unused_wake",
        "_last_granted",
        "stats",
    )

    def __init__(
        self,
        name: str,
        clients: int,
        loop: EventLoop,
        *,
        scheme: str = "fcfs",
        weights: "tuple[float, ...] | None" = None,
        quantum_ns: float | None = None,
    ) -> None:
        if clients <= 0:
            raise ValidationError(f"clients must be positive, got {clients}")
        if scheme not in ARBITER_SCHEMES:
            raise ValidationError(
                f"unknown arbitration scheme {scheme!r}; "
                f"valid: {', '.join(ARBITER_SCHEMES)}"
            )
        if scheme == "sliced":
            if quantum_ns is None:
                quantum_ns = DEFAULT_QUANTUM_NS
            if not 0 < quantum_ns < math.inf:
                raise ValidationError(
                    f"quantum_ns must be finite and positive, got {quantum_ns}"
                )
        elif quantum_ns is not None:
            raise ValidationError(
                f"quantum_ns only applies to the sliced scheme, not {scheme!r}"
            )
        if weights is None:
            weights = (1.0,) * clients
        self.name = name
        self.clients = clients
        self.scheme = scheme
        self.set_weights(weights)
        self.quantum_ns = None if quantum_ns is None else float(quantum_ns)
        self._loop = loop
        # Queue entries are (asked, sequence, remaining, grant, total):
        # remaining == total except for a preempted slice remnant.
        self._queues: tuple[
            deque[tuple[float, int, float, Callable[[float], None], float]],
            ...,
        ] = tuple(deque() for _ in range(clients))
        self._sequence = 0
        #: Requests queued across all clients (a remnant counts as one).
        self._backlog = 0
        self._busy_until = 0.0
        self._dispatch_pending = False
        #: The wake-up sequence the last grant claimed but did not use
        #: (its dispatch ended idle, inline), or -1 (see
        #: :meth:`_resume_wake_up`).
        self._unused_wake = -1
        self._last_granted = clients - 1
        self.stats = tuple(ArbiterClientStats() for _ in range(clients))

    @property
    def pending(self) -> int:
        """Requests currently queued across all clients."""
        return self._backlog

    def set_weights(self, weights: "tuple[float, ...]") -> None:
        """Replace the per-client weights mid-run (control-plane actuator).

        Safe at any time: the schedulers read ``self.weights`` at pick
        time, so the new weights govern every grant from the next
        dispatch on, while queued requests and in-flight grants are
        untouched.  Weights must be finite and positive, as at
        construction.
        """
        if len(weights) != self.clients:
            raise ValidationError(
                f"need one weight per client ({self.clients}), got {len(weights)}"
            )
        if any(not 0 < weight < math.inf for weight in weights):
            raise ValidationError(
                f"weights must be finite and positive, got {tuple(weights)}"
            )
        self.weights = tuple(float(weight) for weight in weights)

    @property
    def busy_until(self) -> float:
        """Time the in-flight grant's service ends (0 before any grant)."""
        return self._busy_until

    def request(
        self,
        client: int,
        now: float,
        duration: float,
        grant: Callable[[float], None],
    ) -> None:
        """Queue a request for ``duration`` of service; ``grant`` fires at start."""
        if not 0 <= client < self.clients or now < 0 or duration < 0:
            self._reject(client, now, duration)
        self._queues[client].append(
            (now, self._sequence, duration, grant, duration)
        )
        self._sequence += 1
        self._backlog += 1
        self.stats[client].requests += 1
        if not self._dispatch_pending:
            if self._busy_until <= now:
                self._dispatch(now)
            else:
                self._resume_wake_up()

    def _reject(self, client: int, now: float, duration: float) -> None:
        if not 0 <= client < self.clients:
            raise ValidationError(
                f"client must be within [0, {self.clients}), got {client}"
            )
        if now < 0:
            raise ValidationError(f"now must be non-negative, got {now}")
        raise ValidationError(f"duration must be non-negative, got {duration}")

    # -- scheduling ------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        """Grant the resource at ``now`` (the wake-up event itself).

        Grants back to back while the loop allows, then leaves at most
        one wake-up pending: at the in-flight grant's service end, or at
        the earliest queued arrival when every queued request is still in
        the future.  The pick is one pass over the queue heads, and only
        requests asked at or before ``now`` are eligible.
        """
        self._dispatch_pending = False
        backlog = self._backlog
        if not backlog:
            return
        loop = self._loop
        running = loop.running
        queues = self._queues
        scheme = self.scheme
        # Only the sliced scheme has a quantum (checked at construction).
        quantum = self.quantum_ns
        while True:
            if now < self._busy_until:  # pragma: no cover - defensive guard
                return
            if backlog == 1:
                # One request, so no pick.  A sliced remnant is still at
                # the head of the last-granted client's queue.
                client = self._last_granted
                queue = queues[client]
                if not queue:
                    client = 0
                    queue = queues[0]
                    while not queue:
                        client += 1
                        queue = queues[client]
                arrival = queue[0][0]
                if arrival > now:
                    self._dispatch_pending = True
                    loop.at(arrival, self._dispatch)
                    return
            else:
                client = -1
                if scheme == "fcfs":
                    # The globally oldest request: the per-client queues
                    # are FIFO, so comparing heads suffices.  Heads compare
                    # as (asked, sequence) tuples — sequences are unique,
                    # so the comparison never reaches the callback — and
                    # the sequence breaks same-time ties in call order,
                    # like SerialResource.
                    oldest = None
                    for index, queue in enumerate(queues):
                        if queue:
                            head = queue[0]
                            if head[0] <= now and (oldest is None or head < oldest):
                                client = index
                                oldest = head
                elif scheme == "rr":
                    # The first eligible client after the last grant.
                    clients = self.clients
                    last = self._last_granted
                    for offset in range(1, clients + 1):
                        index = (last + offset) % clients
                        queue = queues[index]
                        if queue and queue[0][0] <= now:
                            client = index
                            break
                elif scheme == "age":
                    # Largest weighted age first; strict comparison keeps
                    # the lowest client index on a tie.
                    weights = self.weights
                    best = 0.0
                    for index, queue in enumerate(queues):
                        if queue:
                            asked = queue[0][0]
                            if asked <= now:
                                score = (now - asked) * weights[index]
                                if client < 0 or score > best:
                                    client = index
                                    best = score
                else:
                    # wrr and sliced: least normalised service first.
                    all_stats = self.stats
                    weights = self.weights
                    best = 0.0
                    for index, queue in enumerate(queues):
                        if queue and queue[0][0] <= now:
                            score = all_stats[index].busy_ns_total / weights[index]
                            if client < 0 or score < best:
                                client = index
                                best = score
                if client < 0:
                    # Every queued request is still in the future, which
                    # happens only when the resource is driven outside an
                    # event loop: wake at the earliest arrival.
                    self._dispatch_pending = True
                    loop.at(
                        min(queue[0][0] for queue in queues if queue),
                        self._dispatch,
                    )
                    return
                queue = queues[client]
            asked, sequence, remaining, grant, total = queue[0]
            stats = self.stats[client]
            if quantum is not None and remaining > quantum:
                # Serve one quantum; the remnant stays at the head of the
                # client's queue under the same asked time and sequence,
                # so fcfs-style ordering facts about the original request
                # survive slicing.
                served = quantum
                queue[0] = (asked, sequence, remaining - quantum, grant, total)
                final = False
            else:
                served = remaining
                queue.popleft()
                self._backlog = backlog - 1
                final = True
            stats.busy_ns_total += served
            end = now + served
            self._busy_until = end
            self._last_granted = client
            self._dispatch_pending = True
            # EventLoop.at, open-coded in two halves like every loop access
            # on this path, which runs once per grant.  Claim the wake-up's
            # tie-break sequence now, so it sorts ahead of any same-time
            # event the grant callback schedules; push it after the
            # callback only if needed.
            wake_sequence = loop._sequence
            loop._sequence = wake_sequence + 1
            if final:
                # The virtual start backdates a sliced grant so that
                # start + total == the true completion time; for unsliced
                # grants (remaining == total) it is the dispatch time.
                start = end - total
                if start > asked:
                    wait = start - asked
                    stats.waited += 1
                    stats.wait_ns_total += wait
                    if wait > stats.wait_ns_max:
                        stats.wait_ns_max = wait
                grant(start)
            # EventLoop.peek_time, open-coded: if the loop is not running
            # or any event is pending at or before the service end, push
            # the wake-up under the claimed sequence, which supersedes any
            # sequence an earlier idle dispatch left unused.  Otherwise the
            # loop state at ``end`` is already final and the next grant is
            # dispatched inline — the same pop order either way.
            heap = loop._heap
            if not running or heap and heap[0][0] <= end:
                self._unused_wake = -1
                heapq.heappush(heap, (end, wake_sequence, self._dispatch))
                return
            times = loop._times
            position = loop._position
            if position < len(times) and times[position] <= end:
                self._unused_wake = -1
                heapq.heappush(heap, (end, wake_sequence, self._dispatch))
                return
            self._dispatch_pending = False
            backlog = self._backlog
            if not backlog:
                self._unused_wake = wake_sequence
                return
            now = end

    def _resume_wake_up(self) -> None:
        """Schedule the wake-up for a request that finds the resource busy.

        An inline dispatch that finds nothing queued after its last grant
        returns without a wake-up, but when :meth:`request` started it,
        the event that called may go on to request again before that
        grant's service ends.  The wake-up then goes where it would have
        gone had it been pushed: at the service end, under the sequence
        claimed before the grant callback ran.  A later grant that pushed
        its own wake-up drops that sequence.  Without one the caller asked
        in the resource's past, from outside the loop, and the wake-up is
        simply scheduled at the service end.
        """
        self._dispatch_pending = True
        sequence = self._unused_wake
        if sequence < 0:
            self._loop.at(self._busy_until, self._dispatch)
            return
        self._unused_wake = -1
        heapq.heappush(
            self._loop._heap, (self._busy_until, sequence, self._dispatch)
        )
