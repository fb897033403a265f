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
from operator import itemgetter
from typing import Callable

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


class EventLoop:
    """The shared discrete-event scheduler: one binary heap.

    Events are ``(time, sequence, fn)`` records popped in time order with
    FIFO tie-break on the insertion sequence — the determinism contract
    every simulator in this package (and every seeded golden) rests on.
    Two ingestion paths, by event shape:

    * :meth:`at` — dynamic events scheduled while the loop runs, pushed
      on the heap.
    * :meth:`feed` — the pre-generated workload arrivals.  A run begins
      with every arrival already known and nearly sorted; keeping them
      out of the heap entirely (one stable sort, then a pointer walk)
      beats paying per-event scheduling for half of all events, and
      keeps the heap small.

    ``peek_time`` exposes the earliest pending event so resources can
    service back-to-back grants without a scheduler round trip per grant
    (see :meth:`ArbitratedResource.attach_loop`).
    """

    __slots__ = (
        "_heap",
        "_sequence",
        "_stream",
        "_stream_pos",
        "processed",
        "running",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._sequence = 0
        self._stream: list[tuple[float, Callable[[float, object], None], object]] = []
        self._stream_pos = 0
        #: Events dispatched by :meth:`run` (the profiling hook's counter).
        self.processed = 0
        #: True while :meth:`run` is draining.  Batch-granting resources
        #: check this: outside the loop, a ``peek_time``-based "nothing
        #: happens before t" conclusion would be unsound, because the
        #: driver may still schedule arbitrary events before calling run.
        self.running = False

    def at(self, time: float, fn: Callable[[float], None]) -> None:
        """Schedule ``fn(time)``; same-time events run in call order."""
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (time, sequence, fn))

    def reserve(self) -> int:
        """Claim the next insertion sequence without scheduling anything.

        Pairs with :meth:`at_sequenced`: a caller that *may* schedule an
        event later — after running code that schedules its own events —
        can reserve its tie-break position up front, so the eventual event
        sorts exactly as if it had been scheduled at reservation time.
        :class:`ArbitratedResource` holds its wake-up's position this way
        while the grant callback runs, then either schedules under it or
        batches the next grant inline.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        return sequence

    def at_sequenced(
        self, time: float, sequence: int, fn: Callable[[float], None]
    ) -> None:
        """Schedule ``fn(time)`` under a sequence from :meth:`reserve`."""
        heapq.heappush(self._heap, (time, sequence, fn))

    def feed(self, time: float, fn: Callable[[float, object], None], arg: object) -> None:
        """Pre-load one externally generated event, dispatched ``fn(time, arg)``.

        Must be called before :meth:`run`.  Fed events are sorted once
        (stably, so same-time entries keep feed order) and precede any
        dynamic event at the same timestamp — the exact order a heap
        gives arrivals scheduled before the loop starts.
        """
        self._stream.append((time, fn, arg))

    def feed_many(self, entries) -> None:
        """Pre-load ``(time, fn, arg)`` tuples in bulk (see :meth:`feed`).

        One ``list.extend`` replaces a method call per arrival — with the
        workload pre-converted via ``ndarray.tolist()``, feeding a run's
        whole arrival schedule costs a few C-level calls total.
        """
        self._stream.extend(entries)

    def peek_time(self) -> float:
        """Earliest pending event time (``inf`` when idle)."""
        head = self._heap[0][0] if self._heap else math.inf
        if self._stream_pos < len(self._stream):
            stream_time = self._stream[self._stream_pos][0]
            if stream_time < head:
                head = stream_time
        return head

    def run(self) -> None:
        """Dispatch events until none remain."""
        self._stream.sort(key=itemgetter(0))
        stream = self._stream
        stream_len = len(stream)
        heap = self._heap
        heappop = heapq.heappop
        processed = self.processed
        self.running = True
        try:
            while True:
                pos = self._stream_pos
                if pos < stream_len:
                    entry = stream[pos]
                    # Fed events precede any dynamic event at the same time:
                    # they were all scheduled before the loop started.
                    if not heap or entry[0] <= heap[0][0]:
                        self._stream_pos = pos + 1
                        processed += 1
                        entry[1](entry[0], entry[2])
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
      longer than one quantum is put back at the head of its queue with
      the remainder, so a victim's request never waits behind more than
      the in-flight *slice* of a bulk grant instead of its full service
      time.  The grant callback fires when the final slice is dispatched
      and receives the *virtual* start time ``completion - duration``, so
      callers computing ``start + duration`` observe the true completion;
      queueing accounting (``wait_*``) uses the same virtual start and
      therefore includes preemption gaps.

    The class is event-driven: it needs a ``schedule(time, fn)`` hook (an
    event loop's ``at``) so it can wake itself when the in-flight grant's
    service ends.  Grants are delivered through ``grant(start_time)``
    callbacks; service for a grant occupies ``[start, start + duration)``.

    Determinism: grant order is a pure function of (request times, call
    order, scheme, weights, quantum); same-time dispatch decisions use
    client index as the final tie-break, so runs reproduce bit for bit.

    **Batched grants.**  With :meth:`attach_loop`, back-to-back grants
    skip the scheduler round trip: when the loop's next pending event is
    strictly *after* this grant's service end, nothing can change the
    queues before the resource frees, so the next grant is dispatched
    inline instead of through a wake-up event.  The wake-up's tie-break
    sequence is reserved up front (:meth:`EventLoop.reserve`), so when
    batching is *not* possible the scheduled wake-up sorts exactly where
    the unbatched code would have put it — pop order, and therefore every
    seeded golden, is bit-identical either way.
    """

    __slots__ = (
        "name",
        "clients",
        "scheme",
        "weights",
        "quantum_ns",
        "_schedule",
        "_loop",
        "_queues",
        "_sequence",
        "_busy_until",
        "_dispatch_pending",
        "_last_granted",
        "stats",
    )

    def __init__(
        self,
        name: str,
        clients: int,
        *,
        schedule: Callable[[float, Callable[[float], None]], None],
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
            if quantum_ns <= 0:
                raise ValidationError(
                    f"quantum_ns must be positive, got {quantum_ns}"
                )
        elif quantum_ns is not None:
            raise ValidationError(
                f"quantum_ns only applies to the sliced scheme, not {scheme!r}"
            )
        if weights is None:
            weights = (1.0,) * clients
        if len(weights) != clients:
            raise ValidationError(
                f"need one weight per client ({clients}), got {len(weights)}"
            )
        if any(weight <= 0 for weight in weights):
            raise ValidationError(f"weights must be positive, got {weights}")
        self.name = name
        self.clients = clients
        self.scheme = scheme
        self.weights = tuple(float(weight) for weight in weights)
        self.quantum_ns = None if quantum_ns is None else float(quantum_ns)
        self._schedule = schedule
        self._loop: EventLoop | None = None
        # Queue entries are (asked, sequence, remaining, grant, total):
        # remaining == total except for a preempted slice remnant.
        self._queues: tuple[
            deque[tuple[float, int, float, Callable[[float], None], float]],
            ...,
        ] = tuple(deque() for _ in range(clients))
        self._sequence = 0
        self._busy_until = 0.0
        self._dispatch_pending = False
        self._last_granted = clients - 1
        self.stats = tuple(ArbiterClientStats() for _ in range(clients))

    @property
    def pending(self) -> int:
        """Requests currently queued across all clients."""
        return sum(len(queue) for queue in self._queues)

    def set_weights(self, weights: "tuple[float, ...]") -> None:
        """Replace the per-client weights mid-run (control-plane actuator).

        Safe at any time: the schedulers read ``self.weights`` at pick
        time, so the new weights govern every grant from the next
        dispatch on, while queued requests and in-flight grants are
        untouched.  Same validation as construction.
        """
        if len(weights) != self.clients:
            raise ValidationError(
                f"need one weight per client ({self.clients}), got {len(weights)}"
            )
        if any(weight <= 0 for weight in weights):
            raise ValidationError(f"weights must be positive, got {weights}")
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
        self.stats[client].requests += 1
        if not self._dispatch_pending and self._busy_until <= now:
            self._dispatch(now)

    def _reject(self, client: int, now: float, duration: float) -> None:
        if not 0 <= client < self.clients:
            raise ValidationError(
                f"client must be within [0, {self.clients}), got {client}"
            )
        if now < 0:
            raise ValidationError(f"now must be non-negative, got {now}")
        raise ValidationError(f"duration must be non-negative, got {duration}")

    # -- scheduling ------------------------------------------------------------

    def _pick(self, now: float) -> int:
        """The client to serve next, or -1 when no queued request has arrived.

        One pass over the queue heads.  Only requests asked at or before
        ``now`` are eligible.  Each scheme's order (see the class
        docstring) with its deterministic tie-break: fcfs by ``(asked,
        sequence)``; rr the first eligible client after the last grant;
        wrr/sliced by ``(busy / weight, index)``; age by the largest
        weighted age, then the lowest index.
        """
        queues = self._queues
        scheme = self.scheme
        best = -1
        if scheme == "rr":
            clients = self.clients
            last = self._last_granted
            for offset in range(1, clients + 1):
                index = (last + offset) % clients
                queue = queues[index]
                if queue and queue[0][0] <= now:
                    return index
            return best
        if scheme == "fcfs":
            # Globally oldest request; the per-client queues are FIFO, so
            # comparing heads suffices.  The submission sequence breaks
            # same-time ties in call order, like SerialResource.
            oldest = None
            for index, queue in enumerate(queues):
                if queue:
                    head = queue[0]
                    asked = head[0]
                    if asked <= now and (
                        oldest is None
                        or asked < oldest[0]
                        or (asked == oldest[0] and head[1] < oldest[1])
                    ):
                        best = index
                        oldest = head
            return best
        weights = self.weights
        best_score = 0.0
        if scheme == "age":
            # Largest weighted age first; strict comparison keeps the
            # lowest client index on a tie.
            for index, queue in enumerate(queues):
                if queue:
                    asked = queue[0][0]
                    if asked <= now:
                        score = (now - asked) * weights[index]
                        if best < 0 or score > best_score:
                            best = index
                            best_score = score
            return best
        # wrr and sliced: least normalised service first.
        stats = self.stats
        for index, queue in enumerate(queues):
            if queue and queue[0][0] <= now:
                score = stats[index].busy_ns_total / weights[index]
                if best < 0 or score < best_score:
                    best = index
                    best_score = score
        return best

    def attach_loop(self, loop: EventLoop) -> None:
        """Enable batched grants against ``loop``.

        ``loop`` must be the event loop behind the ``schedule`` hook this
        resource was constructed with; batching consults its
        ``peek_time``/``running`` state to prove the inline dispatch is
        indistinguishable from a scheduled wake-up.
        """
        self._loop = loop

    def _dispatch(self, now: float) -> None:
        loop = self._loop
        queues = self._queues
        # Only the sliced scheme has a quantum (checked at construction).
        quantum = self.quantum_ns
        while True:
            if now < self._busy_until:  # pragma: no cover - defensive guard
                return
            client = self._pick(now)
            if client < 0:
                self._sleep_until_arrival()
                return
            queue = queues[client]
            asked, sequence, remaining, grant, total = queue.popleft()
            stats = self.stats[client]
            sliced_remnant = quantum is not None and remaining > quantum
            if sliced_remnant:
                # Serve one quantum and put the remnant back at the head
                # of the client's queue (same asked time and sequence, so
                # fcfs-style ordering facts about the original request
                # survive slicing).
                served = quantum
                queue.appendleft(
                    (asked, sequence, remaining - served, grant, total)
                )
            else:
                served = remaining
            stats.busy_ns_total += served
            end = now + served
            self._busy_until = end
            self._last_granted = client
            self._dispatch_pending = True
            batched = loop is not None and loop.running
            if batched:
                # Batched path: hold the wake-up's tie-break position while
                # the grant callback runs (see below).
                wake_sequence = loop.reserve()
            else:
                # Legacy path: wake up through the scheduler.  The wake-up
                # is scheduled *before* the grant callback runs, so it
                # sorts ahead of any same-time event the grant schedules.
                self._schedule(end, self._on_free)
            if not sliced_remnant:
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
            if not batched:
                return
            # Either dispatch the next grant inline (nothing pending before
            # the service end, so the loop state at ``end`` is already
            # final) or schedule the wake-up under the reserved sequence —
            # same pop order either way.
            if loop.peek_time() > end:
                self._dispatch_pending = False
                now = end
                continue
            loop.at_sequenced(end, wake_sequence, self._on_free)
            return

    def _sleep_until_arrival(self) -> None:
        """Wake at the earliest queued request's arrival, if any is queued.

        Every queued request is in the caller's future only when the
        resource is driven outside an event loop.
        """
        wake = None
        for queue in self._queues:
            if queue and (wake is None or queue[0][0] < wake):
                wake = queue[0][0]
        if wake is not None:
            self._dispatch_pending = True
            self._schedule(wake, self._on_free)

    def _on_free(self, now: float) -> None:
        self._dispatch_pending = False
        self._dispatch(now)
