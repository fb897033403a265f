"""The controller runtime: window ticks inside the shared event loop.

:class:`ControlRuntime` is the glue between a policy and a live fabric
run.  The fabric simulator registers each device's TX datapaths (each
delivered packet adds one to its queue's window count and its latency to
the queue's window sum), the live RSS steering dispatchers, the
arbitration trees and the shared host — then calls :meth:`start`.  From
that point the runtime ticks itself every ``window_ns`` of *simulation*
time: sum the queues' windows in queue order and reset them, hand the
policy immutable :class:`~repro.control.observations.DeviceWindow`
records, and let it drive the three actuators.

The tick self-reschedules only while the event loop still has work
(``loop.peek_time() < inf``), so a drained run ends exactly when the
traffic does — the control plane never keeps the loop alive on its own.
It is the run's only periodic tick: a metrics registry attached to a
controlled run samples from it (:attr:`ControlRuntime.sampler`), since
two self-rescheduling ticks would each see the other pending and never
stop.

The runtime exists only when a non-static controller was requested;
``controller="static"`` installs no hooks, no observers and no tick, so
the default path is bit-identical to a run without a control plane.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ..errors import ValidationError
from .actions import ControlAction
from .observations import DeviceWindow
from .policies import Controller

#: Default controller window: 50 µs of simulation time, a few thousand
#: packets at the contention scenarios' loads — enough for a stable window
#: mean, short enough for several corrective rounds per run.
DEFAULT_CONTROL_WINDOW_NS = 50_000.0

#: Shortest control window a run record accepts.  A policy acts on a
#: window only once it holds ``MIN_WINDOW_COUNT`` (8) packets, and a 1 µs
#: window of the contention pair's victim (512 B at 5 Gb/s, a packet
#: every ~0.8 µs) holds about one: shorter windows only add ticks.
MIN_CONTROL_WINDOW_NS = 1_000.0

#: Indirection-table buckets per queue for the live steering table (the
#: table length is ``num_queues * max(1, BUCKETS_PER_QUEUE // num_queues)``
#: so the queue count always divides it and the identity table
#: ``table[b] = b % num_queues`` reproduces the direct ``hash % queues``
#: mapping bucket for bucket).
BUCKETS_PER_QUEUE = 64


def steering_table_length(num_queues: int) -> int:
    """Length of the live indirection table for ``num_queues`` queues."""
    return num_queues * max(1, BUCKETS_PER_QUEUE // num_queues)


def identity_table(num_queues: int) -> list[int]:
    """The table equivalent to direct hashing (``table[b] = b % queues``)."""
    return [
        bucket % num_queues
        for bucket in range(steering_table_length(num_queues))
    ]


class RssSteering:
    """A live, rewritable RSS indirection table for one direction.

    Packets arrive pre-hashed to a *bucket* (the hash is fixed per run —
    re-keying Toeplitz mid-run would reorder every flow); the table maps
    buckets to queues and is the thing the controller rewrites.  Per-
    bucket arrival counts accumulate per window so policies can see which
    bucket the elephant lives in.
    """

    __slots__ = ("queues", "table", "window_buckets")

    def __init__(self, queues: Sequence[object], table: Sequence[int]) -> None:
        self.queues = list(queues)
        self.table = [int(entry) for entry in table]
        for entry in self.table:
            if not 0 <= entry < len(self.queues):
                raise ValidationError(
                    f"steering table entries must be queue indices in "
                    f"[0, {len(self.queues)}), got {entry}"
                )
        self.window_buckets = [0] * len(self.table)

    def dispatch(self, bucket: int, now: float, size: int) -> None:
        """Deliver one pre-hashed packet through the live table."""
        self.window_buckets[bucket] += 1
        self.queues[self.table[bucket]].on_arrival(now, size)

    def reset_window(self) -> None:
        self.window_buckets = [0] * len(self.table)

    def set_table(self, table: Sequence[int]) -> None:
        entries = [int(entry) for entry in table]
        if len(entries) != len(self.table):
            raise ValidationError(
                f"steering table length is fixed at {len(self.table)}, "
                f"got {len(entries)}"
            )
        for entry in entries:
            if not 0 <= entry < len(self.queues):
                raise ValidationError(
                    f"steering table entries must be queue indices in "
                    f"[0, {len(self.queues)}), got {entry}"
                )
        self.table[:] = entries


class _QueueTally:
    """One TX queue's deliveries in the open window: count and latency sum."""

    __slots__ = ("count", "latency_sum_ns")

    def __init__(self) -> None:
        self.count = 0
        self.latency_sum_ns = 0.0

    def record(self, latency_ns: float) -> None:
        self.count += 1
        self.latency_sum_ns += latency_ns


class _DeviceState:
    """Everything the runtime tracks for one registered device."""

    __slots__ = (
        "name",
        "index",
        "tallies",
        "steerings",
        "coupling",
        "last_descriptor",
        "last_port",
    )

    def __init__(self, name, index, tallies, steerings, coupling):
        self.name = name
        self.index = index
        self.tallies = tallies              # one _QueueTally per TX queue
        self.steerings = steerings          # RssSteering per direction (tx first)
        self.coupling = coupling
        self.last_descriptor = (0, 0)       # (accesses, hits) at last tick
        self.last_port = (0.0, 0.0)         # (wait_ns, busy_ns) at last tick


class Actuators:
    """The knobs a policy may drive, with logging built in.

    Every successful ``set_*`` appends one
    :class:`~repro.control.actions.ControlAction` to the runtime's log.
    Unbound actuators (no arbitration layer, no partition, no steering)
    report themselves unavailable rather than raising, so one policy
    works across scenario shapes.
    """

    def __init__(self, runtime: "ControlRuntime") -> None:
        self._runtime = runtime

    # -- weights ---------------------------------------------------------------

    def weights(self) -> tuple[float, ...] | None:
        """Current per-device weights (``None`` when not actuatable)."""
        return self._runtime._weights

    def set_weights(
        self, weights: Sequence[float], *, device: str, reason: str
    ) -> bool:
        return self._runtime._apply_weights(weights, device, reason)

    # -- rss -------------------------------------------------------------------

    def set_rss_table(
        self, device_index: int, table: Sequence[int], *, reason: str
    ) -> bool:
        return self._runtime._apply_rss_table(device_index, table, reason)

    # -- ddio ------------------------------------------------------------------

    def ddio_shares(self) -> tuple[float, ...] | None:
        return self._runtime._ddio_shares

    def set_ddio_shares(
        self, shares: Sequence[float], *, device: str, reason: str
    ) -> bool:
        return self._runtime._apply_ddio_shares(shares, device, reason)


class ControlRuntime:
    """Ticks a :class:`~repro.control.policies.Controller` over a run."""

    def __init__(
        self,
        controller: Controller,
        window_ns: float,
        loop,
    ) -> None:
        if not 0 < window_ns < math.inf:
            raise ValidationError(
                f"control window must be finite and positive, got {window_ns}"
            )
        self.controller = controller
        self.window_ns = float(window_ns)
        self._loop = loop
        self._devices: list[_DeviceState] = []
        self._weights: tuple[float, ...] | None = None
        self._weight_sinks: list[Callable[[Sequence[float]], None]] = []
        self._ddio_shares: tuple[float, ...] | None = None
        self._repartition: Callable[[Sequence[float]], None] | None = None
        self.actions: list[ControlAction] = []
        self.windows_ticked = 0
        #: Called with the tick time after every tick: a run's metrics
        #: registry samples here, on the control windows, rather than
        #: from a second periodic tick.
        self.sampler: Callable[[float], None] | None = None
        self._now = 0.0
        self.actuators = Actuators(self)

    # -- wiring (called by the fabric simulator during build) ------------------

    def add_device(
        self,
        name: str,
        index: int,
        tx_queues: Sequence[object],
        steerings: Sequence[RssSteering],
        coupling,
    ) -> None:
        """Register one device: install latency observers on its TX queues."""
        if index != len(self._devices):
            raise ValidationError(
                f"devices must be registered in index order, expected "
                f"{len(self._devices)}, got {index}"
            )
        tallies = [_QueueTally() for _ in tx_queues]
        for path, tally in zip(tx_queues, tallies):
            path.observer = tally.record
        self._devices.append(
            _DeviceState(name, index, tallies, list(steerings), coupling)
        )

    def bind_weights(
        self,
        initial: Sequence[float],
        sinks: Sequence[Callable[[Sequence[float]], None]],
    ) -> None:
        """Enable the weights actuator (weighted multi-device runs only).

        ``sinks`` are callables applying a full per-device weight vector
        (one per compiled arbitration tree: ingress and walker).
        """
        self._weights = tuple(float(weight) for weight in initial)
        self._weight_sinks = list(sinks)

    def bind_ddio(
        self,
        shares: Sequence[float],
        repartition: Callable[[Sequence[float]], None],
    ) -> None:
        """Enable the DDIO actuator (partitioned statistical-cache runs)."""
        self._ddio_shares = tuple(float(share) for share in shares)
        self._repartition = repartition

    def start(self) -> None:
        """Schedule the first tick (call after the arrivals are fed)."""
        self._loop.at(self.window_ns, self._tick)

    # -- actuation -------------------------------------------------------------

    def _apply_weights(
        self, weights: Sequence[float], device: str, reason: str
    ) -> bool:
        if self._weights is None or not self._weight_sinks:
            return False
        new = tuple(float(weight) for weight in weights)
        if len(new) != len(self._weights):
            raise ValidationError(
                f"need one weight per device ({len(self._weights)}), "
                f"got {len(new)}"
            )
        if new == self._weights:
            return False
        for sink in self._weight_sinks:
            sink(new)
        self.actions.append(
            ControlAction(
                time_ns=self._now,
                device=device,
                actuator="weights",
                reason=reason,
                before=self._weights,
                after=new,
            )
        )
        self._weights = new
        return True

    def _apply_rss_table(
        self, device_index: int, table: Sequence[int], reason: str
    ) -> bool:
        state = self._devices[device_index]
        if not state.steerings:
            return False
        before = tuple(state.steerings[0].table)
        new = tuple(int(entry) for entry in table)
        if new == before:
            return False
        for steering in state.steerings:
            steering.set_table(new)
        self.actions.append(
            ControlAction(
                time_ns=self._now,
                device=state.name,
                actuator="rss",
                reason=reason,
                before=before,
                after=new,
            )
        )
        return True

    def _apply_ddio_shares(
        self, shares: Sequence[float], device: str, reason: str
    ) -> bool:
        if self._ddio_shares is None or self._repartition is None:
            return False
        new = tuple(float(share) for share in shares)
        if len(new) != len(self._ddio_shares):
            raise ValidationError(
                f"need one share per device ({len(self._ddio_shares)}), "
                f"got {len(new)}"
            )
        if any(share <= 0 for share in new):
            raise ValidationError(f"shares must be positive, got {new}")
        if new == self._ddio_shares:
            return False
        self._repartition(new)
        self.actions.append(
            ControlAction(
                time_ns=self._now,
                device=device,
                actuator="ddio",
                reason=reason,
                before=self._ddio_shares,
                after=new,
            )
        )
        self._ddio_shares = new
        return True

    # -- the tick --------------------------------------------------------------

    def _observe(self, now: float) -> list[DeviceWindow]:
        observations = []
        for state in self._devices:
            count, latency_sum_ns = 0, 0.0
            for tally in state.tallies:
                count += tally.count
                latency_sum_ns += tally.latency_sum_ns
                tally.count, tally.latency_sum_ns = 0, 0.0
            accesses, hits = state.coupling.descriptor_counters()
            last_accesses, last_hits = state.last_descriptor
            state.last_descriptor = (accesses, hits)
            window_accesses = accesses - last_accesses
            hit_rate = (
                (hits - last_hits) / window_accesses
                if window_accesses > 0
                else None
            )
            wait_total, busy_total = self._port_totals(state.index)
            last_wait, last_busy = state.last_port
            wait_delta = wait_total - last_wait
            busy_delta = busy_total - last_busy
            state.last_port = (wait_total, busy_total)
            steering = state.steerings[0] if state.steerings else None
            bucket_counts = (
                tuple(steering.window_buckets) if steering is not None else None
            )
            table = tuple(steering.table) if steering is not None else None
            for other in state.steerings:
                other.reset_window()
            observations.append(
                DeviceWindow(
                    device=state.name,
                    index=state.index,
                    window_index=self.windows_ticked,
                    num_queues=len(state.tallies),
                    count=count,
                    latency_sum_ns=latency_sum_ns,
                    descriptor_hit_rate=hit_rate,
                    wait_ns_delta=wait_delta,
                    busy_ns_delta=busy_delta,
                    window_ns=self.window_ns,
                    bucket_counts=bucket_counts,
                    rss_table=table,
                )
            )
        return observations

    #: Installed via bind_port_stats: per-device cumulative arbitration
    #: counters as ``(wait_ns_total, busy_ns_total)``.
    _port_source: Callable[[int], "tuple[float, float]"] | None = None

    def bind_port_stats(
        self, source: Callable[[int], "tuple[float, float]"]
    ) -> None:
        """Install the cumulative arbitration-counter reader (per device)."""
        self._port_source = source

    def _port_totals(self, index: int) -> tuple[float, float]:
        if self._port_source is None:
            return 0.0, 0.0
        return self._port_source(index)

    def _tick(self, now: float) -> None:
        self._now = now
        observations = self._observe(now)
        self.controller.tick(now, observations, self.actuators)
        self.windows_ticked += 1
        if self.sampler is not None:
            self.sampler(now)
        if self._loop.peek_time() < math.inf:
            self._loop.at(now + self.window_ns, self._tick)
