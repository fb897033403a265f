"""What the control plane sees each window: per-device telemetry deltas.

A controller never reads simulator internals directly — each tick the
:class:`~repro.control.runtime.ControlRuntime` sums the window's TX
deliveries (one packet count and one latency sum per queue) and packages
them, with the window's descriptor-cache hit rate, arbitration wait and
busy deltas and RSS bucket counts, into immutable :class:`DeviceWindow`
records.  Policies decide from these alone, which keeps them
unit-testable with hand-built observations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceWindow:
    """One device's observation window.

    Attributes:
        device / index: the device's name and fabric index.
        window_index: which tick produced this window (0-based).
        num_queues: the device's TX queue count.
        count: packets delivered (TX) this window, over every queue.
        latency_sum_ns: those packets' summed latencies — each queue's
            sum in delivery order, the queues added in queue order.
        descriptor_hit_rate: descriptor-cache hit fraction over this
            window's accesses (``None`` if the window saw none).
        wait_ns_delta: arbitration wait accumulated this window across
            the device's ingress path (0.0 when no arbitration layer).
        busy_ns_delta: fabric service time this device's DMAs occupied
            this window (ingress + walker; 0.0 when no arbitration
            layer).  ``busy_ns_delta / window_ns`` is the device's
            *fabric share* — the signal separating a saturating bulk
            source (share near or above 1) from a starved victim (low
            share, yet full rings because the fabric won't drain them).
        window_ns: the observation window length in nanoseconds.
        bucket_counts: per-RSS-bucket arrival counts this window
            (``None`` when the device has no live indirection table).
        rss_table: the live indirection table (``None`` when static).
    """

    device: str
    index: int
    window_index: int
    num_queues: int
    count: int
    latency_sum_ns: float
    descriptor_hit_rate: float | None
    wait_ns_delta: float
    busy_ns_delta: float = 0.0
    window_ns: float = 0.0
    bucket_counts: tuple[int, ...] | None = None
    rss_table: tuple[int, ...] | None = None

    @property
    def fabric_share(self) -> float:
        """Fraction of the window this device's DMAs kept the arbitrated
        fabric resources busy (can exceed 1: ingress and walker are two
        resources).  High share = the device *is* the load."""
        if self.window_ns <= 0.0:
            return 0.0
        return self.busy_ns_delta / self.window_ns

    @property
    def wait_fraction(self) -> float:
        """Arbitration wait per delivered packet over the window's mean
        latency — the fraction of a packet's life spent waiting for the
        fabric, the wait-dominance signal the weight policies act on."""
        if self.count == 0:
            return 0.0
        mean = self.latency_sum_ns / self.count
        if mean <= 0.0:
            return 0.0
        return (self.wait_ns_delta / self.count) / mean
