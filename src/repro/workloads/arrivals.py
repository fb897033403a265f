"""Packet arrival processes for NIC traffic workloads.

An arrival process turns a *nominal* inter-arrival gap (the gap that makes
the packet stream hit its offered load exactly) into the actual gap series.
The smooth process keeps the nominal spacing; Poisson arrivals randomise it
memorylessly; the bursty on/off process compresses packets into line-rate
bursts separated by idle periods while preserving the long-run offered
load.  Burstiness is what exposes ring-occupancy and drop behaviour the
closed-form model of :mod:`repro.core.nic` averages away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


class ArrivalProcess:
    """Interface: maps nominal per-packet gaps onto actual gaps."""

    name: str = "arrivals"
    #: Fewest packets whose gaps the process can shape.
    min_packets: int = 1

    def gaps(
        self, nominal_gaps_ns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Actual inter-arrival gaps (ns), one per packet.

        ``nominal_gaps_ns[i]`` is the gap that would make packet ``i`` arrive
        exactly at the offered load; implementations must preserve the total
        (long-run offered load) while reshaping the short-term pattern.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class UniformArrivals(ArrivalProcess):
    """Deterministic, evenly paced arrivals (a shaped/smooth source)."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return "uniform"

    def gaps(
        self, nominal_gaps_ns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return np.asarray(nominal_gaps_ns, dtype=np.float64).copy()


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps around the nominal spacing."""

    @property
    def name(self) -> str:  # type: ignore[override]
        return "poisson"

    def gaps(
        self, nominal_gaps_ns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        nominal = np.asarray(nominal_gaps_ns, dtype=np.float64)
        return rng.exponential(1.0, size=nominal.size) * nominal


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off arrivals: bursts at ``peak_factor`` times the offered rate.

    Packets arrive in back-to-back bursts of ``burst_size`` with gaps
    compressed by ``peak_factor``; the time saved is inserted as idle
    periods between bursts.  Because the schedule span ends at the final
    arrival, the last burst has no following idle period inside the span;
    its saved time is spread over the other idle gaps so the realised load
    over the schedule matches the offered load.  A run therefore needs at
    least two bursts — with a single burst every packet would arrive at
    the peak rate, ``peak_factor`` times the configured load.
    """

    burst_size: int = 32
    peak_factor: float = 8.0

    def __post_init__(self) -> None:
        if self.burst_size <= 1:
            raise ValidationError(
                f"burst_size must be at least 2, got {self.burst_size}"
            )
        if self.peak_factor <= 1.0:
            raise ValidationError(
                f"peak_factor must exceed 1, got {self.peak_factor}"
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"bursty-{self.burst_size}x{self.peak_factor:g}"

    @property
    def min_packets(self) -> int:  # type: ignore[override]
        """Two bursts: one full burst and at least one packet of the next."""
        return self.burst_size + 1

    def gaps(
        self, nominal_gaps_ns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        nominal = np.asarray(nominal_gaps_ns, dtype=np.float64)
        if nominal.size < self.min_packets:
            raise ValidationError(
                f"bursty arrivals need at least two bursts; got "
                f"{nominal.size} packets with burst_size {self.burst_size} "
                "(increase the packet count or reduce burst_size)"
            )
        burst_starts = np.arange(0, nominal.size, self.burst_size)
        gaps = nominal / self.peak_factor
        saved = nominal - gaps
        per_burst_saved = np.add.reduceat(saved, burst_starts)
        # All saved time — including the final burst's, which has no idle
        # period of its own inside the span — is distributed over the
        # inter-burst gaps so the total time equals the nominal total
        # exactly, even when the final burst is partial.
        later_starts = burst_starts[1:]
        leading_saved = per_burst_saved[: later_starts.size]
        scale = per_burst_saved.sum() / leading_saved.sum()
        gaps[later_starts] += leading_saved * scale
        return gaps
