"""Traffic workloads: size distribution + arrival process + offered load.

A :class:`Workload` is the declarative description of the traffic a NIC is
asked to move: what the packets look like (:mod:`repro.workloads.sizes`),
when they arrive (:mod:`repro.workloads.arrivals`), how hard the source
pushes (offered load per direction in Gb/s, or saturating), and whether the
traffic is full-duplex.  ``generate`` materialises a concrete, reproducible
:class:`PacketSchedule` for one direction from a seeded random source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ValidationError
from ..units import bytes_over_time_to_gbps
from .arrivals import ArrivalProcess, BurstyArrivals, PoissonArrivals, UniformArrivals
from .flows import FlowModel
from .sizes import IMIX, FixedSize, SizeDistribution, TrimodalSize, UniformSize

#: Offered load used when a workload asks for saturation: comfortably above
#: anything a Gen3 x8 link can sustain (~52 Gb/s of payload), so the
#: datapath — not the source — is always the bottleneck.
SATURATING_LOAD_GBPS = 80.0


@dataclass(frozen=True)
class Packet:
    """One scheduled packet: when it arrives, how big it is, which flow.

    ``flow`` is the integer flow label RSS steering hashes to a queue
    (see :mod:`repro.workloads.rss`); schedules generated without a flow
    model put every packet on flow 0.
    """

    arrival_ns: float
    size: int
    flow: int = 0


@dataclass(frozen=True)
class PacketSchedule:
    """A concrete packet stream for one direction: arrival times, sizes, flows.

    ``flows`` is ``None`` for schedules generated without a flow model —
    the single-queue case, where steering never looks at the label.
    """

    arrival_times_ns: np.ndarray
    sizes: np.ndarray
    flows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.arrival_times_ns.size != self.sizes.size:
            raise ValidationError(
                "arrival times and sizes must have equal length "
                f"({self.arrival_times_ns.size} != {self.sizes.size})"
            )
        if self.arrival_times_ns.size == 0:
            raise ValidationError("a schedule needs at least one packet")
        if self.flows is not None and self.flows.size != self.sizes.size:
            raise ValidationError(
                "flow labels and sizes must have equal length "
                f"({self.flows.size} != {self.sizes.size})"
            )

    @property
    def count(self) -> int:
        """Number of packets in the schedule."""
        return int(self.sizes.size)

    def packet(self, index: int) -> Packet:
        """The ``index``-th packet as a :class:`Packet` record."""
        return Packet(
            arrival_ns=float(self.arrival_times_ns[index]),
            size=int(self.sizes[index]),
            flow=int(self.flows[index]) if self.flows is not None else 0,
        )

    @property
    def payload_bytes(self) -> int:
        """Total payload carried by the schedule."""
        return int(self.sizes.sum())

    def offered_load_gbps(self) -> float:
        """Realised offered load of the schedule in Gb/s."""
        span = float(self.arrival_times_ns[-1] - self.arrival_times_ns[0])
        if span <= 0.0:
            raise ValidationError("schedule spans zero time")
        # Each gap precedes its packet and the first gap is normalised away,
        # so the span covers the source slots of packets 1..n-1; exclude the
        # first packet's bytes for an unbiased rate estimate.
        return bytes_over_time_to_gbps(int(self.sizes[1:].sum()), span)


def _stream(rng: object, name: str) -> np.random.Generator:
    """Accept either a :class:`~repro.sim.rng.SimRng` or a bare generator."""
    spawn = getattr(rng, "spawn", None)
    if callable(spawn):
        return spawn(name)
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValidationError(
        f"rng must be a SimRng or numpy Generator, got {type(rng).__name__}"
    )


@dataclass(frozen=True)
class Workload:
    """Declarative description of a NIC traffic workload.

    Attributes:
        name: display name used in results and reports.
        sizes: per-packet frame size distribution.
        arrivals: arrival process shaping the packet gaps.
        offered_load_gbps: offered load per direction in Gb/s; ``None``
            means saturating (:data:`SATURATING_LOAD_GBPS`).
        duplex: whether traffic flows in both directions (one TX and one RX
            stream, the Figure 1 setting) or TX only.
        flows: optional flow model labelling each packet for RSS steering
            (required by multi-queue runs; ``None`` leaves schedules
            unlabelled, the single-queue case).
    """

    name: str
    sizes: SizeDistribution
    arrivals: ArrivalProcess
    offered_load_gbps: float | None = None
    duplex: bool = True
    flows: FlowModel | None = None

    def __post_init__(self) -> None:
        load = self.offered_load_gbps
        if load is not None and not 0 < load < math.inf:
            raise ValidationError(
                f"offered load must be finite and positive, got {load}"
            )

    @property
    def load_gbps(self) -> float:
        """Offered load per direction (saturating default applied)."""
        if self.offered_load_gbps is None:
            return SATURATING_LOAD_GBPS
        return self.offered_load_gbps

    @property
    def is_saturating(self) -> bool:
        """Whether the workload offers more than any Gen3 x8 path can carry."""
        return self.offered_load_gbps is None

    def with_(self, **changes: object) -> "Workload":
        """Return a variant of this workload with selected fields changed."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def generate(self, count: int, rng: object, *, stream: str = "tx") -> PacketSchedule:
        """Materialise ``count`` packets for one direction.

        Args:
            count: number of packets.
            rng: a :class:`~repro.sim.rng.SimRng` (preferred; ``stream``
                selects a decorrelated sub-stream) or a bare numpy generator.
            stream: direction tag (``"tx"`` / ``"rx"``) so full-duplex
                streams are independent but individually reproducible.
        """
        if count <= 0:
            raise ValidationError(f"count must be positive, got {count}")
        generator = _stream(rng, f"workload.{self.name}.{stream}")
        sizes = self.sizes.sample(count, generator)
        # The gap that hits the offered load exactly: a packet of ``sz``
        # bytes at L Gb/s occupies sz*8/L nanoseconds of source time.
        nominal_gaps = sizes.astype(np.float64) * 8.0 / self.load_gbps
        gaps = self.arrivals.gaps(nominal_gaps, generator)
        times = np.cumsum(gaps)
        times -= times[0]  # first packet arrives at t = 0
        # Flow labels are drawn last so attaching a flow model leaves the
        # size and gap draws — and therefore every single-queue result —
        # bit-identical to a flow-free workload on the same seed.
        flows = (
            self.flows.sample(count, generator)
            if self.flows is not None
            else None
        )
        return PacketSchedule(arrival_times_ns=times, sizes=sizes, flows=flows)

    def describe(self) -> dict[str, object]:
        """Summary of the workload (for results and reports)."""
        summary: dict[str, object] = {
            "name": self.name,
            "sizes": self.sizes.name,
            "arrivals": self.arrivals.name,
            "offered_load_gbps": self.offered_load_gbps,
            "duplex": self.duplex,
        }
        if self.flows is not None:
            summary["flows"] = self.flows.name
        return summary


# ---------------------------------------------------------------------------
# Named workload factories (the CLI / bench vocabulary)
# ---------------------------------------------------------------------------


def fixed_workload(
    size: int = 1024,
    *,
    load_gbps: float | None = None,
    duplex: bool = True,
) -> Workload:
    """Fixed-size, evenly paced traffic — the analytic model's setting."""
    return Workload(
        name="fixed",
        sizes=FixedSize(size),
        arrivals=UniformArrivals(),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


def uniform_workload(
    minimum: int = 64,
    maximum: int = 1518,
    *,
    load_gbps: float | None = None,
    duplex: bool = True,
) -> Workload:
    """Uniformly mixed frame sizes with smooth arrivals."""
    return Workload(
        name="uniform",
        sizes=UniformSize(minimum, maximum),
        arrivals=UniformArrivals(),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


def imix_workload(
    *, load_gbps: float | None = None, duplex: bool = True
) -> Workload:
    """The classic IMIX blend with Poisson arrivals."""
    return Workload(
        name="imix",
        sizes=IMIX,
        arrivals=PoissonArrivals(),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


def poisson_workload(
    size: int = 1024,
    *,
    load_gbps: float | None = None,
    duplex: bool = True,
) -> Workload:
    """Fixed-size packets with Poisson (memoryless) arrivals."""
    return Workload(
        name="poisson",
        sizes=FixedSize(size),
        arrivals=PoissonArrivals(),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


def bursty_workload(
    size: int = 1024,
    *,
    load_gbps: float | None = None,
    duplex: bool = True,
    burst_size: int = 32,
    peak_factor: float = 8.0,
) -> Workload:
    """Fixed-size packets in on/off bursts at ``peak_factor`` times the load."""
    return Workload(
        name="bursty",
        sizes=FixedSize(size),
        arrivals=BurstyArrivals(burst_size=burst_size, peak_factor=peak_factor),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


def bursty_imix_workload(
    *,
    load_gbps: float | None = None,
    duplex: bool = True,
    burst_size: int = 32,
    peak_factor: float = 8.0,
) -> Workload:
    """IMIX frame sizes arriving in on/off bursts."""
    return Workload(
        name="bursty-imix",
        sizes=IMIX,
        arrivals=BurstyArrivals(burst_size=burst_size, peak_factor=peak_factor),
        offered_load_gbps=load_gbps,
        duplex=duplex,
    )


#: Named workload builders in CLI/report order.
WORKLOAD_FACTORIES = {
    "fixed": fixed_workload,
    "uniform": uniform_workload,
    "imix": imix_workload,
    "poisson": poisson_workload,
    "bursty": bursty_workload,
    "bursty-imix": bursty_imix_workload,
}


def workload_names() -> list[str]:
    """All named workloads, in registry order."""
    return list(WORKLOAD_FACTORIES)


def build_workload(
    name: str,
    *,
    size: int = 1024,
    load_gbps: float | None = None,
    duplex: bool = True,
    burst_size: int = 32,
    peak_factor: float = 8.0,
) -> Workload:
    """Construct a named workload with the common knobs applied.

    ``size`` only affects the fixed-size families; ``burst_size`` and
    ``peak_factor`` only the bursty ones.
    """
    key = name.strip().lower()
    if key not in WORKLOAD_FACTORIES:
        raise ValidationError(
            f"unknown workload {name!r}; known workloads: "
            + ", ".join(WORKLOAD_FACTORIES)
        )
    common: dict[str, object] = {"load_gbps": load_gbps, "duplex": duplex}
    if key in ("fixed", "poisson"):
        return WORKLOAD_FACTORIES[key](size, **common)  # type: ignore[arg-type]
    if key == "bursty":
        return bursty_workload(
            size,
            load_gbps=load_gbps,
            duplex=duplex,
            burst_size=burst_size,
            peak_factor=peak_factor,
        )
    if key == "bursty-imix":
        return bursty_imix_workload(
            load_gbps=load_gbps,
            duplex=duplex,
            burst_size=burst_size,
            peak_factor=peak_factor,
        )
    return WORKLOAD_FACTORIES[key](**common)  # type: ignore[arg-type]
