"""Benchmark parameters (§4 of the paper, Figure 3).

A pcie-bench micro-benchmark is fully described by:

* which benchmark to run (``LAT_RD``, ``LAT_WRRD``, ``BW_RD``, ``BW_WR``,
  ``BW_RDWR``),
* the host-buffer *window size* that is accessed repeatedly,
* the *transfer size* of every DMA,
* the *offset* of the DMA start within a cache line,
* the *access pattern* (random or sequential unit order),
* the *cache state* the window is prepared into (cold, host-warm,
  device-warm),
* the *NUMA placement* of the buffer (local or remote to the device),
* whether the *IOMMU* is enabled (and with which page size), and
* the system profile and device under test.

:class:`BenchmarkParams` validates these choices and knows how to derive the
simulation inputs from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..errors import ValidationError, record_reader
from ..units import CACHELINE_BYTES, KIB, MIB, format_size, parse_size
from ..sim.cache import CacheState
from ..sim.hostbuffer import AccessPattern, unit_bytes
from ..sim.rng import check_seed


class BenchmarkKind(enum.Enum):
    """The five micro-benchmarks of the pcie-bench methodology."""

    LAT_RD = "LAT_RD"
    LAT_WRRD = "LAT_WRRD"
    BW_RD = "BW_RD"
    BW_WR = "BW_WR"
    BW_RDWR = "BW_RDWR"

    @property
    def is_latency(self) -> bool:
        """Whether this benchmark reports per-transaction latency."""
        return self in (BenchmarkKind.LAT_RD, BenchmarkKind.LAT_WRRD)

    @property
    def is_bandwidth(self) -> bool:
        """Whether this benchmark reports sustained throughput."""
        return not self.is_latency

    @property
    def dma_operation(self) -> str:
        """The DMA-engine operation implementing this benchmark."""
        return {
            BenchmarkKind.LAT_RD: "read",
            BenchmarkKind.LAT_WRRD: "write_read",
            BenchmarkKind.BW_RD: "read",
            BenchmarkKind.BW_WR: "write",
            BenchmarkKind.BW_RDWR: "read_write",
        }[self]

    @classmethod
    def from_value(cls, value: "BenchmarkKind | str") -> "BenchmarkKind":
        """Coerce a name such as ``"bw_rd"`` or ``"LAT_RD"`` into a kind."""
        if isinstance(value, cls):
            return value
        text = str(value).strip().upper()
        try:
            return cls(text)
        except ValueError as exc:
            raise ValidationError(
                f"unknown benchmark {value!r}; valid: "
                + ", ".join(kind.value for kind in cls)
            ) from exc


class NumaPlacement(enum.Enum):
    """Where the benchmark buffer lives relative to the device's socket."""

    LOCAL = "local"
    REMOTE = "remote"

    @classmethod
    def from_value(cls, value: "NumaPlacement | str") -> "NumaPlacement":
        """Coerce ``"local"`` / ``"remote"`` into a placement."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError as exc:
            raise ValidationError(f"unknown NUMA placement {value!r}") from exc


#: Default number of timed transactions for latency benchmarks.  The paper
#: journals 2 million; the simulation defaults to a smaller sample that
#: yields stable medians and percentiles up to p99.9.
DEFAULT_LATENCY_SAMPLES = 20_000
#: Default number of DMAs for bandwidth benchmarks (8 million in the paper).
DEFAULT_BANDWIDTH_TRANSACTIONS = 4_000


@dataclass(frozen=True)
class BenchmarkParams:
    """Complete description of one micro-benchmark run."""

    kind: BenchmarkKind
    transfer_size: int
    window_size: int = 8 * KIB
    offset: int = 0
    pattern: AccessPattern = AccessPattern.RANDOM
    cache_state: CacheState = CacheState.COLD
    placement: NumaPlacement = NumaPlacement.LOCAL
    iommu_enabled: bool = False
    iommu_page_size: int = 4 * KIB
    system: str = "NFP6000-HSW"
    use_command_interface: bool = False
    transactions: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", BenchmarkKind.from_value(self.kind))
        object.__setattr__(self, "pattern", AccessPattern.from_value(self.pattern))
        object.__setattr__(
            self, "cache_state", CacheState.from_value(self.cache_state)
        )
        object.__setattr__(
            self, "placement", NumaPlacement.from_value(self.placement)
        )
        if self.transfer_size <= 0:
            raise ValidationError(
                f"transfer_size must be positive, got {self.transfer_size}"
            )
        if not 0 <= self.offset < CACHELINE_BYTES:
            raise ValidationError(
                f"offset must be within [0, {CACHELINE_BYTES}), got {self.offset}"
            )
        unit = unit_bytes(self.transfer_size, self.offset)
        if self.window_size < unit:
            raise ValidationError(
                f"window of {self.window_size} bytes cannot hold a single "
                f"{unit}-byte unit (offset plus transfer_size, rounded up "
                "to a cache line)"
            )
        if self.transactions is not None and self.transactions <= 0:
            raise ValidationError(
                f"transactions must be positive, got {self.transactions}"
            )
        if self.seed is not None:
            check_seed(self.seed)

    # -- derived values ---------------------------------------------------------

    @property
    def effective_transactions(self) -> int:
        """Number of transactions to run, applying the per-kind default."""
        if self.transactions is not None:
            return self.transactions
        if self.kind.is_latency:
            return DEFAULT_LATENCY_SAMPLES
        return DEFAULT_BANDWIDTH_TRANSACTIONS

    def with_(self, **changes: object) -> "BenchmarkParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def label(self) -> str:
        """Compact human-readable description used in logs and reports."""
        parts = [
            self.kind.value,
            f"{self.transfer_size}B",
            f"win={format_size(self.window_size)}",
            self.cache_state.value,
            self.system,
        ]
        if self.offset:
            parts.append(f"off={self.offset}")
        if self.placement is NumaPlacement.REMOTE:
            parts.append("remote")
        if self.iommu_enabled:
            parts.append("iommu")
        return " ".join(parts)

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation of the parameters."""
        return {
            "kind": self.kind.value,
            "transfer_size": self.transfer_size,
            "window_size": self.window_size,
            "offset": self.offset,
            "pattern": self.pattern.value,
            "cache_state": self.cache_state.value,
            "placement": self.placement.value,
            "iommu_enabled": self.iommu_enabled,
            "iommu_page_size": self.iommu_page_size,
            "system": self.system,
            "use_command_interface": self.use_command_interface,
            "transactions": self.effective_transactions,
            "seed": self.seed,
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "BenchmarkParams":
        """Rebuild parameters from :meth:`as_dict` output."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs = {key: value for key, value in data.items() if key in known}
        if "window_size" in kwargs and isinstance(kwargs["window_size"], str):
            kwargs["window_size"] = parse_size(kwargs["window_size"])
        return cls(**kwargs)  # type: ignore[arg-type]


#: The window-size sweep used by the cache, NUMA and IOMMU experiments
#: (Figures 7, 8 and 9): 4 KiB to 64 MiB in powers of four.
WINDOW_SWEEP = tuple(4 * KIB * (4**i) for i in range(8))

#: The transfer sizes highlighted throughout Section 6.
COMMON_TRANSFER_SIZES = (64, 128, 256, 512, 1024, 2048)
