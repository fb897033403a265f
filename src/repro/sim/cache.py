"""Last level cache (LLC) and Data Direct I/O (DDIO) models.

On the Intel systems the paper studies, the PCIe root complex is integrated
with the CPU's uncore and DMAs interact with the last level cache:

* DMA reads are serviced from the LLC when the target line is resident,
  saving roughly 70 ns over a memory access (§6.3).
* DMA writes allocate into a slice of the LLC reserved for DDIO (about 10%
  of the cache).  While the working set fits that slice, writes (and the
  reads that follow them in ``LAT_WRRD``) stay in the cache; beyond it,
  dirty lines must be written back to memory first, costing about 70 ns.

Two implementations are provided:

:class:`SetAssociativeCache`
    A faithful, line-granular, set-associative LRU cache with a DDIO way
    mask.  Exact but O(lines) to warm, so best suited to unit tests, small
    windows and detailed studies.

:class:`StatisticalCache`
    A capacity-occupancy approximation that answers "is this line resident?"
    probabilistically from the window size, warm state and DDIO capacity.
    This is what the benchmark fast path uses for multi-megabyte windows,
    where warming a line-accurate model would dominate run time without
    changing the observable medians.

Both expose the same :class:`CacheInterface` protocol so the root complex
does not care which one it is given.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from ..errors import ValidationError
from ..units import CACHELINE_BYTES, MIB
from .rng import SimRng


def _check_partition_shares(shares: Sequence[float]) -> tuple[float, ...]:
    """Validate and normalise per-partition capacity shares."""
    values = tuple(float(share) for share in shares)
    if len(values) < 2:
        raise ValidationError(
            f"a partition needs at least two shares, got {len(values)}"
        )
    if any(share <= 0 for share in values):
        raise ValidationError(f"partition shares must be positive, got {values}")
    total = sum(values)
    return tuple(share / total for share in values)


class CacheState(enum.Enum):
    """How the benchmark prepares the cache before measuring (§4)."""

    #: Cache thrashed before the run: no benchmark line is resident.
    COLD = "cold"
    #: Host CPU wrote the window before the run: lines resident up to LLC size.
    HOST_WARM = "host_warm"
    #: Device DMA-wrote the window before the run: lines resident only up to
    #: the DDIO slice of the LLC.
    DEVICE_WARM = "device_warm"

    @classmethod
    def from_value(cls, value: "CacheState | str") -> "CacheState":
        """Coerce ``"cold"`` / ``"warm"`` / ``"host_warm"`` / ``"device_warm"``."""
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        if text == "warm":
            return cls.HOST_WARM
        try:
            return cls(text)
        except ValueError as exc:
            raise ValidationError(f"unknown cache state {value!r}") from exc


@dataclass(frozen=True, slots=True)
class CacheAccessResult:
    """Outcome of one cache access initiated by a DMA."""

    #: The access was served by the LLC (line was resident).
    hit: bool
    #: The access had to evict a dirty line first (DDIO slice overflow on writes).
    writeback_required: bool = False
    #: The line was newly allocated into the cache by this access.
    allocated: bool = False


#: The statistical model's four possible outcomes, shared by every access.
_HIT = CacheAccessResult(hit=True)
_MISS = CacheAccessResult(hit=False)
_ALLOCATED = CacheAccessResult(hit=False, allocated=True)
_ALLOCATED_WRITEBACK = CacheAccessResult(
    hit=False, writeback_required=True, allocated=True
)


class CacheInterface(Protocol):
    """Protocol shared by the faithful and the statistical cache models."""

    llc_bytes: int
    ddio_fraction: float

    def read(self, line_address: int) -> CacheAccessResult:
        """Device DMA read touching ``line_address`` (a cache-line index)."""

    def write(self, line_address: int) -> CacheAccessResult:
        """Device DMA write touching ``line_address`` (a cache-line index)."""

    def prepare(self, state: CacheState, window_lines: int) -> None:
        """Prime the cache for a benchmark over ``window_lines`` distinct lines."""

    @property
    def ddio_bytes(self) -> int:
        """Capacity of the DDIO slice in bytes."""
        ...


#: Fraction of the LLC reserved for DDIO write allocation on the paper's systems.
DEFAULT_DDIO_FRACTION = 0.10
#: Default LLC size of the Table 1 systems (all 15 MiB except the 25 MiB BDW).
DEFAULT_LLC_BYTES = 15 * MIB


def _check_cache_args(llc_bytes: int, ddio_fraction: float) -> None:
    if llc_bytes <= 0:
        raise ValidationError(f"llc_bytes must be positive, got {llc_bytes}")
    if not 0.0 < ddio_fraction <= 1.0:
        raise ValidationError(
            f"ddio_fraction must be in (0, 1], got {ddio_fraction}"
        )


# ---------------------------------------------------------------------------
# Faithful model
# ---------------------------------------------------------------------------


class SetAssociativeCache:
    """Line-accurate set-associative LRU cache with a DDIO way restriction.

    The model tracks which cache lines are resident and dirty.  Device writes
    may only allocate into ``ddio_ways`` of each set (mirroring how DDIO
    restricts write allocation to a subset of LLC ways), while host warming
    and device reads that hit keep lines in the general portion.

    :meth:`partition_ddio` additionally splits the DDIO ways between
    *owners* (devices sharing the cache, identified by a line-address
    resolver): each owner's write allocations are confined to its own way
    budget, so one device's bulk writes can only evict that device's own
    DDIO lines — the isolation mechanism way-partitioned DDIO provides on
    real uncores.  Unpartitioned caches behave exactly as before (one
    owner holding every DDIO way).
    """

    def __init__(
        self,
        llc_bytes: int = DEFAULT_LLC_BYTES,
        *,
        ways: int = 20,
        ddio_fraction: float = DEFAULT_DDIO_FRACTION,
        line_bytes: int = CACHELINE_BYTES,
    ) -> None:
        _check_cache_args(llc_bytes, ddio_fraction)
        if ways <= 0:
            raise ValidationError(f"ways must be positive, got {ways}")
        if line_bytes <= 0:
            raise ValidationError(f"line_bytes must be positive, got {line_bytes}")
        total_lines = llc_bytes // line_bytes
        if total_lines < ways:
            raise ValidationError("cache too small for the requested associativity")
        self.llc_bytes = llc_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.ddio_fraction = ddio_fraction
        self.ddio_ways = max(1, int(round(ways * ddio_fraction)))
        self.sets = total_lines // ways
        # Each set maps line_address -> dirty flag, in LRU order (oldest first).
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.sets)
        ]
        # Lines allocated by device writes (the DDIO-occupancy accounting),
        # per set and per DDIO-way partition; unpartitioned caches hold one
        # partition owning every DDIO way.
        self._ddio_budgets: tuple[int, ...] = (self.ddio_ways,)
        self._ddio_owner: Callable[[int], int] | None = None
        self._ddio_lines: list[list[set[int]]] = [
            [set()] for _ in range(self.sets)
        ]
        self.stats = CacheStats()

    @property
    def ddio_bytes(self) -> int:
        """Capacity available to DDIO write allocation."""
        return self.sets * self.ddio_ways * self.line_bytes

    @property
    def ddio_way_split(self) -> tuple[int, ...]:
        """Per-partition DDIO way budgets (one entry when unpartitioned)."""
        return self._ddio_budgets

    def partition_ddio(
        self, shares: Sequence[float], owner: Callable[[int], int]
    ) -> None:
        """Split the DDIO ways between owners resolved per line address.

        Args:
            shares: relative way shares, one per owner (normalised; every
                owner is guaranteed at least one way).
            owner: maps a line address to its owner index — typically the
                device an address region belongs to.
        """
        normalised = _check_partition_shares(shares)
        if len(normalised) > self.ddio_ways:
            raise ValidationError(
                f"cannot split {self.ddio_ways} DDIO ways between "
                f"{len(normalised)} owners (each needs at least one way)"
            )
        budgets = [
            max(1, int(self.ddio_ways * share)) for share in normalised
        ]
        # Trim the largest budgets until the split fits the DDIO ways.
        while sum(budgets) > self.ddio_ways:
            largest = max(range(len(budgets)), key=lambda i: (budgets[i], -i))
            budgets[largest] -= 1
        self._ddio_budgets = tuple(budgets)
        self._ddio_owner = owner
        self._ddio_lines = [
            [set() for _ in budgets] for _ in range(self.sets)
        ]

    def _owner(self, line_address: int) -> int:
        if self._ddio_owner is None:
            return 0
        return self._ddio_owner(line_address)

    def _set_index(self, line_address: int) -> int:
        return line_address % self.sets

    # -- device-side accesses -----------------------------------------------------

    def read(self, line_address: int) -> CacheAccessResult:
        """Device DMA read: hits if resident, never allocates on miss."""
        index = self._set_index(line_address)
        cache_set = self._sets[index]
        if line_address in cache_set:
            cache_set.move_to_end(line_address)
            self.stats.read_hits += 1
            return CacheAccessResult(hit=True)
        self.stats.read_misses += 1
        return CacheAccessResult(hit=False)

    def write(self, line_address: int) -> CacheAccessResult:
        """Device DMA write: hits update in place, misses allocate via DDIO."""
        index = self._set_index(line_address)
        cache_set = self._sets[index]
        if line_address in cache_set:
            cache_set[line_address] = True
            cache_set.move_to_end(line_address)
            self.stats.write_hits += 1
            return CacheAccessResult(hit=True)

        part = self._owner(line_address)
        ddio_lines = self._ddio_lines[index][part]
        writeback = False
        if len(ddio_lines) >= self._ddio_budgets[part]:
            # The owner's DDIO portion of this set is full: evict its own
            # oldest line (never a neighbouring partition's).
            victim = next(
                (line for line in cache_set if line in ddio_lines), None
            )
            if victim is not None:
                writeback = cache_set.pop(victim)
                ddio_lines.discard(victim)
        cache_set[line_address] = True
        ddio_lines.add(line_address)
        self._evict_overflow(index)
        self.stats.write_misses += 1
        if writeback:
            self.stats.writebacks += 1
        return CacheAccessResult(hit=False, writeback_required=bool(writeback), allocated=True)

    # -- host-side priming ----------------------------------------------------------

    def host_touch(self, line_address: int, *, dirty: bool = True) -> None:
        """The host CPU reads/writes a line, installing it in the general LLC."""
        index = self._set_index(line_address)
        cache_set = self._sets[index]
        if line_address in cache_set:
            cache_set.move_to_end(line_address)
            cache_set[line_address] = cache_set[line_address] or dirty
            return
        cache_set[line_address] = dirty
        self._ddio_lines[index][self._owner(line_address)].discard(line_address)
        self._evict_overflow(index)

    def thrash(self) -> None:
        """Empty the cache (the benchmark's default cold-cache preparation)."""
        for cache_set in self._sets:
            cache_set.clear()
        for partitions in self._ddio_lines:
            for ddio in partitions:
                ddio.clear()

    def prepare(self, state: CacheState, window_lines: int) -> None:
        """Prime the cache per the benchmark's cache-state parameter."""
        self.thrash()
        if state is CacheState.COLD:
            return
        for line in range(window_lines):
            if state is CacheState.HOST_WARM:
                self.host_touch(line)
            else:
                self.write(line)

    # -- internals --------------------------------------------------------------------

    def _evict_overflow(self, index: int) -> None:
        cache_set = self._sets[index]
        while len(cache_set) > self.ways:
            victim, dirty = cache_set.popitem(last=False)
            self._ddio_lines[index][self._owner(victim)].discard(victim)
            if dirty:
                self.stats.writebacks += 1

    def resident(self, line_address: int) -> bool:
        """Whether a line is currently cached (test/inspection helper)."""
        return line_address in self._sets[self._set_index(line_address)]

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(cache_set) for cache_set in self._sets)


@dataclass
class CacheStats:
    """Hit/miss counters kept by the faithful cache model."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def read_hit_rate(self) -> float:
        """Fraction of device reads served by the cache."""
        total = self.read_hits + self.read_misses
        return self.read_hits / total if total else 0.0

    @property
    def write_hit_rate(self) -> float:
        """Fraction of device writes that found their line resident."""
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Statistical model
# ---------------------------------------------------------------------------


class StatisticalCache:
    """Occupancy-based cache approximation used for large benchmark windows.

    Rather than tracking every line, the model keeps the probability that a
    uniformly chosen line of the benchmark window is resident, derived from
    the window size, the preparation state and the DDIO capacity:

    * host-warm: resident fraction ``min(1, llc_capacity / window)``;
    * device-warm: resident fraction ``min(1, ddio_capacity / window)``;
    * cold: nothing resident (until device writes allocate lines).

    Device writes allocate lines into the DDIO slice; once the window
    exceeds that slice a write evicts (and must write back) a previously
    allocated dirty line with probability ``ddio_capacity / window``
    approaching one, reproducing the LAT_WRRD behaviour of Figure 7(a).

    :meth:`partition` splits the modelled capacity into per-owner slices
    routed by line address (the statistical counterpart of DDIO way
    partitioning): each owner's residency and write-back probabilities
    are computed against *its* slice and *its* window alone, so a bulk
    neighbour's working set no longer dilutes a small owner's hit
    probability.  Unpartitioned caches behave exactly as before.
    """

    def __init__(
        self,
        llc_bytes: int = DEFAULT_LLC_BYTES,
        *,
        ddio_fraction: float = DEFAULT_DDIO_FRACTION,
        line_bytes: int = CACHELINE_BYTES,
        rng: SimRng | None = None,
        effective_capacity_fraction: float = 0.95,
    ) -> None:
        _check_cache_args(llc_bytes, ddio_fraction)
        if not 0.0 < effective_capacity_fraction <= 1.0:
            raise ValidationError(
                "effective_capacity_fraction must be in (0, 1], got "
                f"{effective_capacity_fraction}"
            )
        self.llc_bytes = llc_bytes
        self.ddio_fraction = ddio_fraction
        self.line_bytes = line_bytes
        self.effective_capacity_fraction = effective_capacity_fraction
        self._rng = rng or SimRng()
        # Uniforms drawn in blocks: the cache is the stream's only reader
        # (a host that rebuilds its cache model hands the rebuilt one the
        # same shared iterator), so the values are the scalar draws'.
        self._uniforms = self._rng.uniforms("cache.statistical")
        self._window_lines = 0
        self._resident_fraction = 0.0
        self._writeback_probability = 0.0
        self._partition_shares: tuple[float, ...] | None = None
        self._partition_of: Callable[[int], int] | None = None
        self._partition_resident: list[float] = []
        self._partition_writeback: list[float] = []
        self.stats = CacheStats()

    @property
    def ddio_bytes(self) -> int:
        """Capacity available to DDIO write allocation."""
        return int(self.llc_bytes * self.ddio_fraction)

    @property
    def llc_lines(self) -> int:
        """Usable LLC capacity in cache lines."""
        return int(
            self.llc_bytes * self.effective_capacity_fraction / self.line_bytes
        )

    @property
    def ddio_lines(self) -> int:
        """DDIO slice capacity in cache lines."""
        return max(1, int(self.ddio_bytes / self.line_bytes))

    @property
    def resident_fraction(self) -> float:
        """Probability that a window line is resident (inspection helper)."""
        return self._resident_fraction

    @property
    def partitions(self) -> int:
        """Number of capacity partitions (0 when unpartitioned)."""
        return 0 if self._partition_shares is None else len(self._partition_shares)

    def partition(
        self, shares: Sequence[float], owner: Callable[[int], int]
    ) -> None:
        """Split the modelled capacity into per-owner slices.

        Args:
            shares: relative capacity shares, one per owner (normalised).
            owner: maps a line address to its owner index.

        Partitions start cold; prime each with :meth:`prepare_partition`.
        A later plain :meth:`prepare` returns the model to its single
        shared window.
        """
        self._partition_shares = _check_partition_shares(shares)
        self._partition_of = owner
        count = len(self._partition_shares)
        self._partition_resident = [0.0] * count
        self._partition_writeback = [0.0] * count

    def prepare_partition(
        self, index: int, state: CacheState | str, window_lines: int
    ) -> None:
        """Prime one partition for an owner touching ``window_lines`` lines."""
        if self._partition_shares is None:
            raise ValidationError(
                "partition the cache before preparing a partition"
            )
        if not 0 <= index < len(self._partition_shares):
            raise ValidationError(
                f"partition index must be within "
                f"[0, {len(self._partition_shares)}), got {index}"
            )
        if window_lines <= 0:
            raise ValidationError(
                f"window_lines must be positive, got {window_lines}"
            )
        state = CacheState.from_value(state)
        share = self._partition_shares[index]
        capacity_lines = max(1, int(self.llc_lines * share))
        ddio_lines = max(1, int(self.ddio_lines * share))
        if state is CacheState.COLD:
            resident = 0.0
        elif state is CacheState.HOST_WARM:
            resident = min(1.0, capacity_lines / window_lines)
        else:  # DEVICE_WARM
            resident = min(1.0, ddio_lines / window_lines)
        self._partition_resident[index] = resident
        self._partition_writeback[index] = max(
            0.0, 1.0 - ddio_lines / window_lines
        )

    def prepare(self, state: CacheState, window_lines: int) -> None:
        """Prime the model for a benchmark touching ``window_lines`` lines."""
        if window_lines <= 0:
            raise ValidationError(
                f"window_lines must be positive, got {window_lines}"
            )
        state = CacheState.from_value(state)
        # A plain preparation reverts to the single shared window; the
        # partitioned state is per-benchmark, not per-cache-lifetime.
        self._partition_shares = None
        self._partition_of = None
        self._window_lines = window_lines
        if state is CacheState.COLD:
            self._resident_fraction = 0.0
        elif state is CacheState.HOST_WARM:
            self._resident_fraction = min(1.0, self.llc_lines / window_lines)
        else:  # DEVICE_WARM
            self._resident_fraction = min(1.0, self.ddio_lines / window_lines)
        # Steady-state pressure on the DDIO slice: when the set of lines the
        # device writes does not fit the slice, almost every write allocation
        # evicts a dirty DDIO line that must be written back first (§6.3).
        self._writeback_probability = max(0.0, 1.0 - self.ddio_lines / window_lines)

    def read(self, line_address: int) -> CacheAccessResult:
        """Device DMA read: hit with the owner slice's resident probability."""
        if self._partition_of is None:
            resident = self._resident_fraction
        else:
            resident = self._partition_resident[self._partition_of(line_address)]
        if next(self._uniforms) < resident:
            self.stats.read_hits += 1
            return _HIT
        self.stats.read_misses += 1
        return _MISS

    def write(self, line_address: int) -> CacheAccessResult:
        """Device DMA write: resident lines update in place, misses use DDIO."""
        if self._partition_of is None:
            resident = self._resident_fraction
            writeback_probability = self._writeback_probability
        else:
            index = self._partition_of(line_address)
            resident = self._partition_resident[index]
            writeback_probability = self._partition_writeback[index]
        if next(self._uniforms) < resident:
            self.stats.write_hits += 1
            return _HIT
        self.stats.write_misses += 1
        # Write allocation into the DDIO slice: when the benchmark window
        # exceeds the slice, allocations evict dirty DDIO lines which must be
        # written back to memory before the new write can complete.
        if next(self._uniforms) < writeback_probability:
            self.stats.writebacks += 1
            return _ALLOCATED_WRITEBACK
        return _ALLOCATED
