"""IOMMU and IOTLB model.

When the IOMMU is enabled, every address in a PCIe transaction is an I/O
virtual address that must be translated.  Translations are cached in a small
IOTLB; a miss forces a multi-level page-table walk which the paper measures
at roughly 330 ns on its Intel systems, and which additionally occupies the
IOMMU's walk machinery, throttling the sustainable transaction rate.  The
paper infers a 64-entry IOTLB from the 256 KiB working-set knee with 4 KiB
pages (§6.5) and recommends super-pages to avoid the cliff.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import ValidationError
from ..units import KIB, MIB, GIB

#: Page sizes supported by the model (4 KiB, 2 MiB super-pages, 1 GiB pages).
SUPPORTED_PAGE_SIZES = (4 * KIB, 2 * MIB, 1 * GIB)

#: IOTLB capacity the paper infers for its Intel systems (§6.5).
DEFAULT_IOTLB_ENTRIES = 64
#: Cost of an IOTLB miss (full page table walk) measured in §6.5.
DEFAULT_WALK_LATENCY_NS = 330.0
#: Time the page-walk machinery is occupied per miss; bounds the transaction
#: rate under a miss storm and therefore the large-window bandwidth drop.
DEFAULT_WALKER_OCCUPANCY_NS = 60.0


@dataclass
class IommuStats:
    """Counters kept by the IOMMU model."""

    translations: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of translations served by the IOTLB."""
        return self.hits / self.translations if self.translations else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of translations requiring a page-table walk."""
        return self.misses / self.translations if self.translations else 0.0


@dataclass(frozen=True, slots=True)
class TranslationResult:
    """Outcome of translating one transaction's address."""

    hit: bool
    latency_ns: float
    walker_occupancy_ns: float = 0.0


class Iotlb:
    """A fully associative, LRU Translation Lookaside Buffer for I/O addresses."""

    def __init__(self, entries: int = DEFAULT_IOTLB_ENTRIES) -> None:
        if entries <= 0:
            raise ValidationError(f"IOTLB entries must be positive, got {entries}")
        self.entries = entries
        self._lru: OrderedDict[int, None] = OrderedDict()

    def lookup(self, page: int) -> bool:
        """Look up a page, updating LRU order; returns True on hit."""
        if page in self._lru:
            self._lru.move_to_end(page)
            return True
        return False

    def insert(self, page: int) -> int | None:
        """Insert a translation, returning the evicted page if any."""
        evicted = None
        if page in self._lru:
            self._lru.move_to_end(page)
            return None
        if len(self._lru) >= self.entries:
            evicted, _ = self._lru.popitem(last=False)
        self._lru[page] = None
        return evicted

    def invalidate_all(self) -> None:
        """Drop every cached translation (e.g. after an unmap)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, page: int) -> bool:
        return page in self._lru


@dataclass(frozen=True)
class IommuConfig:
    """Static configuration of the IOMMU model.

    Attributes:
        enabled: whether DMA addresses are translated at all (``intel_iommu=on``).
        page_size: page size of the IOVA mappings; 4 KiB unless super-pages
            are used (``sp_off`` forces 4 KiB as in the paper's experiments).
        iotlb_entries: number of IOTLB entries.
        walk_latency_ns: latency added to a transaction on an IOTLB miss.
        walker_occupancy_ns: time the walker is busy per miss (serialises
            concurrent misses and throttles throughput).
        hit_latency_ns: latency added on an IOTLB hit (effectively free).
    """

    enabled: bool = False
    page_size: int = 4 * KIB
    iotlb_entries: int = DEFAULT_IOTLB_ENTRIES
    walk_latency_ns: float = DEFAULT_WALK_LATENCY_NS
    walker_occupancy_ns: float = DEFAULT_WALKER_OCCUPANCY_NS
    hit_latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.page_size not in SUPPORTED_PAGE_SIZES:
            raise ValidationError(
                f"page_size must be one of {SUPPORTED_PAGE_SIZES}, got {self.page_size}"
            )
        if self.iotlb_entries <= 0:
            raise ValidationError(
                f"iotlb_entries must be positive, got {self.iotlb_entries}"
            )
        for attr in ("walk_latency_ns", "walker_occupancy_ns", "hit_latency_ns"):
            if getattr(self, attr) < 0:
                raise ValidationError(f"{attr} must be non-negative")

    @property
    def reach_bytes(self) -> int:
        """Working-set size fully covered by the IOTLB (entries x page size)."""
        return self.iotlb_entries * self.page_size


class Iommu:
    """Behavioural IOMMU: translates transaction addresses through the IOTLB."""

    def __init__(self, config: IommuConfig | None = None) -> None:
        self.config = config or IommuConfig()
        self.iotlb = Iotlb(self.config.iotlb_entries)
        self.stats = IommuStats()
        # The three possible outcomes, built once from the (frozen) config
        # and shared by every translation.
        self._untranslated = TranslationResult(hit=True, latency_ns=0.0)
        self._hit = TranslationResult(hit=True, latency_ns=self.config.hit_latency_ns)
        self._miss = TranslationResult(
            hit=False,
            latency_ns=self.config.walk_latency_ns,
            walker_occupancy_ns=self.config.walker_occupancy_ns,
        )

    @property
    def enabled(self) -> bool:
        """Whether translation is active."""
        return self.config.enabled

    def page_of(self, address: int) -> int:
        """Page number containing ``address`` for the configured page size."""
        if address < 0:
            raise ValidationError(f"address must be non-negative, got {address}")
        return address // self.config.page_size

    def translate(self, address: int) -> TranslationResult:
        """Translate one transaction's start address.

        A transaction that spans two pages would in reality require two
        translations; pcie-bench transfers are at most 2 KiB and start
        cache-line aligned, so a single translation per transaction is the
        common case and the model keeps that simplification.
        """
        config = self.config
        if not config.enabled:
            return self._untranslated
        if address < 0:
            raise ValidationError(f"address must be non-negative, got {address}")
        page = address // config.page_size
        stats = self.stats
        stats.translations += 1
        if self.iotlb.lookup(page):
            stats.hits += 1
            return self._hit
        stats.misses += 1
        self.iotlb.insert(page)
        return self._miss

    def warm(self, base_address: int, pages: int) -> None:
        """Pre-load ``pages`` consecutive translations from ``base_address``.

        Models a driver that has just mapped (and touched) a buffer.  The
        pages are inserted in address order, so the last is the most
        recently used.  Nothing is cached while translation is disabled.
        """
        if self.config.enabled:
            first = self.page_of(base_address)
            for page in range(first, first + pages):
                self.iotlb.insert(page)

    def invalidate(self) -> None:
        """Invalidate the IOTLB (unmap / domain flush)."""
        self.iotlb.invalidate_all()
        self.stats.invalidations += 1

    def reset_stats(self) -> None:
        """Zero the counters (between benchmark phases)."""
        self.stats = IommuStats()

    def expected_miss_rate(self, window_pages: int) -> float:
        """Analytical steady-state miss rate for uniform access over N pages.

        With a fully associative LRU TLB of E entries and uniform random
        page accesses over ``window_pages`` pages, the steady-state hit rate
        is ``min(1, E / window_pages)``.
        """
        if window_pages <= 0:
            raise ValidationError(
                f"window_pages must be positive, got {window_pages}"
            )
        if not self.config.enabled:
            return 0.0
        return max(0.0, 1.0 - self.config.iotlb_entries / window_pages)
