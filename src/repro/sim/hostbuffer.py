"""Host buffer layout and access-pattern generation (Figure 3 of the paper).

A pcie-bench run DMAs into a logically contiguous host buffer.  Only a
*window* of the buffer is accessed repeatedly so cache effects can be
studied; the window is divided into equally sized *units*, each unit being
the transfer size plus the intra-cache-line offset rounded up to a whole
number of cache lines, so every DMA touches the same number of cache lines.
Units are visited sequentially or in random order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..units import CACHELINE_BYTES, align_up
from .rng import SimRng


class AccessPattern(enum.Enum):
    """Order in which units of the window are visited."""

    RANDOM = "random"
    SEQUENTIAL = "sequential"

    @classmethod
    def from_value(cls, value: "AccessPattern | str") -> "AccessPattern":
        """Coerce a string (``"random"`` / ``"sequential"``) into a pattern."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError as exc:
            raise ValidationError(f"unknown access pattern {value!r}") from exc


def unit_bytes(transfer_size: int, offset: int = 0) -> int:
    """Size of one unit: offset + transfer size rounded up to a cache line."""
    return align_up(offset + transfer_size, CACHELINE_BYTES)


@dataclass(frozen=True)
class HostBuffer:
    """A DMA target buffer on the host (Figure 3).

    Attributes:
        window_size: number of bytes accessed repeatedly by the benchmark.
        transfer_size: bytes moved by each DMA.
        offset: starting offset of each DMA within its unit (to study
            unaligned accesses); 0 keeps every DMA cache-line aligned.
        total_size: allocated buffer size; must be at least ``window_size``
            and is usually much larger than the LLC so that thrashing the
            cache is meaningful.
        numa_node: NUMA node the buffer's memory is allocated on.
        base_address: I/O virtual (DMA) address of the buffer start; only
            its alignment matters to the model.
        page_size: page size backing the buffer (4 KiB by default; 2 MiB or
            1 GiB when the driver allocates from hugetlbfs).
    """

    window_size: int
    transfer_size: int
    offset: int = 0
    total_size: int | None = None
    numa_node: int = 0
    base_address: int = 0
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.transfer_size <= 0:
            raise ValidationError(
                f"transfer_size must be positive, got {self.transfer_size}"
            )
        if self.window_size <= 0:
            raise ValidationError(
                f"window_size must be positive, got {self.window_size}"
            )
        if self.offset < 0 or self.offset >= CACHELINE_BYTES:
            raise ValidationError(
                f"offset must be within [0, {CACHELINE_BYTES}), got {self.offset}"
            )
        if self.page_size <= 0 or self.page_size % CACHELINE_BYTES:
            raise ValidationError(
                f"page_size must be a positive multiple of {CACHELINE_BYTES}"
            )
        if self.numa_node < 0:
            raise ValidationError(f"numa_node must be >= 0, got {self.numa_node}")
        if self.base_address < 0:
            raise ValidationError(
                f"base_address must be >= 0, got {self.base_address}"
            )
        if self.unit_size > self.window_size:
            raise ValidationError(
                f"window of {self.window_size} bytes cannot hold a single "
                f"{self.unit_size}-byte unit"
            )
        if self.total_size is not None and self.total_size < self.window_size:
            raise ValidationError(
                "total_size must be at least window_size "
                f"({self.total_size} < {self.window_size})"
            )

    # -- layout ------------------------------------------------------------------

    @property
    def unit_size(self) -> int:
        """Size of one unit (see :func:`unit_bytes`)."""
        return unit_bytes(self.transfer_size, self.offset)

    @property
    def unit_count(self) -> int:
        """Number of whole units in the window."""
        return self.window_size // self.unit_size

    @property
    def cachelines_per_unit(self) -> int:
        """Cache lines touched by each DMA (identical for every unit)."""
        return self.unit_size // CACHELINE_BYTES

    @property
    def window_cachelines(self) -> int:
        """Number of distinct cache lines the benchmark touches."""
        return self.unit_count * self.cachelines_per_unit

    @property
    def window_pages(self) -> int:
        """Number of distinct pages the accessed window spans."""
        last_byte = self.unit_address(self.unit_count - 1) + self.transfer_size - 1
        first_page = self.base_address // self.page_size
        last_page = last_byte // self.page_size
        return int(last_page - first_page + 1)

    def unit_address(self, unit_index: int) -> int:
        """DMA start address of the given unit."""
        if not 0 <= unit_index < self.unit_count:
            raise ValidationError(
                f"unit index {unit_index} out of range [0, {self.unit_count})"
            )
        return self.base_address + unit_index * self.unit_size + self.offset

    def page_of(self, address: int) -> int:
        """Page number containing ``address``."""
        return address // self.page_size

    # -- access streams ------------------------------------------------------------

    def access_addresses(
        self,
        count: int,
        pattern: AccessPattern | str = AccessPattern.RANDOM,
        rng: SimRng | None = None,
    ) -> np.ndarray:
        """DMA start addresses for ``count`` accesses under the given pattern.

        Random patterns draw units uniformly (the paper's default); the
        sequential pattern walks units in order, wrapping around the window.
        """
        if count < 0:
            raise ValidationError(f"count must be non-negative, got {count}")
        pattern = AccessPattern.from_value(pattern)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if pattern is AccessPattern.SEQUENTIAL:
            indices = np.arange(count, dtype=np.int64) % self.unit_count
        else:
            rng = rng or SimRng()
            indices = rng.uniform_indices("hostbuffer.access", count, self.unit_count)
        return (
            np.int64(self.base_address)
            + indices * np.int64(self.unit_size)
            + np.int64(self.offset)
        )

    def describe(self) -> dict[str, int]:
        """Layout summary used in reports and tests."""
        return {
            "window_size": self.window_size,
            "transfer_size": self.transfer_size,
            "offset": self.offset,
            "unit_size": self.unit_size,
            "unit_count": self.unit_count,
            "cachelines_per_unit": self.cachelines_per_unit,
            "window_pages": self.window_pages,
            "numa_node": self.numa_node,
            "page_size": self.page_size,
        }
