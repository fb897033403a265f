"""Unit helpers used throughout the library.

The paper (and therefore this library) mixes several unit systems:

* sizes in bytes, with power-of-two multiples (KiB, MiB) for buffers and
  cache sizes, and decimal byte counts for transfer sizes;
* bandwidth in Gb/s (decimal, as used for Ethernet and PCIe marketing
  numbers) and bytes per nanosecond internally;
* time in nanoseconds (the natural unit for PCIe transactions) and seconds
  for wall-clock style results.

These helpers keep conversions explicit and in one place.
"""

from __future__ import annotations

import re

from .errors import ValidationError

# ---------------------------------------------------------------------------
# Byte sizes
# ---------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

#: Size of a host cache line in bytes on every system studied by the paper.
CACHELINE_BYTES = 64

_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": KIB,
    "kb": KB,
    "kib": KIB,
    "m": MIB,
    "mb": MB,
    "mib": MIB,
    "g": GIB,
    "gb": GB,
    "gib": GIB,
}

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str | int) -> int:
    """Parse a human-readable size such as ``"64"``, ``"8K"`` or ``"64MiB"``.

    Bare ``K``/``M``/``G`` suffixes are binary multiples (matching how the
    paper labels window sizes, e.g. ``256K`` meaning 256 KiB); explicit
    ``KB``/``MB``/``GB`` are decimal and ``KiB``/``MiB``/``GiB`` binary.

    Args:
        text: the size string, or an integer which is returned unchanged.

    Returns:
        The size in bytes.

    Raises:
        ValidationError: if the string cannot be parsed.
    """
    if isinstance(text, int):
        if text < 0:
            raise ValidationError(f"size must be non-negative, got {text}")
        return text
    match = _SIZE_RE.match(str(text))
    if not match:
        raise ValidationError(f"cannot parse size {text!r}")
    value, suffix = match.groups()
    multiplier = _SIZE_SUFFIXES.get(suffix.lower())
    if multiplier is None:
        raise ValidationError(f"unknown size suffix {suffix!r} in {text!r}")
    return int(float(value) * multiplier)


def format_size(size: int) -> str:
    """Format a byte count using binary multiples, e.g. ``65536 -> "64K"``.

    The output matches the axis labels used in the paper's figures.
    """
    if size < 0:
        raise ValidationError(f"size must be non-negative, got {size}")
    if size >= GIB and size % GIB == 0:
        return f"{size // GIB}G"
    if size >= MIB and size % MIB == 0:
        return f"{size // MIB}M"
    if size >= KIB and size % KIB == 0:
        return f"{size // KIB}K"
    return f"{size}B"


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValidationError(f"alignment must be positive, got {alignment}")
    return ((value + alignment - 1) // alignment) * alignment


# ---------------------------------------------------------------------------
# Time
# ---------------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def ns_to_s(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / NS_PER_S


def format_ns(ns: float) -> str:
    """Format a duration in ns using the most readable unit."""
    if ns < 0:
        return f"-{format_ns(-ns)}"
    if ns < 1_000:
        return f"{ns:.0f}ns"
    if ns < NS_PER_MS:
        return f"{ns / NS_PER_US:.2f}us"
    if ns < NS_PER_S:
        return f"{ns / NS_PER_MS:.2f}ms"
    return f"{ns / NS_PER_S:.3f}s"


# ---------------------------------------------------------------------------
# Bandwidth
# ---------------------------------------------------------------------------


def bytes_per_ns_to_gbps(bytes_per_ns: float) -> float:
    """Convert bytes per nanosecond into decimal Gb/s."""
    return bytes_per_ns * 8.0


def bytes_over_time_to_gbps(num_bytes: float, duration_ns: float) -> float:
    """Throughput in Gb/s for ``num_bytes`` transferred in ``duration_ns``."""
    if duration_ns <= 0:
        raise ValidationError(f"duration must be positive, got {duration_ns}")
    return bytes_per_ns_to_gbps(num_bytes / duration_ns)


def transactions_per_second(count: int, duration_ns: float) -> float:
    """Transaction rate for ``count`` operations in ``duration_ns``."""
    if duration_ns <= 0:
        raise ValidationError(f"duration must be positive, got {duration_ns}")
    return count / ns_to_s(duration_ns)
