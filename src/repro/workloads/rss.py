"""RSS-style flow-to-queue steering.

Real NICs hash a flow key (Toeplitz over the 5-tuple, seeded by a random
key the driver programs at probe time) into an indirection table that picks
the RX/TX queue pair.  The simulator keeps the two properties that matter
for studying queue imbalance and drops everything else:

* **determinism per seed** — the same (flow, queue count, seed) triple
  always maps to the same queue, across runs, platforms and Python
  versions (the hash is pure 64-bit integer arithmetic, no ``hash()``);
* **avalanche** — nearby flow labels land on unrelated queues, so a flow
  model's popularity skew, not label locality, decides the imbalance.

The mix function is the splitmix64 finaliser, applied to the flow label
XOR a seed-derived constant; everything is vectorised over numpy uint64
(whose arithmetic wraps, exactly like the C it models).
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

from ..errors import ValidationError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(value: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """The splitmix64 finaliser (full-avalanche 64-bit mix)."""
    with np.errstate(over="ignore"):
        value = (value + _GOLDEN) & _MASK
        value ^= value >> np.uint64(30)
        value = (value * _MIX_1) & _MASK
        value ^= value >> np.uint64(27)
        value = (value * _MIX_2) & _MASK
        value ^= value >> np.uint64(31)
    return value


def rss_queues(
    flows: np.ndarray, num_queues: int, *, seed: int = 0
) -> np.ndarray:
    """Map an array of flow labels to queue indices.

    Args:
        flows: integer flow labels (any non-negative integer dtype).
        num_queues: number of RX/TX queue pairs; must be positive.
        seed: RSS key seed; a different seed permutes the whole mapping
            (the driver reprogramming its Toeplitz key).

    Returns:
        int64 array of queue indices in ``[0, num_queues)``, same shape as
        ``flows``.
    """
    if num_queues <= 0:
        raise ValidationError(f"num_queues must be positive, got {num_queues}")
    labels = np.asarray(flows)
    if labels.size and labels.min() < 0:
        raise ValidationError("flow labels must be non-negative")
    if num_queues == 1:
        return np.zeros(labels.shape, dtype=np.int64)
    key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    hashed = _mix64(labels.astype(np.uint64) ^ key)
    return (hashed % np.uint64(num_queues)).astype(np.int64)


def rss_queue(flow: int, num_queues: int, *, seed: int = 0) -> int:
    """Scalar convenience wrapper around :func:`rss_queues`."""
    return int(rss_queues(np.asarray([flow]), num_queues, seed=seed)[0])


def rss_buckets(
    flows: np.ndarray, buckets: int, *, seed: int = 0
) -> np.ndarray:
    """Map flow labels to indirection-table *buckets* (``hash % buckets``).

    Real NICs interpose a driver-writable indirection table between the
    hash and the queue: ``queue = table[hash % len(table)]``.  This is
    the ``hash % len(table)`` half, using the exact mix as
    :func:`rss_queues`, so ``table[b] = b % num_queues`` with
    ``num_queues | buckets`` reproduces the direct mapping bucket for
    bucket — the identity the static-RSS golden contract rests on — while
    any other table contents re-steer flows without touching the hash.
    """
    if buckets <= 0:
        raise ValidationError(f"buckets must be positive, got {buckets}")
    labels = np.asarray(flows)
    if labels.size and labels.min() < 0:
        raise ValidationError("flow labels must be non-negative")
    key = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    hashed = _mix64(labels.astype(np.uint64) ^ key)
    return (hashed % np.uint64(buckets)).astype(np.int64)


def check_rss_table(
    table: Sequence[int] | None, num_queues: int
) -> tuple[int, ...] | None:
    """Validate an RSS indirection table for a ``num_queues``-queue device.

    Returns the table as a tuple of ints (``None`` stays ``None``, which
    means the identity table).  Raises :class:`ValidationError` when the
    table is not a list or tuple of whole numbers, the device has a single
    queue, the table is empty, or an entry names no queue.
    """
    if table is None:
        return None
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(entry, numbers.Integral)
        or isinstance(entry, float) and entry.is_integer()
        for entry in table
    ):
        raise ValidationError(
            f"rss_table must be a list of queue indices, got {table!r}"
        )
    if num_queues <= 1:
        raise ValidationError(
            "rss_table requires num_queues > 1 (single-queue runs have "
            "nothing to steer)"
        )
    entries = tuple(int(entry) for entry in table)
    if not entries:
        raise ValidationError("rss_table must not be empty")
    for entry in entries:
        if not 0 <= entry < num_queues:
            raise ValidationError(
                f"rss_table entries must be queue indices in "
                f"[0, {num_queues}), got {entry}"
            )
    return entries
