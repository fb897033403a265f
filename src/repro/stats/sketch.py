"""A DDSketch-style quantile sketch with a relative-error guarantee.

The sketch covers positive values with geometrically sized buckets: value
``x`` lands in bucket ``ceil(log(x) / log(gamma))`` where
``gamma = (1 + a) / (1 - a)`` and ``a`` is the configured relative
accuracy.  Reporting the mid-point ``2 * gamma**i / (gamma + 1)`` of
bucket ``i`` then guarantees a relative error of at most ``a`` for every
quantile of the values actually inserted (up to float rounding exactly at
bucket boundaries).  With the default ``a = 0.005`` the sketch answers
p50/p90/p99/p99.9 within **0.5%** of the corresponding exact order
statistic, comfortably inside the 1% budget the fleet experiments assert.

Quantiles are nearest-rank: ``quantile(q)`` estimates the order statistic
at index ``floor(q * (count - 1))`` of the sorted inserted values — the
same element ``numpy.percentile(..., method="lower")`` returns — so the
bound is against a concrete sample, not an interpolated value.

Memory is O(number of occupied buckets), which is bounded by the dynamic
range of the data (one bucket per ~0.5% step), **not** by the number of
inserted values: nanosecond latencies spanning six decades occupy at most
``6 * ln(10) / ln(gamma)`` ≈ 1400 buckets, and real runs use far fewer.
Count, sum, min and max are tracked exactly, so ``mean``, ``minimum`` and
``maximum`` carry no sketch error at all.

``merge`` adds integer bucket counts, which makes quantile estimates
*exact* under any merge order or grouping — the property the fleet's
``jobs=1 == jobs=N`` bit-identity contract rests on.  The float ``sum``
accumulator is merged in call order; the fleet reduce always merges in
host-index order, keeping even ``mean`` bit-stable.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from ..errors import ValidationError

#: Default relative accuracy: 0.5%, half the 1% acceptance budget used by
#: the figure-12 fleet experiment.
DEFAULT_RELATIVE_ACCURACY = 0.005

#: Values at or below this threshold are folded into a dedicated zero
#: bucket (log-buckets cannot represent 0).  Latencies are nanoseconds,
#: so anything below a femtosecond is zero for every practical purpose.
MIN_TRACKED_VALUE = 1e-6


class QuantileSketch:
    """Mergeable log-bucketed quantile sketch for non-negative values."""

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValidationError(
                f"relative accuracy must be within (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + self.relative_accuracy) / (1.0 - self.relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- ingest ----------------------------------------------------------------

    def add(self, value: float) -> None:
        """Insert one non-negative value."""
        value = float(value)
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(
                f"sketch values must be finite and non-negative, got {value}"
            )
        if value <= MIN_TRACKED_VALUE:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_many(self, values: Iterable[float]) -> None:
        """Insert values one at a time (bit-identical to repeated :meth:`add`)."""
        for value in values:
            self.add(value)

    def add_array(self, values) -> None:
        """Insert a dense array of values in a handful of vector passes.

        The batch engine's scatter-back call: bucket indices, counts and
        the running ``sum`` are computed with numpy, keeping the ingest
        cost O(uniques + buckets) instead of O(n) interpreter dispatches.
        The ``sum`` accumulates strictly left-to-right (like repeated
        :meth:`add`); bucket indices use ``numpy.log``, which may differ
        from ``math.log`` in the last ulp exactly at a bucket boundary —
        within the sketch's stated relative-error guarantee either way.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        bad = ~np.isfinite(arr) | (arr < 0.0)
        if bad.any():
            value = float(arr[bad][0])
            raise ValidationError(
                f"sketch values must be finite and non-negative, got {value}"
            )
        tracked = arr[arr > MIN_TRACKED_VALUE]
        self._zero_count += int(arr.size - tracked.size)
        if tracked.size:
            indices = np.ceil(
                np.log(tracked) / self._log_gamma
            ).astype(np.int64)
            uniques, counts = np.unique(indices, return_counts=True)
            buckets = self._buckets
            for index, count in zip(uniques.tolist(), counts.tolist()):
                buckets[index] = buckets.get(index, 0) + count
        self._count += int(arr.size)
        self._sum = float(
            np.add.accumulate(np.concatenate(([self._sum], arr)))[-1]
        )
        low = float(arr.min())
        high = float(arr.max())
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high

    # -- queries ---------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of inserted values (exact)."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact mean of the inserted values."""
        if self._count == 0:
            raise ValidationError("cannot query statistics of an empty sketch")
        return self._sum / self._count

    @property
    def minimum(self) -> float:
        """Exact minimum of the inserted values."""
        if self._count == 0:
            raise ValidationError("cannot query statistics of an empty sketch")
        return self._min

    @property
    def maximum(self) -> float:
        """Exact maximum of the inserted values."""
        if self._count == 0:
            raise ValidationError("cannot query statistics of an empty sketch")
        return self._max

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the sketch's memory footprint in O() terms."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (nearest rank, ``0 <= q <= 1``).

        The estimate is within ``relative_accuracy`` of the exact order
        statistic at index ``floor(q * (count - 1))``; ``q=0`` and ``q=1``
        return the exact minimum and maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be within [0, 1], got {q}")
        if self._count == 0:
            raise ValidationError("cannot query quantiles of an empty sketch")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = math.floor(q * (self._count - 1))
        if rank < self._zero_count:
            # The zero bucket holds every value in [0, MIN_TRACKED_VALUE],
            # not just exact zeros — clamp into [min, max] like the
            # log-bucket path, so e.g. a sketch fed only 1e-6 reports 1e-6
            # rather than a flat 0.0 (a 100% relative error).
            return min(max(0.0, self._min), self._max)
        cumulative = self._zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                estimate = 2.0 * self._gamma**index / (self._gamma + 1.0)
                return min(max(estimate, self._min), self._max)
        # Unreachable: cumulative counts sum to _count > rank.
        return self._max  # pragma: no cover

    # -- merge / copy ----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place (and return ``self``).

        Bucket counts are integers, so the merged quantile estimates are
        identical for any merge order or grouping of the same inputs.
        """
        if not isinstance(other, QuantileSketch):
            raise ValidationError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        if other.relative_accuracy != self.relative_accuracy:
            raise ValidationError(
                "cannot merge sketches with different relative accuracies "
                f"({self.relative_accuracy} != {other.relative_accuracy})"
            )
        for index, bucket_count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + bucket_count
        self._zero_count += other._zero_count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def copy(self) -> "QuantileSketch":
        """An independent copy (mutating one never affects the other)."""
        clone = QuantileSketch(self.relative_accuracy)
        clone._buckets = dict(self._buckets)
        clone._zero_count = self._zero_count
        clone._count = self._count
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        return clone

    # -- serialisation ---------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable form (exact round trip via :meth:`from_dict`)."""
        record: dict[str, object] = {
            "relative_accuracy": self.relative_accuracy,
            "count": self._count,
            "zero_count": self._zero_count,
            "sum": self._sum,
            "buckets": {str(index): self._buckets[index] for index in sorted(self._buckets)},
        }
        if self._count:
            record["min"] = self._min
            record["max"] = self._max
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "QuantileSketch":
        """Rebuild a sketch serialised by :meth:`as_dict`."""
        sketch = cls(float(record.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY)))
        count = int(record.get("count", 0))
        zero_count = int(record.get("zero_count", 0))
        if count < 0:
            raise ValidationError(
                f"sketch record field 'count' must be >= 0, got {count}"
            )
        if zero_count < 0:
            raise ValidationError(
                f"sketch record field 'zero_count' must be >= 0, got {zero_count}"
            )
        sketch._count = count
        sketch._zero_count = zero_count
        sketch._sum = float(record.get("sum", 0.0))
        buckets = record.get("buckets", {})
        if not isinstance(buckets, Mapping):
            raise ValidationError("sketch record field 'buckets' must be a mapping")
        sketch._buckets = {}
        for index, bucket_count in buckets.items():
            bucket_count = int(bucket_count)
            if bucket_count < 0:
                raise ValidationError(
                    f"sketch record bucket {index!r} has negative count {bucket_count}"
                )
            sketch._buckets[int(index)] = bucket_count
        if sketch._count:
            if "min" not in record or "max" not in record:
                raise ValidationError(
                    "sketch record with count > 0 must carry 'min' and 'max'"
                )
            sketch._min = float(record["min"])  # type: ignore[index]
            sketch._max = float(record["max"])  # type: ignore[index]
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            self.relative_accuracy == other.relative_accuracy
            and self._count == other._count
            and self._zero_count == other._zero_count
            and self._sum == other._sum
            and self._min == other._min
            and self._max == other._max
            and self._buckets == other._buckets
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(relative_accuracy={self.relative_accuracy}, "
            f"count={self._count}, buckets={self.bucket_count})"
        )
