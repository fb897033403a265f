"""Hardening regressions for the streaming-stats layer.

Pins two field-reported failure modes of the fleet sweep: the ``math
domain error`` from a cancellation-produced negative second moment, and
silently-poisoned accumulators rebuilt from corrupt records.
"""

import math

import pytest

from repro.errors import ValidationError
from repro.stats import (
    QuantileSketch,
    StreamingMoments,
    WindowedStats,
)


class TestNegativeSecondMomentClamp:
    """``std`` must never raise over a rounding artefact."""

    def test_sum_of_squares_shard_record_yields_negative_m2(self):
        # A shard that computed m2 as sum(x^2) - n*mean^2 (the
        # cancellation-prone textbook formula) over three copies of
        # 1000000000.7 rounds to m2 = -512.0.  Its record is honest
        # about what the shard computed; from_dict must accept it and
        # the variance clamp must absorb it.
        values = [1000000000.7] * 3
        naive_m2 = math.fsum(v * v for v in values) - len(values) * (
            math.fsum(values) / len(values)
        ) ** 2
        assert naive_m2 < 0.0
        shard = StreamingMoments.from_dict(
            {
                "count": len(values),
                "mean": math.fsum(values) / len(values),
                "m2": naive_m2,
                "min": min(values),
                "max": max(values),
            }
        )
        assert shard.variance == 0.0
        assert shard.std == 0.0

    def test_merge_of_poisoned_shard_keeps_std_finite(self):
        shard = StreamingMoments.from_dict(
            {"count": 3, "mean": 1000000000.7, "m2": -512.0,
             "min": 1000000000.7, "max": 1000000000.7}
        )
        total = StreamingMoments()
        total.push(1000000000.7)
        total.merge(shard)
        assert total.count == 4
        assert total.std >= 0.0
        assert math.isfinite(total.std)

    def test_live_pushes_never_go_negative(self):
        moments = StreamingMoments()
        for _ in range(1000):
            moments.push(1000000000.7)
        assert moments.variance >= 0.0
        assert moments.std >= 0.0


class TestFromDictValidation:
    """Corrupt records must raise, not silently poison later merges."""

    def test_moments_rejects_negative_count(self):
        with pytest.raises(ValidationError):
            StreamingMoments.from_dict({"count": -1, "mean": 0.0, "m2": 0.0})

    def test_moments_requires_min_max_when_counted(self):
        with pytest.raises(ValidationError):
            StreamingMoments.from_dict({"count": 2, "mean": 1.0, "m2": 0.0})

    def test_sketch_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            QuantileSketch.from_dict({"count": -4, "zero_count": 0})
        with pytest.raises(ValidationError):
            QuantileSketch.from_dict({"count": 0, "zero_count": -1})

    def test_sketch_rejects_negative_bucket_and_bad_buckets(self):
        with pytest.raises(ValidationError):
            QuantileSketch.from_dict(
                {"count": 2, "zero_count": 0, "min": 1.0, "max": 2.0,
                 "buckets": {"10": -2}}
            )
        with pytest.raises(ValidationError):
            QuantileSketch.from_dict(
                {"count": 0, "zero_count": 0, "buckets": [1, 2, 3]}
            )

    def test_sketch_requires_min_max_when_counted(self):
        with pytest.raises(ValidationError):
            QuantileSketch.from_dict(
                {"count": 2, "zero_count": 0, "buckets": {"10": 2}}
            )


class TestWindowedStats:
    def test_snapshot_resets_window_and_keeps_cumulative(self):
        stats = WindowedStats()
        stats.record(1.0)
        stats.record(2.0)
        first = stats.snapshot()
        assert first.index == 0
        assert first.count == 2
        assert stats.window_count == 0
        stats.record(3.0)
        sketch, moments = stats.cumulative()
        assert sketch.count == 3
        assert moments.count == 3
        assert stats.count == 3

    def test_empty_window_is_well_defined(self):
        stats = WindowedStats()
        empty = stats.snapshot()
        assert empty.count == 0
        assert empty.index == 0
        with pytest.raises(ValidationError):
            empty.quantile(0.99)
        # The empty window contributes nothing to the cumulative view.
        stats.record(5.0)
        sketch, moments = stats.cumulative()
        assert sketch.count == 1
        assert moments.mean == 5.0

    def test_cumulative_copies_do_not_disturb_the_window(self):
        stats = WindowedStats()
        stats.record(1.0)
        sketch, _ = stats.cumulative()
        sketch.add(100.0)
        again, moments = stats.cumulative()
        assert again.count == 1
        assert moments.count == 1
