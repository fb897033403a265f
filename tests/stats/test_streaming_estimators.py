"""Unit tests for the repro.stats quantile sketch."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.stats import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.stats.sketch import MIN_TRACKED_VALUE


class TestQuantileSketch:
    def test_default_accuracy_is_half_the_experiment_budget(self):
        assert DEFAULT_RELATIVE_ACCURACY == 0.005
        assert QuantileSketch().relative_accuracy == 0.005

    def test_rejects_bad_accuracy(self):
        for accuracy in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValidationError):
                QuantileSketch(accuracy)

    def test_rejects_bad_values(self):
        sketch = QuantileSketch()
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                sketch.add(value)

    def test_empty_sketch_raises_on_queries(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.bucket_count == 0
        for query in (lambda: sketch.mean, lambda: sketch.minimum,
                      lambda: sketch.maximum, lambda: sketch.quantile(0.5)):
            with pytest.raises(ValidationError):
                query()

    def test_quantile_range_is_validated(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        for q in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                sketch.quantile(q)

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(123.0)
        assert sketch.count == 1
        assert sketch.minimum == sketch.maximum == 123.0
        assert sketch.mean == 123.0
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile(q) == pytest.approx(123.0, rel=0.005)

    def test_extreme_quantiles_are_exact(self):
        sketch = QuantileSketch()
        sketch.add_many([3.0, 1.0, 2.0, 10.0])
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 10.0
        assert sketch.minimum == 1.0
        assert sketch.maximum == 10.0

    def test_zero_values_fold_into_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.add_many([0.0, 0.0, 0.0, 5.0])
        assert sketch.count == 4
        assert sketch.quantile(0.25) == 0.0
        assert sketch.minimum == 0.0
        assert sketch.maximum == 5.0
        # The zero bucket counts as one bucket of memory.
        assert sketch.bucket_count == 2
        assert sketch.quantile(1.0) == 5.0

    def test_tiny_values_count_as_zero(self):
        sketch = QuantileSketch()
        sketch.add(MIN_TRACKED_VALUE / 2.0)
        sketch.add(1.0)
        assert sketch.quantile(0.0) == MIN_TRACKED_VALUE / 2.0
        assert sketch.count == 2

    def test_mean_count_min_max_are_exact(self):
        rng = np.random.default_rng(7)
        samples = rng.exponential(500.0, 5000)
        sketch = QuantileSketch()
        sketch.add_many(samples)
        assert sketch.count == samples.size
        assert sketch.mean == pytest.approx(float(samples.mean()), rel=1e-12)
        assert sketch.minimum == float(samples.min())
        assert sketch.maximum == float(samples.max())

    def test_documented_relative_error_bound(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(6.5, 1.5, 40000)
        sketch = QuantileSketch()
        sketch.add_many(samples)
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = float(np.percentile(samples, q * 100.0, method="lower"))
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= sketch.relative_accuracy * exact

    def test_memory_is_bounded_by_dynamic_range_not_count(self):
        rng = np.random.default_rng(3)
        small = QuantileSketch()
        big = QuantileSketch()
        small.add_many(rng.lognormal(6.0, 1.0, 2000))
        big.add_many(rng.lognormal(6.0, 1.0, 20000))
        # Ten times the samples over the same distribution: essentially the
        # same number of occupied buckets (never the 10x a sample store pays).
        assert big.bucket_count <= small.bucket_count * 2

    def test_merge_requires_matching_accuracy_and_type(self):
        sketch = QuantileSketch(0.005)
        with pytest.raises(ValidationError):
            sketch.merge(QuantileSketch(0.01))
        with pytest.raises(ValidationError):
            sketch.merge("not a sketch")

    def test_merge_matches_single_pass_quantiles_exactly(self):
        rng = np.random.default_rng(13)
        samples = rng.lognormal(6.0, 1.0, 3000)
        whole = QuantileSketch()
        whole.add_many(samples)
        left, right = QuantileSketch(), QuantileSketch()
        left.add_many(samples[:1000])
        right.add_many(samples[1000:])
        merged = left.merge(right)
        assert merged.count == whole.count
        for q in (0.1, 0.5, 0.9, 0.99, 0.999):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_with_empty_is_identity(self):
        sketch = QuantileSketch()
        sketch.add_many([1.0, 2.0, 3.0])
        before = sketch.as_dict()
        sketch.merge(QuantileSketch())
        assert sketch.as_dict() == before
        empty = QuantileSketch()
        empty.merge(sketch)
        assert empty.as_dict() == before

    def test_copy_is_independent(self):
        sketch = QuantileSketch()
        sketch.add(10.0)
        clone = sketch.copy()
        clone.add(20.0)
        assert sketch.count == 1
        assert clone.count == 2

    def test_round_trip_serialisation(self):
        sketch = QuantileSketch()
        sketch.add_many([0.0, 1.0, 250.0, 1e7])
        restored = QuantileSketch.from_dict(sketch.as_dict())
        assert restored == sketch
        assert restored.quantile(0.5) == sketch.quantile(0.5)
        # Empty sketches round trip too (a fleet host may see no traffic).
        assert QuantileSketch.from_dict(QuantileSketch().as_dict()) == QuantileSketch()

    def test_as_dict_is_json_safe(self):
        import json

        sketch = QuantileSketch()
        sketch.add_many([1.0, 5.0, 0.0])
        encoded = json.dumps(sketch.as_dict())
        assert QuantileSketch.from_dict(json.loads(encoded)) == sketch

    def test_repr_mentions_count_and_buckets(self):
        sketch = QuantileSketch()
        sketch.add(5.0)
        text = repr(sketch)
        assert "count=1" in text and "buckets=1" in text
