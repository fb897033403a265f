"""Tests for latency statistics and distribution helpers."""

import numpy as np
import pytest

from repro.bench.stats import (
    LatencyStats,
    cdf,
    fraction_within,
    histogram,
)
from repro.errors import AnalysisError


class TestLatencyStats:
    def test_basic_statistics(self):
        stats = LatencyStats.from_samples([100.0, 200.0, 300.0, 400.0, 500.0])
        assert stats.count == 5
        assert stats.mean == pytest.approx(300.0)
        assert stats.median == pytest.approx(300.0)
        assert stats.minimum == 100.0
        assert stats.maximum == 500.0

    def test_percentiles_ordered(self):
        samples = np.random.default_rng(0).exponential(100.0, 10_000)
        stats = LatencyStats.from_samples(samples)
        assert stats.median <= stats.p90 <= stats.p95 <= stats.p99 <= stats.p999

    def test_spread_metric(self):
        stats = LatencyStats.from_samples([100.0, 110.0, 120.0, 400.0])
        assert stats.spread_95_to_min == pytest.approx(stats.p95 - 100.0)

    def test_as_dict_keys(self):
        stats = LatencyStats.from_samples([1.0, 2.0])
        assert set(stats.as_dict()) == {
            "count", "mean", "median", "min", "max", "std", "p90", "p95", "p99", "p99.9",
        }

    def test_empty_samples_rejected(self):
        with pytest.raises(AnalysisError):
            LatencyStats.from_samples([])


class TestCdf:
    def test_cdf_monotone_and_bounded(self):
        samples = np.random.default_rng(1).normal(500.0, 50.0, 5000)
        xs, ys = cdf(samples, points=100)
        assert len(xs) == len(ys) == 100
        assert (np.diff(xs) >= 0).all()
        assert ys[0] == 0.0 and ys[-1] == 1.0

    def test_cdf_median_at_half(self):
        samples = np.arange(1, 1002, dtype=float)
        xs, ys = cdf(samples, points=101)
        index = np.argmin(np.abs(ys - 0.5))
        assert xs[index] == pytest.approx(501.0, abs=10.0)

    def test_cdf_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            cdf([])
        with pytest.raises(AnalysisError):
            cdf([1.0, 2.0], points=1)


class TestHistogramAndFractions:
    def test_histogram_counts_sum_to_samples(self):
        samples = np.random.default_rng(2).uniform(0, 100, 1000)
        edges, counts = histogram(samples, bins=20)
        assert counts.sum() == 1000
        assert len(edges) == 21

    def test_fraction_within(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert fraction_within(samples, 2.0, 4.0) == pytest.approx(0.6)

    def test_fraction_within_validates_bounds(self):
        with pytest.raises(AnalysisError):
            fraction_within([1.0], 5.0, 1.0)
        with pytest.raises(AnalysisError):
            fraction_within([], 0.0, 1.0)
