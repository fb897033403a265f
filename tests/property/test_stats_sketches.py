"""Property tests for the streaming quantile sketch (repro.stats).

Two contracts the fleet layer depends on:

* sketch quantiles stay within the documented relative-error bound of the
  exact order statistic (``np.percentile(..., method="lower")``, the
  nearest-rank definition the sketch targets) — checked across the named
  workload grid and across arbitrary hypothesis-generated samples;
* ``merge`` is associative and commutative: quantiles depend only on
  integer bucket counts, so any grouping of the same shards answers the
  same quantiles *exactly*.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import SimRng
from repro.stats import QuantileSketch
from repro.stats.sketch import MIN_TRACKED_VALUE
from repro.workloads import build_workload, workload_names

QUANTILES = (0.5, 0.9, 0.99, 0.999)

positive_samples = st.lists(
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=400,
)


def assert_within_bound(sketch: QuantileSketch, samples: np.ndarray) -> None:
    """Every tracked quantile within ``relative_accuracy`` of nearest rank."""
    for q in QUANTILES:
        exact = float(np.percentile(samples, q * 100.0, method="lower"))
        estimate = sketch.quantile(q)
        if exact <= MIN_TRACKED_VALUE:
            assert estimate <= MIN_TRACKED_VALUE
        else:
            assert abs(estimate - exact) <= sketch.relative_accuracy * exact + 1e-12


class TestSketchAccuracy:
    @pytest.mark.parametrize("workload_name", workload_names())
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_quantiles_within_bound_across_workload_grid(self, workload_name, seed):
        """Sketching a workload's realised gap/size stream stays in bound."""
        workload = build_workload(workload_name, load_gbps=20.0)
        schedule = workload.generate(1500, SimRng(seed))
        gaps = np.diff(schedule.arrival_times_ns)
        for samples in (gaps, schedule.sizes.astype(np.float64)):
            sketch = QuantileSketch()
            sketch.add_many(samples)
            assert_within_bound(sketch, samples)
            assert sketch.count == samples.size
            assert sketch.minimum == float(samples.min())
            assert sketch.maximum == float(samples.max())

    @given(values=positive_samples)
    @settings(max_examples=50, deadline=None)
    def test_quantiles_within_bound_for_arbitrary_samples(self, values):
        samples = np.asarray(values)
        sketch = QuantileSketch()
        sketch.add_many(samples)
        assert_within_bound(sketch, samples)


class TestZeroBucketClamp:
    """Regression: zero-bucket quantiles clamp into [min, max].

    The zero bucket holds every value in ``[0, MIN_TRACKED_VALUE]``, not
    just exact zeros.  A sketch fed only ``MIN_TRACKED_VALUE`` used to
    answer a flat ``0.0`` for every interior quantile — a 100% relative
    error against an exact order statistic of ``MIN_TRACKED_VALUE``.
    """

    def test_sub_threshold_samples_report_their_own_value(self):
        sketch = QuantileSketch()
        sketch.add_many([MIN_TRACKED_VALUE] * 50)
        for q in QUANTILES:
            # Fails on the unclamped sketch, which returned 0.0 here.
            assert sketch.quantile(q) == MIN_TRACKED_VALUE

    def test_genuine_zeros_still_report_zero(self):
        sketch = QuantileSketch()
        sketch.add_many([0.0] * 50 + [1000.0] * 10)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.minimum == 0.0

    @given(
        sub=st.floats(min_value=1e-9, max_value=MIN_TRACKED_VALUE),
        count=st.integers(min_value=2, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_bucket_estimates_stay_within_min_max(self, sub, count):
        sketch = QuantileSketch()
        sketch.add_many([sub] * count)
        for q in QUANTILES:
            estimate = sketch.quantile(q)
            assert sketch.minimum <= estimate <= sketch.maximum

    def test_mixed_sub_threshold_and_tracked_values(self):
        sketch = QuantileSketch()
        sketch.add_many([5e-7] * 90 + [100.0] * 10)
        # Rank 49 of 99 lands in the zero bucket: the answer must be the
        # sub-threshold sample itself, never a fabricated 0.0 below min.
        assert sketch.quantile(0.5) == 5e-7
        assert sketch.quantile(0.999) == pytest.approx(100.0, rel=0.005)


class TestMergeAlgebra:
    @given(
        values=positive_samples,
        split=st.tuples(st.integers(0, 400), st.integers(0, 400)),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_associative_and_commutative_on_quantiles(self, values, split):
        samples = np.asarray(values)
        lo, hi = sorted((split[0] % samples.size, split[1] % samples.size))
        parts = [samples[:lo], samples[lo:hi], samples[hi:]]
        sketches = []
        for part in parts:
            sketch = QuantileSketch()
            sketch.add_many(part)
            sketches.append(sketch)
        a, b, c = sketches
        left = a.copy().merge(b.copy()).merge(c.copy())
        right = a.copy().merge(b.copy().merge(c.copy()))
        swapped = c.copy().merge(b.copy()).merge(a.copy())
        whole = QuantileSketch()
        whole.add_many(samples)
        assert left.count == right.count == swapped.count == whole.count
        for q in QUANTILES:
            # Integer bucket counts: any grouping or order answers the same
            # quantiles exactly, and exactly what a single pass answers.
            assert left.quantile(q) == right.quantile(q)
            assert left.quantile(q) == swapped.quantile(q)
            assert left.quantile(q) == whole.quantile(q)
        # Pairwise merge is fully commutative, floats included.
        assert a.copy().merge(b.copy()) == b.copy().merge(a.copy())
