"""Hardening regressions for the streaming-stats layer.

Pins a field-reported failure mode of the fleet sweep: silently-poisoned
sketches rebuilt from corrupt records.
"""

import pytest

from repro.errors import ValidationError
from repro.stats import QuantileSketch


class TestFromDictValidation:
    """Corrupt records must raise, not silently poison later merges."""

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

