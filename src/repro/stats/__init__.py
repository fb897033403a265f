"""Mergeable, O(1)-memory streaming statistics.

Fleet-scale sweeps (:mod:`repro.fleet`) simulate racks of hosts whose
aggregate packet counts cannot be summarised by keeping every latency
sample in a numpy array the way single-host results historically did.
This package provides the streaming estimator the fleet layer, the
``retain_samples=False`` simulator mode and the metrics registry build
on: :class:`QuantileSketch`, a DDSketch-style log-bucketed quantile
sketch with a documented relative-error bound (default 0.5%), exact
count / sum / min / max, and an order-insensitive integer-bucket
``merge``.

The sketch is serialisable (``as_dict``/``from_dict``) and its ``merge``
combines per-shard results deterministically: quantile estimates depend
only on integer bucket counts, which makes them exact under any merge
order, and the fleet reduce step merges shards in fixed host order so
even the float ``sum`` accumulator is bit-stable.
"""

from .sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
]
