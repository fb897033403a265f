"""Mergeable, O(1)-memory streaming statistics.

Fleet-scale sweeps (:mod:`repro.fleet`) simulate racks of hosts whose
aggregate packet counts cannot be summarised by keeping every latency
sample in a numpy array the way single-host results historically did.
This package provides the streaming estimators the fleet layer (and the
``retain_samples=False`` simulator mode) build on:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile sketch
  with a documented relative-error bound (default 0.5%), exact count /
  sum / min / max, and an order-insensitive integer-bucket ``merge``;
* :class:`StreamingMoments` — Welford mean/variance with Chan's parallel
  merge, for cheap dispersion estimates without any sample storage;
* :class:`WindowedStats` — a sketch + moments pair that snapshots and
  resets on a window boundary without disturbing the cumulative view,
  the per-window observation signal the control plane ticks on.

Every estimator is serialisable (``as_dict``/``from_dict``) and supports
``merge`` so per-shard results combine deterministically: quantile
estimates depend only on integer bucket counts, which makes them exact
under any merge order, and the fleet reduce step merges shards in fixed
host order so even float accumulators (sum, M2) are bit-stable.
"""

from .moments import StreamingMoments
from .sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from .windowed import WindowSnapshot, WindowedStats

__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "StreamingMoments",
    "WindowSnapshot",
    "WindowedStats",
]
