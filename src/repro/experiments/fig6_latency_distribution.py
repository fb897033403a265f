"""Figure 6: 64 B DMA-read latency distribution, Xeon E5 vs Xeon E3.

The paper contrasts the very tight latency distribution of a Haswell Xeon E5
(99.9 % of two million samples inside an 80 ns band, median 547 ns) with the
Xeon E3 of the same micro-architecture generation, whose median is more than
double, whose 99th percentile reaches several microseconds and which shows
occasional millisecond-scale stalls suspected to be power management.

Paper claims checked:

* the E5 band from minimum to the 99.9th percentile is narrow (order 100 ns);
* the E3 median is roughly double the E5 median (or worse);
* the E3 minimum is actually *lower* than the E5 minimum;
* the E3 99th percentile is several times its median and the maximum reaches
  the millisecond range.
"""

from __future__ import annotations

import numpy as np

from ..bench.micro import run_micro_benchmark
from ..bench.params import BenchmarkKind, BenchmarkParams
from ..bench.stats import cdf, fraction_within
from ..units import KIB
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-6"
TITLE = "64B DMA read latency distribution: Xeon E5 (NFP6000-HSW) vs Xeon E3 (NFP6000-HSW-E3)"

SYSTEMS = ("NFP6000-HSW", "NFP6000-HSW-E3")


def run(quick: bool = True) -> ExperimentResult:
    """Collect the two latency distributions and compare their shapes."""
    samples = 20_000 if quick else 200_000
    results = {}
    raw = {}
    for system in SYSTEMS:
        params = BenchmarkParams(
            kind=BenchmarkKind.LAT_RD,
            transfer_size=64,
            window_size=8 * KIB,
            cache_state="host_warm",
            system=system,
            transactions=samples,
        )
        result = run_micro_benchmark(params, keep_samples=True)
        results[system] = result
        raw[system] = result.samples_ns

    series = {}
    for system in SYSTEMS:
        xs, ys = cdf(raw[system], points=120)
        series[system] = list(zip(xs.tolist(), ys.tolist()))

    e5 = results["NFP6000-HSW"].latency
    e3 = results["NFP6000-HSW-E3"].latency
    e5_band = float(np.percentile(raw["NFP6000-HSW"], 99.9)) - e5.minimum
    e5_within = fraction_within(raw["NFP6000-HSW"], e5.minimum, e5.minimum + 120.0)

    checks = [
        Check(
            "Xeon E5: 99.9% of samples fall in a narrow band above the minimum",
            e5_band <= 200.0 and e5_within >= 0.995,
            f"min-to-p99.9 band {e5_band:.0f} ns; "
            f"{e5_within:.1%} within 120 ns of the minimum",
        ),
        Check(
            "Xeon E3 median is at least ~2x the Xeon E5 median",
            e3.median >= 1.8 * e5.median,
            f"E3 median {e3.median:.0f} ns vs E5 median {e5.median:.0f} ns",
        ),
        Check(
            "Xeon E3 minimum latency is lower than the E5 minimum",
            e3.minimum < e5.minimum,
            f"E3 min {e3.minimum:.0f} ns vs E5 min {e5.minimum:.0f} ns",
        ),
        Check(
            "Xeon E3 tail is heavy: p99 is several times the median",
            e3.p99 >= 3.0 * e3.median,
            f"E3 p99 {e3.p99:.0f} ns vs median {e3.median:.0f} ns",
        ),
        Check(
            "Xeon E3 worst-case latencies reach the millisecond range",
            e3.maximum >= 5e5,
            f"E3 maximum {e3.maximum / 1e6:.2f} ms",
        ),
        Check(
            "Xeon E5 99th percentile stays close to its median",
            e5.p99 <= 1.2 * e5.median,
            f"E5 p99 {e5.p99:.0f} ns vs median {e5.median:.0f} ns",
        ),
    ]

    table_headers = ["system", "min", "median", "p90", "p99", "p99.9", "max"]
    table_rows = [
        [
            system,
            results[system].latency.minimum,
            results[system].latency.median,
            results[system].latency.p90,
            results[system].latency.p99,
            results[system].latency.p999,
            results[system].latency.maximum,
        ]
        for system in SYSTEMS
    ]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        x_label="Latency (ns)",
        y_label="CDF",
        table_headers=table_headers,
        table_rows=table_rows,
        checks=checks,
        notes=[
            f"{samples} samples per system (2 million in the paper); "
            "the E3 stall probability means the extreme tail needs the larger "
            "sample count of the non-quick mode to stabilise."
        ],
    )
