"""Latency statistics: the post-processing the pcie-bench control programs do.

For every latency benchmark the paper reports average, median, minimum,
maximum and the 95th/99th percentiles, and for the distribution study of
Figure 6 it additionally builds CDFs.  :class:`LatencyStats` computes all of
these from the raw per-transaction samples produced by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (nanoseconds)."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    std: float
    p90: float
    p95: float
    p99: float
    p999: float

    @classmethod
    def from_samples(cls, samples_ns: np.ndarray | list[float]) -> "LatencyStats":
        """Compute statistics from raw samples."""
        samples = np.asarray(samples_ns, dtype=np.float64)
        if samples.size == 0:
            raise AnalysisError("cannot compute statistics over zero samples")
        return cls(
            count=int(samples.size),
            mean=float(np.mean(samples)),
            median=float(np.median(samples)),
            minimum=float(np.min(samples)),
            maximum=float(np.max(samples)),
            std=float(np.std(samples)),
            p90=float(np.percentile(samples, 90)),
            p95=float(np.percentile(samples, 95)),
            p99=float(np.percentile(samples, 99)),
            p999=float(np.percentile(samples, 99.9)),
        )

    def as_dict(self) -> dict[str, float]:
        """Serialisable representation."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
            "std": self.std,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "p99.9": self.p999,
        }

    @property
    def spread_95_to_min(self) -> float:
        """Distance from the minimum to the 95th percentile.

        The paper uses this band (error bars of Figure 5) to show how little
        variance the Xeon E5 systems exhibit.
        """
        return self.p95 - self.minimum


def cdf(samples_ns: np.ndarray | list[float], points: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of the samples, down-sampled to ``points`` coordinates.

    Returns ``(latencies, cumulative_fractions)`` suitable for plotting the
    Figure 6 curves.
    """
    samples = np.sort(np.asarray(samples_ns, dtype=np.float64))
    if samples.size == 0:
        raise AnalysisError("cannot compute a CDF over zero samples")
    if points <= 1:
        raise AnalysisError(f"points must be > 1, got {points}")
    fractions = np.linspace(0.0, 1.0, points)
    indices = np.clip(
        (fractions * (samples.size - 1)).round().astype(int), 0, samples.size - 1
    )
    return samples[indices], fractions


def histogram(
    samples_ns: np.ndarray | list[float],
    *,
    bins: int = 50,
    range_ns: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of latency samples: ``(bin_edges, counts)``."""
    samples = np.asarray(samples_ns, dtype=np.float64)
    if samples.size == 0:
        raise AnalysisError("cannot compute a histogram over zero samples")
    counts, edges = np.histogram(samples, bins=bins, range=range_ns)
    return edges, counts


def fraction_within(
    samples_ns: np.ndarray | list[float], low_ns: float, high_ns: float
) -> float:
    """Fraction of samples falling inside ``[low_ns, high_ns]``.

    Used to reproduce statements such as "99.9% of all transactions fall
    inside a narrow 80 ns range" (§6.2).
    """
    samples = np.asarray(samples_ns, dtype=np.float64)
    if samples.size == 0:
        raise AnalysisError("cannot compute a fraction over zero samples")
    if high_ns < low_ns:
        raise AnalysisError("high_ns must be >= low_ns")
    inside = np.count_nonzero((samples >= low_ns) & (samples <= high_ns))
    return inside / samples.size


