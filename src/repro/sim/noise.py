"""Latency-noise models for the host root complex.

The paper's headline distribution result (Figure 6) is that a Haswell Xeon
E5 services 64 B DMA reads with a very tight latency distribution (99.9 % of
2 million samples inside an 80 ns band) whereas a Xeon E3 of the same
generation shows a median more than twice as high, a 99th percentile of
several microseconds and occasional multi-millisecond stalls suspected to be
power management.  These behaviours are captured by two noise models that
the system profiles select between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class TightNoise:
    """Narrow, symmetric jitter typical of the Xeon E5 root complexes.

    Attributes:
        sigma_ns: standard deviation of the Gaussian jitter.
        tail_probability: probability of a moderate outlier (e.g. an
            unfortunate snoop), roughly doubling the latency.
        tail_extra_ns: size of that moderate outlier.
    """

    sigma_ns: float = 8.0
    tail_probability: float = 5e-4
    tail_extra_ns: float = 350.0

    def __post_init__(self) -> None:
        _check_non_negative(self, ("sigma_ns", "tail_probability", "tail_extra_ns"))
        _check_probability(self.tail_probability, "tail_probability")

    def sample(self, generator: np.random.Generator) -> float:
        """Draw one non-negative jitter value in nanoseconds.

        One Gaussian draw, then one uniform draw for the outlier test.  The
        root complex calls this once per DMA; scalar draws consume the
        generator exactly like one-element array draws, at a fraction of
        their cost.
        """
        jitter = abs(generator.normal(0.0, self.sigma_ns))
        if generator.random() < self.tail_probability:
            return jitter + self.tail_extra_ns
        return jitter


@dataclass(frozen=True)
class HeavyTailNoise:
    """Broad, heavy-tailed jitter reproducing the Xeon E3 behaviour of Figure 6.

    The distribution is the sum of an exponential component (queueing /
    contention inside the root complex) and rare, very large stalls
    attributed by the paper to hidden power-saving modes.

    Attributes:
        exponential_scale_ns: mean of the exponential component.
        stall_probability: probability that a transaction hits a long stall.
        stall_min_ns / stall_max_ns: the stall duration is drawn
            log-uniformly between these bounds (tens of microseconds up to
            several milliseconds).
    """

    exponential_scale_ns: float = 980.0
    stall_probability: float = 6e-4
    stall_min_ns: float = 20_000.0
    stall_max_ns: float = 5_800_000.0

    def __post_init__(self) -> None:
        _check_non_negative(
            self,
            (
                "exponential_scale_ns",
                "stall_probability",
                "stall_min_ns",
                "stall_max_ns",
            ),
        )
        _check_probability(self.stall_probability, "stall_probability")
        if self.stall_max_ns < self.stall_min_ns:
            raise ValidationError("stall_max_ns must be >= stall_min_ns")

    def sample(self, generator: np.random.Generator) -> float:
        """Draw one non-negative jitter value in nanoseconds.

        One exponential draw, one uniform draw for the stall test and, on
        a stall, one more uniform draw for its log-uniform duration.  The
        rare stall branch keeps numpy's ``log``/``exp`` so its value is
        the one the array form of this formula computes.
        """
        jitter = generator.exponential(self.exponential_scale_ns)
        if generator.random() < self.stall_probability:
            log_low = np.log(self.stall_min_ns)
            log_high = np.log(self.stall_max_ns)
            jitter += float(np.exp(generator.uniform(log_low, log_high, size=1))[0])
        return jitter


#: Union type accepted wherever a noise model is expected.
NoiseModel = TightNoise | HeavyTailNoise


def _check_non_negative(obj: object, attrs: tuple[str, ...]) -> None:
    for attr in attrs:
        if getattr(obj, attr) < 0:
            raise ValidationError(f"{attr} must be non-negative")


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be within [0, 1], got {value}")
