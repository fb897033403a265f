"""The five pcie-bench micro-benchmarks (§4): latency and bandwidth.

``LAT_RD`` times individual DMA reads from issue to completion signal.
Because PCIe memory writes are posted, write latency cannot be observed
directly; ``LAT_WRRD`` instead times a DMA write followed by a DMA read of
the same address, relying on PCIe ordering to make the read wait for the
write (§4.1).

Bandwidth is measured by issuing a large number of DMAs with the device's
full concurrency and dividing the bytes moved by the elapsed time.  The
alternating read/write variant (``BW_RDWR``) makes MRd TLPs compete with MWr
TLPs for the device-to-host direction, exactly as a NIC moving full-duplex
traffic would (§4.2).

All five run through :func:`run_micro_benchmark`.  The ``lat_*``/``bw_*``
wrappers fill in common defaults: the NFP6000-HSW system, a host-warm
cache and an 8 KiB window (or one unit, if larger: the offset plus the
transfer, rounded up to a cache line).
"""

from __future__ import annotations

from ..sim.dma import DmaEngine
from ..sim.host import HostSystem
from ..sim.hostbuffer import unit_bytes
from ..sim.rng import DEFAULT_SEED
from ..units import KIB
from .params import BenchmarkKind, BenchmarkParams
from .results import BenchmarkResult
from .stats import LatencyStats


def build_host(params: BenchmarkParams) -> HostSystem:
    """A fresh host system for the configuration ``params`` names."""
    return HostSystem.from_profile(
        params.system,
        iommu_enabled=params.iommu_enabled,
        iommu_page_size=params.iommu_page_size,
        seed=DEFAULT_SEED if params.seed is None else params.seed,
    )


def run_micro_benchmark(
    params: BenchmarkParams,
    *,
    host: HostSystem | None = None,
    keep_samples: bool = False,
) -> BenchmarkResult:
    """Run the micro-benchmark ``params`` describes.

    Args:
        params: the benchmark description.
        host: an existing host system to reuse (built from ``params`` when
            omitted).  Reusing a host across runs keeps its caches and RNG
            streams, which is what a real suite run does.
        keep_samples: attach a latency run's raw per-transaction samples to
            the result (needed for CDFs; costs memory for large sample
            counts).  Bandwidth runs have no samples to keep.

    Returns:
        A :class:`BenchmarkResult` with latency statistics or bandwidth
        figures, matching ``params.kind``.
    """
    host = host or build_host(params)
    engine = DmaEngine(host)
    buffer = host.allocate_buffer(
        params.window_size,
        params.transfer_size,
        offset=params.offset,
        node=params.placement.value,
        page_size=params.iommu_page_size if params.iommu_enabled else None,
    )
    host.prepare(buffer, params.cache_state)
    operation = params.kind.dma_operation
    count = params.effective_transactions
    if params.kind.is_latency:
        measurement = engine.measure_latency(
            buffer,
            operation,
            count,
            pattern=params.pattern,
            use_command_interface=params.use_command_interface,
        )
        return BenchmarkResult(
            params=params,
            latency=LatencyStats.from_samples(measurement.samples_ns),
            cache_hit_rate=measurement.cache_hit_rate,
            iotlb_miss_rate=measurement.iotlb_miss_rate,
            samples_ns=measurement.samples_ns if keep_samples else None,
        )
    measurement = engine.measure_bandwidth(
        buffer, operation, count, pattern=params.pattern
    )
    return BenchmarkResult(
        params=params,
        bandwidth_gbps=measurement.gbps,
        transactions_per_second=measurement.transactions_per_second,
        cache_hit_rate=measurement.cache_hit_rate,
        iotlb_miss_rate=measurement.iotlb_miss_rate,
    )


def lat_rd(transfer_size: int, **options: object) -> BenchmarkResult:
    """Run ``LAT_RD``; ``options`` override the module's defaults."""
    return _run_with_defaults(BenchmarkKind.LAT_RD, transfer_size, options)


def lat_wrrd(transfer_size: int, **options: object) -> BenchmarkResult:
    """Run ``LAT_WRRD``; ``options`` override the module's defaults."""
    return _run_with_defaults(BenchmarkKind.LAT_WRRD, transfer_size, options)


def bw_rd(transfer_size: int, **options: object) -> BenchmarkResult:
    """Run ``BW_RD``; ``options`` override the module's defaults."""
    return _run_with_defaults(BenchmarkKind.BW_RD, transfer_size, options)


def bw_wr(transfer_size: int, **options: object) -> BenchmarkResult:
    """Run ``BW_WR``; ``options`` override the module's defaults."""
    return _run_with_defaults(BenchmarkKind.BW_WR, transfer_size, options)


def bw_rdwr(transfer_size: int, **options: object) -> BenchmarkResult:
    """Run ``BW_RDWR``; ``options`` override the module's defaults."""
    return _run_with_defaults(BenchmarkKind.BW_RDWR, transfer_size, options)


def _run_with_defaults(
    kind: BenchmarkKind, transfer_size: int, options: dict[str, object]
) -> BenchmarkResult:
    """Run ``kind`` on a fresh host; ``options`` are BenchmarkParams fields."""
    settings = {"system": "NFP6000-HSW", "cache_state": "host_warm", **options}
    if not settings.get("window_size"):
        settings["window_size"] = max(
            8 * KIB, unit_bytes(transfer_size, settings.get("offset", 0))
        )
    params = BenchmarkParams(
        kind=kind,
        transfer_size=transfer_size,
        **settings,  # type: ignore[arg-type]
    )
    return run_micro_benchmark(params)
