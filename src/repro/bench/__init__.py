"""The pcie-bench methodology: latency and bandwidth micro-benchmarks (§4)."""

from .contention import (
    CONTENTION_KIND,
    FOUR_DEVICE_NAMES,
    ContentionParams,
    four_device_mix,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from .fleet import (
    FLEET_KIND,
    FleetHostResult,
    FleetParams,
    FleetResult,
    run_fleet_benchmark,
)
from .micro import bw_rd, bw_rdwr, bw_wr, lat_rd, lat_wrrd, run_micro_benchmark
from .nicsim import (
    NICSIM_KIND,
    CrossValidationPoint,
    NicSimParams,
    cross_validate,
    run_nicsim_benchmark,
)
from .params import (
    COMMON_TRANSFER_SIZES,
    DEFAULT_BANDWIDTH_TRANSACTIONS,
    DEFAULT_LATENCY_SAMPLES,
    WINDOW_SWEEP,
    BenchmarkKind,
    BenchmarkParams,
    NumaPlacement,
)
from .results import (
    BenchmarkResult,
    load_results_json,
    save_results_csv,
    save_results_json,
)
from .runner import BenchmarkRunner, contention_suite_params, full_suite_params
from .stats import LatencyStats, cdf, fraction_within, histogram

__all__ = [
    "bw_rd",
    "bw_rdwr",
    "bw_wr",
    "lat_rd",
    "lat_wrrd",
    "run_micro_benchmark",
    "NICSIM_KIND",
    "CrossValidationPoint",
    "NicSimParams",
    "cross_validate",
    "run_nicsim_benchmark",
    "CONTENTION_KIND",
    "FLEET_KIND",
    "FleetHostResult",
    "FleetParams",
    "FleetResult",
    "run_fleet_benchmark",
    "FOUR_DEVICE_NAMES",
    "ContentionParams",
    "four_device_mix",
    "noisy_neighbour_pair",
    "run_contention_benchmark",
    "COMMON_TRANSFER_SIZES",
    "DEFAULT_BANDWIDTH_TRANSACTIONS",
    "DEFAULT_LATENCY_SAMPLES",
    "WINDOW_SWEEP",
    "BenchmarkKind",
    "BenchmarkParams",
    "NumaPlacement",
    "BenchmarkResult",
    "load_results_json",
    "save_results_csv",
    "save_results_json",
    "BenchmarkRunner",
    "contention_suite_params",
    "full_suite_params",
    "LatencyStats",
    "cdf",
    "fraction_within",
    "histogram",
]
