"""Benchmark suite runner: the simulated counterpart of the control programs.

The NFP control program of §5.4 runs individual tests or a full suite of
roughly 2500 tests (about four hours on hardware).  :class:`BenchmarkRunner`
plays that role here: it executes lists of :class:`BenchmarkParams` (and
:class:`~repro.sim.nicsim.NicSimParams` datapath simulations), reuses host
systems across runs on the same configuration, supports parameter sweeps,
can fan independent parameter sets out over a process pool, and can persist
results for later analysis.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..errors import BenchmarkError, ValidationError
from ..sim.fabric import ContentionResult
from ..sim.host import HostSystem
from ..sim.hostbuffer import unit_bytes
from ..sim.nicsim import NicSimResult
from .contention import (
    FOUR_DEVICE_NAMES,
    ContentionParams,
    four_device_mix,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from .fleet import FleetParams, FleetResult, run_fleet_benchmark
from .micro import build_host, run_micro_benchmark
from .nicsim import NicSimParams, run_nicsim_benchmark
from .params import BenchmarkKind, BenchmarkParams, WINDOW_SWEEP
from .results import BenchmarkResult, save_results_csv, save_results_json

#: Anything the runner can execute.
RunnableParams = BenchmarkParams | NicSimParams | ContentionParams | FleetParams
#: Anything the runner can produce.
RunnerResult = BenchmarkResult | NicSimResult | ContentionResult | FleetResult


@dataclass
class BenchmarkRunner:
    """Executes micro-benchmarks, caching host systems per configuration.

    Attributes:
        progress: optional callback invoked as ``progress(index, total,
            params)`` before each run (used by the CLI for status output).
            With parallel execution it fires as runs complete, with a
            running completion count as the index.
    """

    progress: Callable[[int, int, RunnableParams], None] | None = None
    _hosts: dict[tuple[str, bool, int, object], HostSystem] = field(
        default_factory=dict, repr=False
    )

    def host_for(self, params: BenchmarkParams) -> HostSystem:
        """Host system for a parameter set, building it on first use.

        Hosts are keyed by (system, IOMMU state, page size, seed) so
        repeated ``run`` calls on the same configuration share one host the
        way an interactive session shares one machine.  (``run_all``
        deliberately bypasses this cache; see its docstring.)
        """
        key = _host_key(params)
        if key not in self._hosts:
            self._hosts[key] = build_host(params)
        return self._hosts[key]

    def run(self, params: RunnableParams) -> RunnerResult:
        """Run a single benchmark (micro-benchmark, simulation or contention).

        A micro-benchmark runs on this runner's cached host for its
        configuration; every other kind builds its own hosts.
        """
        if isinstance(params, BenchmarkParams):
            return run_micro_benchmark(params, host=self.host_for(params))
        return _run_isolated(params)

    def run_all(
        self,
        params_list: Sequence[RunnableParams],
        *,
        jobs: int | None = None,
    ) -> list[RunnerResult]:
        """Run a list of benchmarks, optionally over a process pool.

        ``run_all`` executes every parameter set in *isolation*: each run
        gets a freshly built host, so its result depends only on its own
        parameters (and seed), never on its position in the list.  That is
        what makes the parameter sets independent and lets ``jobs`` fan
        them out over worker processes with results identical — same
        ordering, equal values — to the serial path.  (``run`` by contrast
        reuses cached hosts across calls, the way an interactive session
        on one machine would.)

        Args:
            params_list: the benchmarks to run.
            jobs: worker process count; ``None`` or 1 runs serially.
        """
        if jobs is not None and jobs <= 0:
            raise ValidationError(f"jobs must be positive, got {jobs}")
        total = len(params_list)
        if jobs is None or jobs == 1 or total <= 1:
            results = []
            for index, params in enumerate(params_list):
                if self.progress is not None:
                    self.progress(index, total, params)
                results.append(_run_isolated(params))
            return results

        chunk_size = max(1, -(-total // (jobs * 4)))
        indexed = list(enumerate(params_list))
        chunks = [
            indexed[start : start + chunk_size]
            for start in range(0, total, chunk_size)
        ]
        ordered: list[RunnerResult | None] = [None] * total
        completed = 0
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_run_chunk, [params for _, params in chunk]): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                for (index, params), result in zip(chunk, future.result()):
                    ordered[index] = result
                    if self.progress is not None:
                        self.progress(completed, total, params)
                        completed += 1
        assert all(result is not None for result in ordered)
        return list(ordered)  # type: ignore[arg-type]

    # -- sweeps -------------------------------------------------------------------

    def sweep_transfer_size(
        self, base: BenchmarkParams, sizes: Iterable[int]
    ) -> list[BenchmarkResult]:
        """Run the same benchmark across a list of transfer sizes."""
        return self.run_all([base.with_(transfer_size=size) for size in sizes])

    def sweep_window_size(
        self, base: BenchmarkParams, windows: Iterable[int] = WINDOW_SWEEP
    ) -> list[BenchmarkResult]:
        """Run the same benchmark across a list of window sizes."""
        return self.run_all([base.with_(window_size=window) for window in windows])

    # -- persistence ---------------------------------------------------------------

    @staticmethod
    def save(
        results: Sequence[RunnerResult],
        path: str | Path,
        *,
        fmt: str = "json",
    ) -> None:
        """Persist results as JSON or CSV depending on ``fmt``.

        JSON accepts any mix of micro-benchmark and datapath-simulation
        results; the flat CSV schema is keyed on micro-benchmark parameters
        and rejects simulation results.
        """
        if fmt == "json":
            save_results_json(results, path)
        elif fmt == "csv":
            if any(
                isinstance(result, (NicSimResult, ContentionResult, FleetResult))
                for result in results
            ):
                raise BenchmarkError(
                    "CSV export supports micro-benchmark results only; "
                    "save simulation and contention runs as JSON"
                )
            save_results_csv(results, path)  # type: ignore[arg-type]
        else:
            raise BenchmarkError(f"unknown result format {fmt!r} (use 'json' or 'csv')")


def _host_key(params: BenchmarkParams) -> tuple[str, bool, int, object]:
    """The host-sharing key: system, IOMMU state, page size and seed."""
    return (
        params.system.lower(),
        params.iommu_enabled,
        params.iommu_page_size,
        params.seed,
    )


def _run_isolated(params: RunnableParams) -> RunnerResult:
    """Run one parameter set on a freshly built host.

    Because nothing is shared between runs, serial and parallel execution
    of ``run_all`` produce identical results by construction.
    """
    if isinstance(params, FleetParams):
        # A fleet nested inside run_all executes its hosts serially in
        # this worker; its result is order-reduced and jobs-invariant.
        return run_fleet_benchmark(params)
    if isinstance(params, ContentionParams):
        return run_contention_benchmark(params)
    if isinstance(params, NicSimParams):
        return run_nicsim_benchmark(params)
    return run_micro_benchmark(params)


def _run_chunk(params_chunk: list[RunnableParams]) -> list[RunnerResult]:
    """Process-pool worker entry point: run one chunk of isolated params."""
    return [_run_isolated(params) for params in params_chunk]


def full_suite_params(
    *,
    system: str = "NFP6000-HSW",
    transfer_sizes: Sequence[int] = (8, 64, 128, 256, 512, 1024, 2048),
    windows: Sequence[int] = WINDOW_SWEEP,
    cache_states: Sequence[str] = ("cold", "host_warm"),
    kinds: Sequence[BenchmarkKind] = tuple(BenchmarkKind),
    include_contention: bool = False,
) -> list[RunnableParams]:
    """Build the cross-product parameter list of a full pcie-bench suite run.

    The defaults generate a few hundred tests, a scaled-down analogue of the
    ~2500-test suite the paper's control program executes.  Combinations
    whose window cannot hold one unit (the transfer size rounded up to a
    cache line, :func:`~repro.sim.hostbuffer.unit_bytes`) are skipped,
    and duplicate combinations (overlapping ``transfer_sizes``/``windows``
    inputs) are generated only once.  ``include_contention`` appends the
    shared-host contention scenarios from :func:`contention_suite_params`,
    so the suite count reflects the multi-device matrix too.
    """
    params: list[RunnableParams] = []
    seen: set[BenchmarkParams] = set()
    for kind in kinds:
        for size in transfer_sizes:
            for window in windows:
                if window < unit_bytes(size):
                    continue
                for state in cache_states:
                    candidate = BenchmarkParams(
                        kind=kind,
                        transfer_size=size,
                        window_size=window,
                        cache_state=state,
                        system=system,
                    )
                    if candidate in seen:
                        continue
                    seen.add(candidate)
                    params.append(candidate)
    if include_contention:
        params.extend(contention_suite_params(system=system))
    return params


def contention_suite_params(
    *,
    system: str = "NFP6000-HSW",
    arbiters: Sequence[str] = ("fcfs", "rr", "wrr"),
    packets: int = 800,
) -> list[ContentionParams]:
    """The shared-host contention scenarios of a full suite run.

    One noisy-neighbour pair (the canonical victim/aggressor devices of
    :func:`~repro.bench.contention.noisy_neighbour_pair`, shared IOMMU)
    per arbitration scheme, with the ``wrr`` entry weighted 8:1 in the
    victim's favour, plus two four-device scenarios (the
    :func:`~repro.bench.contention.four_device_mix`): a weighted flat
    fabric and a switch-tree topology with the victim on its own root
    port — small enough to ride along the classic suite, broad enough to
    exercise every scheme and N > 2 devices.
    """
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=packets, aggressor_packets=8 * packets
    )
    scenarios = [
        ContentionParams(
            devices=(victim, aggressor),
            names=("victim", "aggressor"),
            system=system,
            iommu_enabled=True,
            arbiter=arbiter,
            weights=(8.0, 1.0) if arbiter == "wrr" else None,
        )
        for arbiter in arbiters
    ]
    quad = four_device_mix(
        victim_packets=packets, aggressor_packets=4 * packets
    )
    scenarios.append(
        ContentionParams(
            devices=quad,
            names=FOUR_DEVICE_NAMES,
            system=system,
            iommu_enabled=True,
            arbiter="wrr",
            weights=(8.0, 1.0, 2.0, 2.0),
        )
    )
    scenarios.append(
        ContentionParams(
            devices=quad,
            names=FOUR_DEVICE_NAMES,
            system=system,
            iommu_enabled=True,
            arbiter="fcfs",
            topology=(
                "victim=root,aggressor=sw0,bulk2=sw0,"
                "streamer=sw1,sw0=root,sw1=root"
            ),
        )
    )
    return scenarios
