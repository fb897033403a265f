"""NIC datapath simulation as a first-class benchmark.

A solo run is one :class:`~repro.sim.nicsim.NicSimParams` record (defined
beside the :class:`~repro.sim.nicsim.NicDatapathSimulator` that runs it
and re-exported here): a frozen, validated, serialisable description of
the NIC/driver model, traffic workload, offered load, ring depth and
(optionally) the host the datapath is coupled to, which the
:class:`~repro.bench.runner.BenchmarkRunner` executes alongside the
classic ``LAT_*``/``BW_*`` kinds and sweeps derive variants from with
:meth:`~repro.sim.nicsim.NicSimParams.with_`.

:func:`run_nicsim_benchmark` runs a record through
``NicDatapathSimulator(params)`` and attaches the engine profile when
asked; :func:`cross_validate` runs a record's fixed-size saturating
variants against the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.nic import model_by_name

# The record and its kind tag live beside the simulator that runs the
# record; this module re-exports them.
from ..sim.nicsim import (
    NICSIM_KIND,
    NicDatapathSimulator,
    NicSimParams,
    NicSimResult,
)


def run_nicsim_benchmark(
    params: NicSimParams,
    *,
    profile_sink: list | None = None,
    tracer=None,
    metrics=None,
    device: str = "nic",
) -> NicSimResult:
    """Run one NIC datapath simulation as described by ``params``.

    ``profile_sink`` (a caller-owned list) collects the run's
    :class:`~repro.sim.engine.EngineProfile` when provided — the hook the
    ``pcie-bench nicsim --profile`` flag uses; the profile also attaches
    to the returned result (``result.profile``) so it serialises.

    ``tracer`` / ``metrics`` opt the run into the observability layer
    (:mod:`repro.obs`) — span traces of every packet lifecycle stage and
    a window-sampled metrics registry attached as ``result.metrics``.
    ``device`` names the run in spans and metric names.
    """
    simulator = NicDatapathSimulator(params)
    result = simulator.run(tracer=tracer, metrics=metrics, device=device)
    if profile_sink is not None:
        profile_sink.append(simulator.last_profile)
        result = replace(result, profile=simulator.last_profile)
    return result


@dataclass(frozen=True)
class CrossValidationPoint:
    """Analytic vs simulated throughput for one (model, packet size) pair."""

    model: str
    packet_size: int
    analytic_gbps: float
    simulated_gbps: float

    @property
    def relative_error(self) -> float:
        """``|simulated - analytic| / analytic``."""
        return abs(self.simulated_gbps - self.analytic_gbps) / self.analytic_gbps

    def within(self, tolerance: float = 0.1) -> bool:
        """Whether the simulation agrees with the model to ``tolerance``."""
        return self.relative_error <= tolerance


def cross_validate(
    params: NicSimParams, sizes: tuple[int, ...] = (64, 512, 1500)
) -> list[CrossValidationPoint]:
    """Compare steady-state simulated throughput with the analytic curve.

    Runs each size as the fixed-size, saturating, full-duplex variant of
    ``params`` — the exact setting the closed-form model describes — and
    pairs the measured per-direction payload throughput with
    :meth:`~repro.core.nic.NicModel.throughput_gbps`.  RX backpressure is
    enabled so both directions stay in the 1:1 lossless mix the model
    assumes (with tail-drop, dropped RX packets would free upstream
    bandwidth and let TX exceed the model's bound).  Agreement here is
    what licenses trusting the simulator where the model cannot go (bursty
    arrivals, mixed sizes, shallow rings).  Every other field of
    ``params`` (model, packets, ring depth, seed, host, tag pool, ...)
    applies as written.

    A host-coupled ``params`` runs the comparison with the datapath
    coupled to a host model; with a *neutral* host configuration (IOMMU
    off, warm cache, local buffers) the agreement must survive the
    coupling — the regression contract the host-coupling refactor is held
    to.  A ``dma_tags`` bound participates in the same contract only while
    the pool is deep enough not to bind; a deliberately small pool
    *should* break the agreement (that is the Figure 8 experiment).
    """
    model = model_by_name(params.model)
    points = []
    for size in sizes:
        result = run_nicsim_benchmark(
            params.with_(
                workload="fixed",
                packet_size=size,
                offered_load_gbps=None,
                duplex=True,
                rx_backpressure=True,
            )
        )
        points.append(
            CrossValidationPoint(
                model=model.name,
                packet_size=size,
                analytic_gbps=model.throughput_gbps(size),
                simulated_gbps=result.throughput_gbps,
            )
        )
    return points
