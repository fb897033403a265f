"""Figure 1 (simulated): packet-level datapath runs vs the analytic curves.

Where :mod:`repro.experiments.fig1_throughput_models` evaluates the Section 3
NIC interaction models in closed form, this experiment drives the same three
models through the packet-level datapath simulator
(:mod:`repro.sim.nicsim`) and checks two things:

* **Agreement where the model applies.**  Under fixed-size, smooth,
  full-duplex load — the model's own premise — simulated steady-state
  throughput must land within 10% of
  :meth:`~repro.core.nic.NicModel.throughput_gbps` for every Figure 1
  model at every sampled packet size.
* **New behaviour where it does not.**  Under IMIX and bursty traffic the
  simulator exposes quantities the closed form averages away: per-packet
  latency percentiles (interrupt moderation visibly penalises the kernel
  driver against DPDK polling) and descriptor-ring occupancy (bursts drive
  the ring far above its smooth-load level at the same offered load).
"""

from __future__ import annotations

from ..bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from ..core.nic import FIGURE1_MODELS, MODERN_NIC_DPDK, MODERN_NIC_KERNEL
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-1-sim"
TITLE = "Simulated NIC datapath vs analytic model (packet-level cross-validation)"

#: Tolerance for the analytic cross-validation (acceptance criterion).
TOLERANCE = 0.10
#: Offered load (Gb/s per direction) for the latency/occupancy scenarios —
#: comfortably below every model's capacity at the scenario sizes so the
#: differences measured are driver behaviour, not saturation.
SCENARIO_LOAD_GBPS = 24.0


def run(quick: bool = True) -> ExperimentResult:
    """Cross-validate the simulator and probe IMIX/bursty behaviour."""
    sizes = (64, 512, 1500) if quick else (64, 256, 512, 1024, 1500)
    packets = 1500 if quick else 6000
    scenario_packets = 2500 if quick else 8000

    series: dict[str, list[tuple[float, float]]] = {}
    checks: list[Check] = []
    for model in FIGURE1_MODELS:
        points = cross_validate(
            NicSimParams(model=model.name, packets=packets), sizes
        )
        series[f"{model.name} (model)"] = [
            (float(point.packet_size), point.analytic_gbps) for point in points
        ]
        series[f"{model.name} (sim)"] = [
            (float(point.packet_size), point.simulated_gbps) for point in points
        ]
        worst = max(point.relative_error for point in points)
        checks.append(
            Check(
                f"{model.name}: simulated throughput within 10% of the "
                "analytic model at every sampled size",
                all(point.within(TOLERANCE) for point in points),
                f"worst deviation {worst * 100:.1f}% over {len(points)} sizes",
            )
        )

    # Scenarios the closed form cannot express: mixed sizes, moderation
    # latency, burst-driven ring occupancy and drops.
    scenario = NicSimParams(
        model=MODERN_NIC_DPDK.name,
        workload="imix",
        packets=scenario_packets,
        offered_load_gbps=SCENARIO_LOAD_GBPS,
    )
    kernel_imix = run_nicsim_benchmark(scenario.with_(model=MODERN_NIC_KERNEL.name))
    dpdk_imix = run_nicsim_benchmark(scenario)
    smooth = run_nicsim_benchmark(scenario.with_(workload="fixed", packet_size=512))
    bursty = run_nicsim_benchmark(scenario.with_(workload="bursty", packet_size=512))

    assert kernel_imix.rx is not None and dpdk_imix.rx is not None
    assert smooth.rx is not None and bursty.rx is not None
    checks.append(
        Check(
            "Interrupt moderation inflates kernel-driver RX completion "
            "latency beyond DPDK polling under IMIX load",
            kernel_imix.rx.latency is not None
            and dpdk_imix.rx.latency is not None
            and kernel_imix.rx.latency.p99 > dpdk_imix.rx.latency.p99,
            f"RX p99 kernel {kernel_imix.rx.latency.p99:.0f} ns vs "
            f"DPDK {dpdk_imix.rx.latency.p99:.0f} ns",
        )
    )
    checks.append(
        Check(
            "Bursty arrivals drive RX ring occupancy far above the "
            "smooth-arrival level at equal offered load",
            bursty.rx.ring.max_occupancy > 2 * smooth.rx.ring.max_occupancy,
            f"max RX occupancy bursty {bursty.rx.ring.max_occupancy} vs "
            f"smooth {smooth.rx.ring.max_occupancy} (depth "
            f"{bursty.rx.ring.depth})",
        )
    )

    table_rows = [
        _scenario_row("kernel / imix", kernel_imix),
        _scenario_row("dpdk / imix", dpdk_imix),
        _scenario_row("dpdk / fixed 512B", smooth),
        _scenario_row("dpdk / bursty 512B", bursty),
    ]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        x_label="Packet size (B)",
        y_label="Throughput (Gb/s)",
        table_headers=[
            "scenario",
            "throughput (Gb/s)",
            "RX p50 (ns)",
            "RX p99 (ns)",
            "RX ring mean",
            "RX ring max",
            "drops",
        ],
        table_rows=table_rows,
        checks=checks,
        notes=[
            "Cross-validation runs fixed-size saturating full-duplex load "
            "with lossless RX (the analytic model's premise); scenario rows "
            f"run at {SCENARIO_LOAD_GBPS:g} Gb/s offered load per direction "
            "with realistic RX tail-drop.",
            "Latency is arrival-to-completion-report: the interrupt for "
            "interrupt-driven drivers, the descriptor write-back for "
            "polling drivers — which is why moderation shows up in the "
            "percentiles.",
        ],
    )


def _scenario_row(name: str, result) -> list[object]:
    rx = result.rx
    latency = rx.latency
    return [
        name,
        result.throughput_gbps,
        latency.median if latency is not None else float("nan"),
        latency.p99 if latency is not None else float("nan"),
        rx.ring.mean_occupancy,
        float(rx.ring.max_occupancy),
        result.total_drops,
    ]
