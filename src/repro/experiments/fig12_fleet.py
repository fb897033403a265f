"""Figure 12 (new): placement policy shifts the fleet-wide tail-SLO curve.

The rack-scale question behind the paper's single-host characterisation:
once host-level PCIe contention is understood, what does a *fleet* of such
hosts look like to a capacity planner?  This experiment simulates a rack
whose Zipf-skewed tenant population is mapped onto hosts by two placement
policies — ``spread`` (deal tenants round-robin, everyone shares the
pain) and ``pack`` (consolidate onto half the rack, the rest runs clean)
— and scores both against latency SLOs: the fraction of hosts whose
victim p99 breaks the threshold.

The statistics ride on the O(1)-memory streaming layer: every device runs
``retain_samples=False``, per-host latency sketches merge into the
rack-wide distribution in host order, and the experiment pins the three
contracts the fleet depends on:

* the quantile sketch reproduces exact (nearest-rank) percentiles within
  1% on the golden-pinned seeded datapath scenario;
* sharding hosts over worker processes is invisible — ``jobs=1`` and
  ``jobs=2`` fleet records are bit-identical;
* placement measurably moves the SLO-violating fraction: pack leaves
  clean hosts below thresholds that the packed (or evenly loaded) hosts
  break.
"""

from __future__ import annotations

import numpy as np

from ..bench.fleet import FleetParams, run_fleet_benchmark
from ..sim.nicsim import NicDatapathSimulator, NicSimParams
from ..stats import QuantileSketch
from ..units import MIB
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-12-fleet"
TITLE = (
    "Rack-scale fleet: tenant placement policy shifts the fleet-wide "
    "tail-SLO curve (O(1)-memory streaming statistics)"
)

#: The acceptance budget for sketch-vs-exact percentiles (relative error).
SKETCH_TOLERANCE = 0.01

GOLDEN_SEED = 7

#: The seeded host-coupled scenario pinned by ``tests/golden/nicsim_seeded.json``
#: (dpdk, IMIX at 20 Gb/s, 600 packets, ring 256, NFP6000-BDW with IOMMU,
#: 1 MiB device-warm window, seed 7) — the sketch accuracy check runs the
#: same record and compares against its exact per-packet latencies.
GOLDEN_SCENARIO = NicSimParams(
    model="dpdk",
    workload="imix",
    offered_load_gbps=20.0,
    packets=600,
    ring_depth=256,
    system="NFP6000-BDW",
    iommu_enabled=True,
    payload_window=1 * MIB,
    payload_cache_state="device_warm",
    seed=GOLDEN_SEED,
)


def _golden_scenario_latencies() -> dict[str, np.ndarray]:
    """Exact per-packet latency samples of the golden-pinned scenario."""
    simulator = NicDatapathSimulator(GOLDEN_SCENARIO)
    simulator.run()
    return {
        direction: trace.notifies_ns - trace.arrivals_ns
        for direction, trace in simulator.last_traces.items()
    }


def _fleet_params(quick: bool) -> FleetParams:
    return FleetParams(
        hosts=4 if quick else 8,
        tenants=8 if quick else 16,
        victim_packets=200 if quick else 400,
        aggressor_packets=800 if quick else 2400,
        seed=GOLDEN_SEED,
    )


def run(quick: bool = True) -> ExperimentResult:
    """Run both placements, verify the streaming contracts, score the SLOs."""
    # -- contract 1: sketch accuracy on the golden-pinned scenario -------------
    sketch_errors: dict[str, float] = {}
    for direction, samples in _golden_scenario_latencies().items():
        sketch = QuantileSketch()
        sketch.add_many(samples)
        for quantile, label in ((0.99, "p99"), (0.999, "p99.9")):
            exact = float(
                np.percentile(samples, quantile * 100.0, method="lower")
            )
            estimate = sketch.quantile(quantile)
            sketch_errors[f"{direction} {label}"] = abs(estimate - exact) / exact

    worst_error = max(sketch_errors.values())

    # -- contract 2 + the figure: both placements, serial and sharded ----------
    base = _fleet_params(quick)
    spread = run_fleet_benchmark(base)
    sharded = run_fleet_benchmark(base, jobs=2)
    pack = run_fleet_benchmark(base.with_(placement="pack"))

    shard_identical = spread.as_dict() == sharded.as_dict()

    # -- contract 3: placement shifts the violating fraction -------------------
    # Threshold between the clean hosts' tails and the loaded hosts' tails:
    # the geometric middle of the rack-wide p99 spread across both runs.
    tails = [host.victim_latency.p99 for host in spread.hosts] + [
        host.victim_latency.p99 for host in pack.hosts
    ]
    threshold = float(np.sqrt(min(tails) * max(tails)))
    spread_fraction = spread.slo_violation_fraction(threshold)
    pack_fraction = pack.slo_violation_fraction(threshold)
    shift = abs(spread_fraction - pack_fraction)

    clean_hosts = [
        host for host in pack.hosts if host.aggressor_load_gbps is None
    ]

    checks = [
        Check(
            "The streaming quantile sketch reproduces the golden seeded "
            f"scenario's exact p99/p99.9 within {SKETCH_TOLERANCE * 100:.0f}%",
            worst_error <= SKETCH_TOLERANCE,
            "worst relative error "
            f"{worst_error * 100:.3f}% over {sorted(sketch_errors)}",
        ),
        Check(
            "Sharding hosts over worker processes is invisible: jobs=1 "
            "and jobs=2 fleet records are bit-identical",
            shard_identical,
            f"fleet p99 {spread.fleet_latency.p99:.1f} ns in both",
        ),
        Check(
            "Packing concentrates the aggressors: the pack policy leaves "
            "part of the rack aggressor-free",
            0 < len(clean_hosts) < len(pack.hosts),
            f"{len(clean_hosts)}/{len(pack.hosts)} hosts clean under pack, "
            f"0/{len(spread.hosts)} under spread",
        ),
        Check(
            "Placement measurably shifts the fleet-wide SLO curve: at a "
            "threshold between the clean and loaded tails, the violating "
            "fraction moves by at least one host in the rack",
            shift >= 1.0 / base.hosts,
            f"p99 < {threshold:.0f} ns: spread "
            f"{spread_fraction * 100:.0f}% vs pack "
            f"{pack_fraction * 100:.0f}% violating",
        ),
        Check(
            "The rack-wide merged distribution spans every host: the "
            "fleet sketch count is the sum of the per-host counts",
            spread.fleet_latency.count
            == sum(host.victim_latency.count for host in spread.hosts),
            f"{spread.fleet_latency.count} merged samples",
        ),
    ]

    series = {
        "spread": [
            (float(index), host.victim_latency.p99)
            for index, host in enumerate(spread.hosts)
        ],
        "pack": [
            (float(index), host.victim_latency.p99)
            for index, host in enumerate(pack.hosts)
        ],
    }
    table_rows = []
    for label, result in (("spread", spread), ("pack", pack)):
        for host in result.hosts:
            table_rows.append(
                [
                    f"{label}, {host.name}",
                    "-"
                    if host.aggressor_load_gbps is None
                    else f"{host.aggressor_load_gbps:.1f}",
                    host.victim_latency.p99,
                    host.victim_latency.p999,
                    host.victim_throughput_gbps,
                    host.victim_drops,
                ]
            )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        x_label="host index",
        y_label="victim p99 (ns)",
        table_headers=[
            "policy, host",
            "aggressor (Gb/s)",
            "victim p99 (ns)",
            "p99.9 (ns)",
            "delivered (Gb/s)",
            "drops",
        ],
        table_rows=table_rows,
        checks=checks,
        notes=[
            "Every device streams its latencies through the mergeable "
            "quantile sketch (retain_samples=False): a host result costs "
            "O(buckets) memory however many packets it simulated, and the "
            "rack-wide distribution is the host-order merge of the "
            "per-host sketches.",
            "Per-host seeds are SeedSequence substreams of the fleet seed "
            "keyed by host index, so the sharded and serial runs execute "
            "identical host simulations — the bit-identity check is over "
            "the full serialised record, sketches included.",
            "The rack's nominal aggressor load is split by Zipf tenant "
            "demand share under the placement; pack consolidates tenants "
            "onto half the rack, so its loaded hosts run hotter while its "
            "tail runs clean — that is the SLO trade the scorecard shows.",
        ],
    )
