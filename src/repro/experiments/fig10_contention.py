"""Figure 10 (new): the shared-host noisy-neighbour effect and its cure.

The paper's §7 speculates that host-side PCIe resources — root-complex
ingress, the IOMMU page walker, the DDIO'd LLC — become a contended,
*unfair* bottleneck once several devices share them.  This experiment
exercises that claim with the :mod:`repro.sim.fabric` subsystem: a
latency-sensitive victim (fixed-size, low offered load, small warm buffer,
a modest DMA-tag pool) shares one host with a bulk IMIX aggressor whose
64 MiB payload window blows through the IOTLB reach, so nearly every
aggressor DMA queues a page walk on the *shared* walker.

* **Degradation.**  With no arbitration (``fcfs``, the un-arbitrated
  baseline where the oldest request wins), the victim's TX p99 latency
  degrades by well over 10% against its solo baseline, and its delivered
  RX throughput drops ≥ 10% as stalls hold its DMA tags and overflow its
  RX ring — the noisy-neighbour effect, reproduced from first principles.
* **Protection.**  Weighted arbitration (``wrr``, victim weighted 8:1)
  cuts both degradations to less than half of the un-arbitrated level:
  per-device upstream queues mean the victim's sparse requests no longer
  wait behind the aggressor's backlog.
* **Fairness.**  The Jain index over per-device p99 slowdowns quantifies
  it: close to its floor under ``fcfs`` (one device absorbs the whole
  penalty), near 1.0 under ``wrr`` (everyone slows equally or less).
* **Degeneracy.**  A single-device fabric run is *identical* to the plain
  host-coupled datapath — the contention subsystem adds nothing when
  there is nothing to contend with.
"""

from __future__ import annotations

from ..analysis.contention import device_slowdowns, jain_fairness_index
from ..bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from ..bench.nicsim import NicSimParams, run_nicsim_benchmark
from ..sim.fabric import ContentionResult
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-10-contention"
TITLE = (
    "Shared-host noisy neighbour: victim degradation under a bulk "
    "aggressor, and weighted arbitration as the cure (a §7 question)"
)

#: Shared host: any Table 1 profile works; the effect needs the IOMMU on
#: (4 KiB pages) so both devices translate through one IOTLB and walker.
SYSTEM = "NFP6000-HSW"
#: Arbitration schemes compared (fcfs is the un-arbitrated baseline).
SCHEMES = ("fcfs", "rr", "wrr")
#: wrr weights: victim over aggressor.
WEIGHTS = (8.0, 1.0)
#: Required victim degradation (vs solo) under un-arbitrated fcfs; the
#: wrr checks are relative (residual <= half the fcfs degradation).
DEGRADATION_FLOOR = 0.10


def _devices(quick: bool) -> tuple[NicSimParams, NicSimParams]:
    # The canonical pair the CLI and suite also use; the aggressor must
    # stay saturating for the victim's whole measured window, hence the
    # ~8x packet count.
    return noisy_neighbour_pair(
        victim_packets=600 if quick else 1200,
        aggressor_packets=5000 if quick else 10000,
    )


def _params(quick: bool, arbiter: str) -> ContentionParams:
    victim, aggressor = _devices(quick)
    return ContentionParams(
        devices=(victim, aggressor),
        names=("victim", "aggressor"),
        system=SYSTEM,
        iommu_enabled=True,
        arbiter=arbiter,
        weights=WEIGHTS if arbiter == "wrr" else None,
    )


def _victim_metrics(result: ContentionResult) -> tuple[float, float]:
    """(TX p99 latency, delivered RX throughput) of the victim."""
    victim = result.device("victim").result
    assert victim.tx.latency is not None
    assert victim.rx is not None
    return victim.tx.latency.p99, victim.rx.throughput_gbps


def run(quick: bool = True) -> ExperimentResult:
    """Contend victim and aggressor under each arbiter; check the §7 story."""
    base = _params(quick, "fcfs")

    # Solo baselines: each device alone on an identical (private) host —
    # plain host-coupled NICSIM runs, which by the fabric's degenerate-case
    # contract equal one-device fabric runs bit for bit.
    solo_results = {
        name: run_nicsim_benchmark(base.solo_params(index))
        for index, name in enumerate(base.device_names())
    }
    solo_victim = solo_results["victim"]
    assert solo_victim.tx.latency is not None
    assert solo_victim.rx is not None
    solo_p99 = solo_victim.tx.latency.p99
    solo_rx_gbps = solo_victim.rx.throughput_gbps
    solo_dicts = {
        name: result.as_dict() for name, result in solo_results.items()
    }

    contended: dict[str, ContentionResult] = {
        arbiter: run_contention_benchmark(_params(quick, arbiter))
        for arbiter in SCHEMES
    }

    # One-device fabric run of the victim: must match its solo NICSIM run.
    degenerate = run_contention_benchmark(
        base.with_(
            devices=(base.devices[0],), names=("victim",), weights=None
        )
    )
    degenerate_victim = degenerate.devices[0].result

    def degradation(arbiter: str) -> tuple[float, float]:
        p99, rx_gbps = _victim_metrics(contended[arbiter])
        return (p99 - solo_p99) / solo_p99, (solo_rx_gbps - rx_gbps) / solo_rx_gbps

    fcfs_p99_deg, fcfs_rx_deg = degradation("fcfs")
    wrr_p99_deg, wrr_rx_deg = degradation("wrr")

    fairness = {
        arbiter: jain_fairness_index(
            [
                factors["p99"]
                for factors in device_slowdowns(
                    contended[arbiter].as_dict(), solo_dicts
                ).values()
            ]
        )
        for arbiter in SCHEMES
    }

    aggressor_fcfs = contended["fcfs"].device("aggressor").result
    aggressor_wrr = contended["wrr"].device("aggressor").result

    checks = [
        Check(
            "A bulk IMIX aggressor on the shared walker/ingress degrades "
            "the victim's TX p99 by >= 10% (the noisy-neighbour effect)",
            fcfs_p99_deg >= DEGRADATION_FLOOR,
            f"p99 {solo_p99:.0f} ns solo -> "
            f"{_victim_metrics(contended['fcfs'])[0]:.0f} ns contended "
            f"({fcfs_p99_deg * 100:+.0f}%)",
        ),
        Check(
            "The victim's delivered RX throughput also degrades >= 10% "
            "(stalled tags overflow its RX ring into tail drops)",
            fcfs_rx_deg >= DEGRADATION_FLOOR,
            f"RX {solo_rx_gbps:.2f} Gb/s solo -> "
            f"{_victim_metrics(contended['fcfs'])[1]:.2f} Gb/s contended "
            f"({fcfs_rx_deg * 100:.0f}% lost)",
        ),
        Check(
            "Weighted arbitration (wrr 8:1) cuts the victim's p99 "
            "degradation to less than half the un-arbitrated level",
            wrr_p99_deg <= fcfs_p99_deg / 2,
            f"{fcfs_p99_deg * 100:+.0f}% fcfs -> {wrr_p99_deg * 100:+.0f}% wrr",
        ),
        Check(
            "Weighted arbitration also recovers the victim's throughput "
            "(residual loss less than half the un-arbitrated loss)",
            wrr_rx_deg <= fcfs_rx_deg / 2,
            f"{fcfs_rx_deg * 100:.0f}% fcfs -> {wrr_rx_deg * 100:.0f}% wrr lost",
        ),
        Check(
            "Arbitration restores fairness: the Jain index over p99 "
            "slowdowns rises from fcfs to wrr and ends near 1.0",
            fairness["wrr"] > fairness["fcfs"] and fairness["wrr"] >= 0.9,
            ", ".join(
                f"{arbiter}: {fairness[arbiter]:.3f}" for arbiter in SCHEMES
            ),
        ),
        Check(
            "Protection is not starvation: the aggressor keeps at least "
            "half its un-arbitrated throughput under wrr",
            aggressor_wrr.throughput_gbps
            >= 0.5 * aggressor_fcfs.throughput_gbps,
            f"aggressor {aggressor_fcfs.throughput_gbps:.1f} Gb/s fcfs vs "
            f"{aggressor_wrr.throughput_gbps:.1f} Gb/s wrr",
        ),
        Check(
            "Degenerate case: a single-device fabric run is identical to "
            "the plain host-coupled datapath (solo baseline)",
            degenerate_victim == solo_victim,
            f"throughput {degenerate_victim.throughput_gbps:.6f} vs "
            f"{solo_victim.throughput_gbps:.6f} Gb/s, p99 "
            f"{degenerate_victim.tx.latency.p99:.3f} vs {solo_p99:.3f} ns",
        ),
    ]

    table_rows = []
    for arbiter in SCHEMES:
        result = contended[arbiter]
        for device in result.devices:
            nic = device.result
            assert nic.tx.latency is not None
            table_rows.append(
                [
                    f"{arbiter}, {device.name}",
                    _delivery(nic),
                    nic.tx.latency.p99,
                    nic.total_drops,
                    device.ingress.wait_ns_mean if device.ingress else 0.0,
                    device.walker.wait_ns_mean if device.walker else 0.0,
                ]
            )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        table_headers=[
            "scenario",
            "delivered (Gb/s)",
            "TX p99 (ns)",
            "drops",
            "mean ingress wait (ns)",
            "mean walker wait (ns)",
        ],
        table_rows=table_rows,
        checks=checks,
        notes=[
            f"Victim: DPDK model, 512 B fixed at 5 Gb/s, 64-deep rings, "
            f"256 KiB warm window, 12 DMA tags.  Aggressor: kernel model, "
            f"saturating IMIX, 64 MiB window (far beyond the IOTLB reach, "
            f"so nearly every DMA walks).  Shared {SYSTEM} host, IOMMU on "
            "(4 KiB pages).",
            "fcfs is the un-arbitrated baseline: the victim's sparse "
            "requests queue behind the aggressor's whole walker backlog.  "
            "rr and wrr give each device its own upstream queue; wrr "
            "weights the victim 8:1.",
            "Solo baselines are plain host-coupled NICSIM runs; the "
            "degenerate-case check confirms they equal one-device fabric "
            "runs exactly, so the slowdowns are measured against the same "
            "machinery.",
        ],
    )


def _delivery(result) -> float:
    """Delivered throughput: RX path when present (drops show), else TX."""
    path = result.rx if result.rx is not None else result.tx
    return path.throughput_gbps
