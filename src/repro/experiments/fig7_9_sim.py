"""Figures 7-9 (simulated): host effects on a live NIC datapath.

The paper measures cache/DDIO (Figure 7), NUMA (Figure 8) and IOMMU
(Figure 9) effects with raw pcie-bench DMA loops.  This experiment revisits
the same cliffs *under real traffic*: the packet-level NIC datapath
simulator (:mod:`repro.sim.nicsim`) coupled to a Table 1 host model
(:mod:`repro.sim.nichost`) and driven with IMIX and bursty workloads, so
every descriptor fetch, payload DMA and write-back is serviced by the
root complex rather than a flat link cost.

Claims checked:

* **Contract.** The host-decoupled datapath and a *neutral* host coupling
  (IOMMU off, warm cache, local buffers, small window) both stay within
  10% of the closed-form :meth:`~repro.core.nic.NicModel.throughput_gbps`
  — host coupling must not distort the regime the analytic model covers.
* **Cache (Fig 7).** With device-warm preparation, growing the payload
  window beyond the DDIO slice adds a DRAM-miss penalty to payload
  fetches that a small window does not see.
* **IOMMU (Fig 9).** With 4 KiB mappings, windows beyond the IOTLB reach
  (256 KiB) add roughly a page-walk latency to the packet path and — at
  saturating small-packet load — collapse throughput via page-walker
  serialisation; within the reach there is no measurable effect, and
  2 MiB super-pages remove the cliff entirely.
* **NUMA (Fig 8).** Remote payload buffers add roughly the interconnect
  penalty (~100 ns) to packet latency under smooth and IMIX traffic.

None of these knobs exists in the decoupled datapath — the same IMIX run
without a host model shows none of the cliffs, which is the point of the
host-coupling refactor.
"""

from __future__ import annotations

from ..bench.nicsim import NicSimParams, cross_validate, run_nicsim_benchmark
from ..sim.nicsim import NicSimResult
from ..units import KIB, MIB
from .base import Check, ExperimentResult

EXPERIMENT_ID = "figure-7-9-sim"
TITLE = (
    "Host-coupled NIC datapath: cache, NUMA and IOMMU cliffs under real "
    "traffic (Figures 7-9 revisited)"
)

#: Two-socket Broadwell host: the only profile that can show all three
#: effects (25 MiB LLC, dual socket, IOMMU calibrations from §6.5).
SYSTEM = "NFP6000-BDW"
#: Offered load (Gb/s per direction) for the latency scenarios, comfortably
#: below capacity so measured shifts are host effects, not queueing.
SCENARIO_LOAD_GBPS = 24.0
#: IOTLB reach with 4 KiB pages and 64 entries (§6.5).
IOTLB_REACH = 256 * KIB
#: Payload windows swept (the x axis of the window series).
WINDOWS = (64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB)
#: Cross-validation tolerance (the PR 1 contract, kept through the refactor).
TOLERANCE = 0.10

#: The DPDK datapath coupled to the host; runs vary the host fields.
COUPLED = NicSimParams(model="dpdk", system=SYSTEM)
#: Neutral coupling: everything a host can do to stay out of the way
#: (IOMMU off, warm cache, local buffers, a small window).
NEUTRAL = COUPLED.with_(payload_window=256 * KIB)


def _run_coupled(
    window: int,
    *,
    iommu: bool = False,
    page_size: int = 4 * KIB,
    cache: str = "device_warm",
    placement: str = "local",
    **run: object,
) -> NicSimResult:
    return run_nicsim_benchmark(
        COUPLED.with_(
            iommu_enabled=iommu,
            iommu_page_size=page_size,
            payload_window=window,
            payload_cache_state=cache,
            payload_placement=placement,
            **run,
        )
    )


def _tx_p50(result: NicSimResult) -> float:
    assert result.tx.latency is not None
    return result.tx.latency.median


def run(quick: bool = True) -> ExperimentResult:
    """Sweep window/IOMMU/NUMA on the host-coupled datapath."""
    packets = 1200 if quick else 5000
    xval_packets = 1500 if quick else 4000

    # -- contract: decoupled and neutral-coupled agree with the closed form
    decoupled_points = cross_validate(
        NicSimParams(model="dpdk", packets=xval_packets), (64, 1500)
    )
    coupled_points = cross_validate(NEUTRAL.with_(packets=xval_packets), (64, 1500))
    worst_decoupled = max(p.relative_error for p in decoupled_points)
    worst_coupled = max(p.relative_error for p in coupled_points)

    # -- window sweep under IMIX: cache pressure, then the IOTLB cliff
    series: dict[str, list[tuple[float, float]]] = {
        "IOMMU off": [],
        "IOMMU on (4K pages)": [],
        "IOMMU on (2M pages)": [],
    }
    sweep: dict[tuple[str, int], NicSimResult] = {}
    imix = {
        "workload": "imix",
        "packets": packets,
        "offered_load_gbps": SCENARIO_LOAD_GBPS,
    }
    for window in WINDOWS:
        variants = {
            "IOMMU off": _run_coupled(window, **imix),
            "IOMMU on (4K pages)": _run_coupled(window, iommu=True, **imix),
            "IOMMU on (2M pages)": _run_coupled(
                window, iommu=True, page_size=2 * MIB, **imix
            ),
        }
        for name, result in variants.items():
            sweep[(name, window)] = result
            series[name].append((float(window), _tx_p50(result)))

    small, large = WINDOWS[0], WINDOWS[-1]
    off_small = _tx_p50(sweep[("IOMMU off", small)])
    off_large = _tx_p50(sweep[("IOMMU off", large)])
    on_small = _tx_p50(sweep[("IOMMU on (4K pages)", small)])
    on_large = _tx_p50(sweep[("IOMMU on (4K pages)", large)])
    sp_large = _tx_p50(sweep[("IOMMU on (2M pages)", large)])
    large_on = sweep[("IOMMU on (4K pages)", large)]
    assert large_on.host is not None

    # -- cache state: warm small window vs cold large window, smooth load
    # (fixed-size traffic exposes the DRAM penalty across the whole
    # latency distribution; IMIX medians are batch-fill dominated)
    smooth = {
        "packets": packets,
        "packet_size": 512,
        "offered_load_gbps": SCENARIO_LOAD_GBPS,
    }
    cache_warm = _run_coupled(256 * KIB, cache="host_warm", **smooth)
    cache_cold = _run_coupled(large, cache="cold", **smooth)
    cache_adder = _tx_p50(cache_cold) - _tx_p50(cache_warm)

    # -- IOMMU throughput collapse: saturating small packets, large window
    sat_off = _run_coupled(large, packets=packets, packet_size=64)
    sat_on = _run_coupled(large, iommu=True, packets=packets, packet_size=64)

    # -- NUMA placement under smooth, IMIX and bursty traffic
    numa: dict[tuple[str, str], NicSimResult] = {}
    for workload in ("fixed", "imix", "bursty"):
        for placement in ("local", "remote"):
            numa[(workload, placement)] = _run_coupled(
                1 * MIB,
                cache="host_warm",
                placement=placement,
                workload=workload,
                **smooth,
            )
    fixed_adder = _tx_p50(numa[("fixed", "remote")]) - _tx_p50(
        numa[("fixed", "local")]
    )
    imix_adder = (
        numa[("imix", "remote")].tx.latency.mean
        - numa[("imix", "local")].tx.latency.mean
    )
    bursty_mean_adder = (
        numa[("bursty", "remote")].tx.latency.mean
        - numa[("bursty", "local")].tx.latency.mean
    )

    checks = [
        Check(
            "Decoupled datapath stays within 10% of the analytic model "
            "(the PR 1 contract)",
            all(p.within(TOLERANCE) for p in decoupled_points),
            f"worst deviation {worst_decoupled * 100:.1f}%",
        ),
        Check(
            "Neutral host coupling (IOMMU off, warm cache, local) keeps "
            "the 10% agreement",
            all(p.within(TOLERANCE) for p in coupled_points),
            f"worst deviation {worst_coupled * 100:.1f}%",
        ),
        Check(
            "A cold payload window beyond the DDIO slice adds the "
            "DRAM-miss penalty (~70 ns) to packet latency (Figure 7 "
            "analogue)",
            40.0 <= cache_adder <= 150.0,
            f"fixed-size TX p50 {_tx_p50(cache_warm):.0f} ns warm/256 KiB "
            f"vs {_tx_p50(cache_cold):.0f} ns cold/16 MiB "
            f"(payload hit rate {cache_cold.host.payload_cache_hit_rate * 100:.0f}%)",
        ),
        Check(
            "The IOMMU costs nothing while the window fits the IOTLB "
            "reach (256 KiB)",
            abs(on_small - off_small) <= 80.0,
            f"TX p50 {off_small:.0f} ns off vs {on_small:.0f} ns on "
            "at a 64 KiB window",
        ),
        Check(
            "Past the IOTLB reach, 4 KiB mappings add roughly a page "
            "walk to the packet path (Figure 9 analogue)",
            on_large - off_large >= 150.0,
            f"TX p50 {off_large:.0f} ns off vs {on_large:.0f} ns on at a "
            f"16 MiB window (IOTLB hit rate "
            f"{large_on.host.iotlb_hit_rate * 100:.0f}%)",
        ),
        Check(
            "Page-walker serialisation collapses saturating 64 B "
            "throughput at large windows",
            sat_on.throughput_gbps <= 0.8 * sat_off.throughput_gbps,
            f"{sat_off.throughput_gbps:.1f} Gb/s without vs "
            f"{sat_on.throughput_gbps:.1f} Gb/s with the IOMMU",
        ),
        Check(
            "2 MiB super-pages remove the latency cliff (Table 2 "
            "recommendation)",
            abs(sp_large - off_large) <= 80.0,
            f"TX p50 {sp_large:.0f} ns with super-pages vs "
            f"{off_large:.0f} ns without the IOMMU at 16 MiB",
        ),
        Check(
            "Remote payload buffers add roughly the ~100 ns interconnect "
            "penalty under smooth traffic (Figure 8 analogue)",
            50.0 <= fixed_adder <= 200.0,
            f"fixed-size TX p50 rises by {fixed_adder:.0f} ns",
        ),
        Check(
            # The local/remote runs share one seed, so the shift is the
            # systematic +100 ns on every payload fetch, diluted by how
            # much of each packet's latency is batch-fill waiting; only
            # its sign and order of magnitude are stable across modes.
            "The NUMA adder survives IMIX and bursty traffic",
            imix_adder >= 10.0 and bursty_mean_adder > 0.0,
            f"IMIX mean +{imix_adder:.0f} ns, bursty mean "
            f"+{bursty_mean_adder:.0f} ns",
        ),
    ]

    table_rows = [
        [
            "64B fixed saturating, 16M window, IOMMU off",
            sat_off.throughput_gbps,
            float(_tx_p50(sat_off)),
            sat_off.host.iotlb_hit_rate if sat_off.host else 1.0,
            sat_off.host.walker_stall_ns_mean if sat_off.host else 0.0,
        ],
        [
            "64B fixed saturating, 16M window, IOMMU on",
            sat_on.throughput_gbps,
            float(_tx_p50(sat_on)),
            sat_on.host.iotlb_hit_rate if sat_on.host else 1.0,
            sat_on.host.walker_stall_ns_mean if sat_on.host else 0.0,
        ],
        *(
            [
                f"512B {workload} @ {SCENARIO_LOAD_GBPS:g} Gb/s, {placement}",
                result.throughput_gbps,
                float(_tx_p50(result)),
                result.host.iotlb_hit_rate if result.host else 1.0,
                result.host.walker_stall_ns_mean if result.host else 0.0,
            ]
            for (workload, placement), result in numa.items()
        ),
    ]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        x_label="Payload window (B)",
        y_label="IMIX TX p50 latency (ns)",
        table_headers=[
            "scenario",
            "throughput (Gb/s)",
            "TX p50 (ns)",
            "IOTLB hit rate",
            "walker stall (ns)",
        ],
        table_rows=table_rows,
        checks=checks,
        notes=[
            f"All host-coupled runs use the {SYSTEM} profile; the window "
            "sweep prepares payload buffers device-warm so the DDIO slice "
            "(10% of the 25 MiB LLC) is the relevant capacity.",
            "Latency is arrival-to-completion-report on the TX path, "
            "whose payload fetch is a DMA read and therefore exposes "
            "host latency directly; RX payload writes are posted.",
            "The decoupled datapath has no window/IOMMU/placement knobs "
            "at all — these cliffs are produced entirely by routing DMAs "
            "through repro.sim.root_complex.",
        ],
    )
