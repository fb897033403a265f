"""Figure 8 companion: the DMA-tag x ring-depth knee surface.

:mod:`repro.experiments.fig8_sim` sweeps the tag-pool size at one ring
depth and shows the remote-NUMA bandwidth dip.  This sibling maps the
*surface* the ROADMAP flags as unexplored: how many in-flight DMA tags a
datapath needs before throughput saturates, as a function of descriptor
ring depth.  Both resources bound the same quantity — outstanding work —
so whichever is smaller binds:

* **Tag-bound region.**  At small pools every ring depth delivers the
  same (low) throughput: round trips are long (remote buffers) and the
  pool, not the ring, caps bytes in flight.
* **Knee.**  Throughput climbs with the pool until the *ring* becomes the
  binding resource.  The knee (smallest pool within 5% of that ring's
  best) comes no later for shallow rings than for deep ones: a 64-deep
  ring cannot use many more than 64 outstanding DMAs, so tags beyond that
  are wasted silicon.
* **Ring-bound region.**  Past the knee, only deeper rings raise the
  ceiling — the second axis of the surface.
"""

from __future__ import annotations

from ..bench.nicsim import NicSimParams, run_nicsim_benchmark
from ..sim.nicsim import NicSimResult
from ..units import KIB
from .base import Check, ExperimentResult, value_at

EXPERIMENT_ID = "figure-8-knee"
TITLE = "DMA-tag x ring-depth knee surface (Figure 8 companion)"

#: Two-socket Broadwell host, remote payload buffers: long round trips
#: make tag occupancy expensive, as in figure-8-sim.
SYSTEM = "NFP6000-BDW"
PACKET_SIZE = 256
WINDOW = 256 * KIB
#: The swept axes.
TAG_SWEEP = (4, 8, 16, 32, 64, 128)
RING_SWEEP = (64, 128, 512)
#: A ring's knee: smallest pool within this fraction of its best.
KNEE_FRACTION = 0.95


def _run(ring_depth: int, tags: int, packets: int) -> NicSimResult:
    return run_nicsim_benchmark(
        NicSimParams(
            model="dpdk",
            packet_size=PACKET_SIZE,
            packets=packets,
            ring_depth=ring_depth,
            system=SYSTEM,
            payload_window=WINDOW,
            payload_placement="remote",
            dma_tags=tags,
        )
    )


def knee_tags(points: list[tuple[float, float]], *, fraction: float = KNEE_FRACTION) -> float:
    """Smallest swept pool size reaching ``fraction`` of the series' best."""
    best = max(y for _, y in points)
    for tags, throughput in sorted(points):
        if throughput >= fraction * best:
            return tags
    return sorted(points)[-1][0]  # pragma: no cover - best is in points


def run(quick: bool = True) -> ExperimentResult:
    """Sweep tags x ring depth and check the knee surface's shape."""
    packets = 1800 if quick else 5000

    series: dict[str, list[tuple[float, float]]] = {}
    for ring_depth in RING_SWEEP:
        series[f"ring={ring_depth}"] = [
            (float(tags), _run(ring_depth, tags, packets).throughput_gbps)
            for tags in TAG_SWEEP
        ]

    knees = {
        ring_depth: knee_tags(series[f"ring={ring_depth}"])
        for ring_depth in RING_SWEEP
    }
    ceilings = {
        ring_depth: max(y for _, y in series[f"ring={ring_depth}"])
        for ring_depth in RING_SWEEP
    }
    small_pool = {
        ring_depth: value_at(series[f"ring={ring_depth}"], float(TAG_SWEEP[0]))
        for ring_depth in RING_SWEEP
    }
    small_spread = (
        max(small_pool.values()) - min(small_pool.values())
    ) / min(small_pool.values())
    shallow, deep = RING_SWEEP[0], RING_SWEEP[-1]

    monotone = all(
        b >= a * 0.98
        for points in series.values()
        for (_, a), (_, b) in zip(sorted(points), sorted(points)[1:])
    )

    checks = [
        Check(
            "Throughput never falls as the tag pool grows (every ring "
            "depth; 2% tolerance)",
            monotone,
            "; ".join(
                f"ring {ring}: "
                + " -> ".join(f"{y:.0f}" for _, y in sorted(series[f'ring={ring}']))
                for ring in RING_SWEEP
            )
            + " Gb/s",
        ),
        Check(
            f"In the tag-bound region ({TAG_SWEEP[0]} tags) ring depth is "
            "irrelevant: all rings agree within 10%",
            small_spread <= 0.10,
            f"{small_spread * 100:.1f}% spread at {TAG_SWEEP[0]} tags",
        ),
        Check(
            "Every ring depth reaches its knee inside the sweep "
            f"(>= {KNEE_FRACTION:.0%} of its best)",
            all(knees[ring] < TAG_SWEEP[-1] or
                value_at(series[f"ring={ring}"], float(TAG_SWEEP[-1]))
                >= KNEE_FRACTION * ceilings[ring]
                for ring in RING_SWEEP),
            ", ".join(f"ring {ring}: knee at {knees[ring]:.0f} tags" for ring in RING_SWEEP),
        ),
        Check(
            "The knee comes no later for shallow rings than for deep ones "
            "(a shallow ring cannot use a deeper pool)",
            all(
                knees[a] <= knees[b]
                for a, b in zip(RING_SWEEP, RING_SWEEP[1:])
            ),
            ", ".join(
                f"knee({ring}) = {knees[ring]:.0f}" for ring in RING_SWEEP
            ),
        ),
        Check(
            "Past the knee only ring depth raises the ceiling: the deepest "
            "ring out-delivers the shallowest by >= 3% at full pools",
            ceilings[deep] >= 1.03 * ceilings[shallow],
            f"ceiling {ceilings[shallow]:.1f} Gb/s (ring {shallow}) vs "
            f"{ceilings[deep]:.1f} Gb/s (ring {deep})",
        ),
    ]

    table_rows = [
        [
            f"ring={ring_depth}",
            f"{knees[ring_depth]:.0f}",
            small_pool[ring_depth],
            ceilings[ring_depth],
        ]
        for ring_depth in RING_SWEEP
    ]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series=series,
        x_label="DMA tag pool size",
        y_label="Throughput (Gb/s)",
        table_headers=[
            "ring depth",
            "knee (tags)",
            f"Gb/s @ {TAG_SWEEP[0]} tags",
            "ceiling (Gb/s)",
        ],
        table_rows=table_rows,
        checks=checks,
        notes=[
            f"All runs: DPDK model, {PACKET_SIZE} B fixed-size saturating "
            f"full-duplex traffic on {SYSTEM} with a 256 KiB warm payload "
            "window on the remote socket — the figure-8-sim scenario, "
            "swept over both tag pool and ring depth.",
            "Both knobs bound outstanding work: below the knee the tag "
            "pool binds (ring depth irrelevant), above it the ring binds "
            "(more tags are wasted).  Sizing either without the other "
            "leaves throughput on the table.",
        ],
    )
