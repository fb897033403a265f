"""Latency attribution from transaction-level span traces.

Decomposes the end-to-end latency distribution recorded by a
:class:`repro.obs.Tracer` into its per-stage components: for every traced
device, how much of the p50 and of the p99 tail each lifecycle stage
(ring admission, descriptor issue, payload DMA, completion delivery)
contributed, plus the arbitration-wait and IOMMU-walker service totals
recorded against the host resources.  This is the analysis behind
``pcie-bench nicsim --trace`` / ``contend --trace`` and the
``figure-14-attribution`` experiment.

The four packet stages are *contiguous* — they telescope, so summing a
packet's stage durations reproduces its end-to-end latency exactly.  The
resource spans (``arb:*``, ``walker``, ``op:*``) overlap the packet
stages and are reported as totals, not added to them.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import AnalysisError
from ..obs.trace import ARB_PREFIX, PACKET_STAGES, STAGE_WALKER, Span
from .table import format_table


def attribute_spans(spans: Iterable[Span]) -> list[dict]:
    """Per-device latency attribution records from a span stream.

    Groups the packet-stage spans (``ring`` / ``issue`` / ``payload`` /
    ``completion``) by ``(device, lane, packet)``; only packets whose
    trace is *complete* — all four stages present, so flight-recorder
    eviction cannot skew the distribution — contribute.

    Returns one record per device (sorted by name)::

        {
            "device": str,
            "packets": int,          # complete traced packets
            "p50_ns": float,         # end-to-end latency percentiles
            "p99_ns": float,
            "mean_ns": float,
            "stages": {stage: {"mean_ns": float, "share": float}},
            "tail_stages": {...},    # same, over packets >= p99 only
            "arb_wait_ns": float,    # total arbitration wait (arb:*)
            "walker_ns": float,      # total IOMMU walker service time
        }

    ``share`` is the stage's fraction of the mean end-to-end latency in
    that population (shares sum to 1 by the telescoping property).
    """
    packet_stage_set = frozenset(PACKET_STAGES)
    per_packet: dict[tuple[str, str, int], dict[str, float]] = {}
    arb_wait: dict[str, float] = {}
    walker: dict[str, float] = {}
    for span in spans:
        if span.stage in packet_stage_set and span.packet >= 0:
            key = (span.device, span.lane, span.packet)
            per_packet.setdefault(key, {})[span.stage] = span.duration_ns
        elif span.stage.startswith(ARB_PREFIX):
            arb_wait[span.device] = (
                arb_wait.get(span.device, 0.0) + span.duration_ns
            )
        elif span.stage == STAGE_WALKER:
            walker[span.device] = (
                walker.get(span.device, 0.0) + span.duration_ns
            )

    by_device: dict[str, list[dict[str, float]]] = {}
    for (device, _lane, _packet), stages in per_packet.items():
        if len(stages) == len(PACKET_STAGES):
            by_device.setdefault(device, []).append(stages)

    devices = sorted(set(by_device) | set(arb_wait) | set(walker))
    records = []
    for device in devices:
        complete = by_device.get(device, [])
        record: dict = {
            "device": device,
            "packets": len(complete),
            "arb_wait_ns": arb_wait.get(device, 0.0),
            "walker_ns": walker.get(device, 0.0),
        }
        if complete:
            matrix = np.array(
                [
                    [stages[stage] for stage in PACKET_STAGES]
                    for stages in complete
                ]
            )
            totals = matrix.sum(axis=1)
            p99 = float(np.percentile(totals, 99.0))
            record["p50_ns"] = float(np.percentile(totals, 50.0))
            record["p99_ns"] = p99
            record["mean_ns"] = float(totals.mean())
            record["stages"] = _stage_breakdown(matrix, totals)
            tail = matrix[totals >= p99]
            record["tail_stages"] = _stage_breakdown(
                tail, totals[totals >= p99]
            )
        records.append(record)
    return records


def _stage_breakdown(
    matrix: np.ndarray, totals: np.ndarray
) -> dict[str, dict[str, float]]:
    """Mean duration and latency share of each packet stage."""
    means = matrix.mean(axis=0)
    total_mean = float(totals.mean())
    return {
        stage: {
            "mean_ns": float(means[index]),
            "share": (
                float(means[index]) / total_mean if total_mean > 0.0 else 0.0
            ),
        }
        for index, stage in enumerate(PACKET_STAGES)
    }


def format_attribution_summary(
    records: Sequence[Mapping], *, title: str = "Latency attribution"
) -> str:
    """Render :func:`attribute_spans` records as text tables.

    One distribution table (per-device p50/p99/mean plus resource
    totals), then a per-stage breakdown table decomposing the mean and
    the >= p99 tail of every device into stage shares.
    """
    if not records:
        raise AnalysisError("no attribution records to format")
    summary_rows = []
    stage_rows = []
    for record in records:
        device = record["device"]
        summary_rows.append(
            [
                device,
                record["packets"],
                record.get("p50_ns", float("nan")),
                record.get("p99_ns", float("nan")),
                record.get("mean_ns", float("nan")),
                record["arb_wait_ns"],
                record["walker_ns"],
            ]
        )
        for stage in PACKET_STAGES:
            stages = record.get("stages", {})
            tail = record.get("tail_stages", {})
            if stage not in stages:
                continue
            stage_rows.append(
                [
                    device,
                    stage,
                    stages[stage]["mean_ns"],
                    100.0 * stages[stage]["share"],
                    tail[stage]["mean_ns"],
                    100.0 * tail[stage]["share"],
                ]
            )
    out = format_table(
        [
            "device",
            "packets",
            "p50 (ns)",
            "p99 (ns)",
            "mean (ns)",
            "arb wait (ns)",
            "walker (ns)",
        ],
        summary_rows,
        title=title,
        float_format="{:.1f}",
    )
    if stage_rows:
        out += "\n\n" + format_table(
            [
                "device",
                "stage",
                "mean (ns)",
                "mean %",
                "tail mean (ns)",
                "tail %",
            ],
            stage_rows,
            title="Per-stage decomposition (mean and >= p99 tail)",
            float_format="{:.1f}",
        )
    return out
