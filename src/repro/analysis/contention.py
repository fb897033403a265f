"""Victim/aggressor analysis for shared-host contention runs.

Renders :meth:`repro.sim.fabric.ContentionResult.as_dict` records (plain
dictionaries, so this module stays independent of the simulator) as
per-device tables, computes *slowdowns* against solo baselines and the
Jain fairness index over them — the quantitative language of the §7
noisy-neighbour question: who got how much of the shared host, and how
unfairly.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import AnalysisError
from .table import format_table


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal allocations; ``1/n`` means one party took
    everything.  Negative allocations are invalid; an empty or all-zero
    allocation (nothing was distributed) is perfectly fair by convention.
    Infinite allocations (a fully starved device's slowdown) take the
    limit: with k of n values infinite the index tends to ``k/n``.
    """
    allocations = [float(value) for value in values]
    if any(value < 0 for value in allocations):
        raise AnalysisError(
            f"allocations must be non-negative, got {allocations}"
        )
    infinite = sum(1 for value in allocations if value == float("inf"))
    if infinite:
        return infinite / len(allocations)
    square_sum = sum(value * value for value in allocations)
    if not allocations or square_sum == 0.0:
        return 1.0
    total = sum(allocations)
    return (total * total) / (len(allocations) * square_sum)


def device_slowdowns(
    record: dict, solo: dict[str, dict]
) -> dict[str, dict[str, float]]:
    """Per-device slowdown factors of a contended run against solo runs.

    Args:
        record: a ``ContentionResult.as_dict()`` output.
        solo: per-device-name ``NicSimResult.as_dict()`` baselines
            (each device running the identical workload on an identical
            but private host).

    Returns:
        Per device name: ``p99`` (contended p99 / solo p99, from the TX
        latency distribution) and ``throughput`` (solo Gb/s / contended
        Gb/s, from the RX path when present — RX tail-drops are how a
        contended host turns into packet loss — else TX).  Both are >= 1
        when sharing hurt and ~1 when it did not.
    """
    slowdowns: dict[str, dict[str, float]] = {}
    for device in record["devices"]:
        name = device["name"]
        baseline = solo.get(name)
        if baseline is None:
            continue
        contended = device["result"]
        slowdowns[name] = {
            "p99": _ratio(
                _tx_p99(contended), _tx_p99(baseline)
            ),
            "throughput": _ratio(
                _delivery_gbps(baseline), _delivery_gbps(contended)
            ),
        }
    return slowdowns


def _tx_p99(result: dict) -> float:
    latency = result["tx"].get("latency_ns") or {}
    return float(latency.get("p99", 0.0))


def _delivery_gbps(result: dict) -> float:
    path = result.get("rx") or result["tx"]
    return float(path["throughput_gbps"])


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0.0:
        # A starved metric (contended throughput of 0, say) is the worst
        # case, not a no-op: report an infinite slowdown.  Only a 0/0
        # (both runs delivered nothing) is genuinely neutral.
        return 1.0 if numerator <= 0.0 else float("inf")
    return numerator / denominator


def format_contention_summary(
    record: dict,
    *,
    solo: dict[str, dict] | None = None,
    title: str | None = None,
) -> str:
    """Render one contention record as per-device text tables.

    The main table gives each device's delivered throughput, drops, TX
    latency percentiles and its arbitration counters (ingress/walker
    queueing); when ``solo`` baselines are supplied a second table adds
    the slowdown factors and the Jain fairness index over them (fair
    sharing means every device slows down *equally*).
    """
    devices = record.get("devices")
    if not devices:
        raise AnalysisError("no devices in the contention record")
    header = (
        f"shared host {record['system']}, arbiter {record['arbiter']}"
        + (
            " (weights "
            + ":".join(f"{weight:g}" for weight in record["weights"])
            + ")"
            if record.get("weights") and len(set(record["weights"])) > 1
            else ""
        )
    )
    rows = []
    for device in devices:
        result = device["result"]
        latency = result["tx"].get("latency_ns") or {}
        ingress = device.get("ingress") or {}
        walker = device.get("walker") or {}
        rows.append(
            [
                device["name"],
                result["model"],
                result["workload"],
                _delivery_gbps(result),
                result["tx"]["drops"] + (result.get("rx") or {}).get("drops", 0),
                latency.get("median", "-"),
                latency.get("p99", "-"),
                ingress.get("wait_ns_mean", "-"),
                walker.get("wait_ns_mean", "-"),
            ]
        )
    rendered = format_table(
        [
            "device",
            "model",
            "workload",
            "Gb/s",
            "drops",
            "p50 (ns)",
            "p99 (ns)",
            "ingress wait (ns)",
            "walker wait (ns)",
        ],
        rows,
        title=title or f"Contention run: {header}",
        float_format="{:.1f}",
    )
    if solo:
        slowdowns = device_slowdowns(record, solo)
        if slowdowns:
            slowdown_rows = [
                [
                    name,
                    factors["throughput"],
                    factors["p99"],
                ]
                for name, factors in slowdowns.items()
            ]
            fairness = jain_fairness_index(
                [factors["p99"] for factors in slowdowns.values()]
            )
            slowdown_table = format_table(
                ["device", "throughput slowdown", "p99 slowdown"],
                slowdown_rows,
                title="Slowdown vs solo baseline (1.0 = unaffected)",
                float_format="{:.2f}",
            )
            rendered = (
                f"{rendered}\n\n{slowdown_table}\n"
                f"Jain fairness index over p99 slowdowns: {fairness:.3f} "
                "(1.0 = every device slows equally)"
            )
    return rendered
