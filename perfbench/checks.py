"""Result checks and result-derived numbers for the benchmark.

A run *fails* when any of :func:`run_problems` applies: its result record
differs from the warm-up run's, a direction loses or invents packets, a
different engine ran than was requested (a silent ``BatchFallback``), or
a batch run's throughput strays more than the documented 1% from the
exact engine on the same inputs.
"""

from __future__ import annotations

import hashlib
import json

from repro.sim.engine import EngineProfile

#: ``sim.fastpath``'s saturated-run throughput tolerance against exact.
BATCH_THROUGHPUT_TOLERANCE = 0.01


def digest(result) -> str:
    """SHA-256 of the result record without its wall-clock ``profile``."""
    record = result.as_dict()
    record.pop("profile", None)
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


def devices(result) -> list[tuple[str, object]]:
    """``(name, NicSimResult)`` per device of a nicsim or contention result."""
    if hasattr(result, "devices"):
        return [(record.name, record.result) for record in result.devices]
    return [("nic", result)]


def paths(result) -> list[tuple[str, object]]:
    """``("<device>.<direction>", PathResult)`` for every direction."""
    return [
        (f"{name}.{path.direction}", path)
        for name, device in devices(result)
        for path in (device.tx, device.rx)
        if path is not None
    ]


def offered_packets(result) -> int:
    """Packets offered across every device and direction."""
    return sum(path.offered_packets for _, path in paths(result))


def _relative(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else float("inf")
    return abs(value - reference) / abs(reference)


def engine_error(result, reference) -> float:
    """Largest relative deviation of throughput, p50 and p99 from ``reference``."""
    worst = 0.0
    for (_, path), (_, exact) in zip(paths(result), paths(reference)):
        pairs = [(path.throughput_gbps, exact.throughput_gbps)]
        if path.latency is not None and exact.latency is not None:
            pairs += [
                (path.latency.median, exact.latency.median),
                (path.latency.p99, exact.latency.p99),
            ]
        worst = max([worst] + [_relative(a, b) for a, b in pairs])
    return worst


def run_problems(
    result,
    profile: EngineProfile,
    *,
    requested_mode: str,
    reference_digest: str,
    exact_reference=None,
) -> list[str]:
    """Every correctness check the run fails (empty when it passes)."""
    problems = []
    if digest(result) != reference_digest:
        problems.append("result record differs from the warm-up run's")
    for label, path in paths(result):
        if path.delivered_packets + path.drops != path.offered_packets:
            problems.append(
                f"{label}: delivered {path.delivered_packets} + dropped "
                f"{path.drops} != offered {path.offered_packets}"
            )
    if profile.mode != requested_mode:
        problems.append(
            f"engine {profile.mode!r} ran, {requested_mode!r} was requested"
        )
    if exact_reference is not None:
        for (label, path), (_, exact) in zip(
            paths(result), paths(exact_reference)
        ):
            error = _relative(path.throughput_gbps, exact.throughput_gbps)
            if error > BATCH_THROUGHPUT_TOLERANCE:
                problems.append(
                    f"{label}: throughput {error:.2%} from exact "
                    f"(tolerance {BATCH_THROUGHPUT_TOLERANCE:.0%})"
                )
    return problems


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def model_metrics(result) -> dict[str, float]:
    """The modelled components a speed-only change must leave exactly equal."""
    nics = [device for _, device in devices(result)]
    hosts = [nic.host for nic in nics if nic.host is not None]
    tags = [nic.tags for nic in nics if nic.tags is not None]
    ports = getattr(result, "devices", ())
    walkers = [port.walker for port in ports if port.walker is not None]
    ingresses = [port.ingress for port in ports if port.ingress is not None]
    payload = sum(host.payload_accesses for host in hosts)
    return {
        "model.host_accesses": sum(host.accesses for host in hosts),
        "model.iotlb_misses": sum(host.iotlb_misses for host in hosts),
        "model.payload_hit_ratio": _mean(
            sum(h.payload_cache_hit_rate * h.payload_accesses for h in hosts),
            payload,
        ),
        "model.walker_wait_ns_mean": _mean(
            sum(port.wait_ns_total for port in walkers),
            sum(port.requests for port in walkers),
        ),
        "model.ingress_wait_ns_mean": _mean(
            sum(port.wait_ns_total for port in ingresses),
            sum(port.requests for port in ingresses),
        ),
        "model.tag_wait_ns_mean": _mean(
            sum(pool.wait_ns_total for pool in tags),
            sum(pool.waited for pool in tags),
        ),
        "model.drops": sum(path.drops for _, path in paths(result)),
        "model.control_actions": len(getattr(result, "control_actions", ())),
    }
