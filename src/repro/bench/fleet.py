"""Rack-scale fleet simulation: many shared hosts, O(1)-memory statistics.

:class:`FleetParams` describes a rack of N hosts, each a full
:mod:`repro.sim.fabric` shared-host configuration: a latency-sensitive
victim device (the canonical DPDK device of
:func:`~repro.bench.contention.noisy_neighbour_pair`) plus, on hosts the
placement policy assigned tenants to, a bulk aggressor whose offered load
is the host's Zipf tenant demand share scaled by the rack's nominal load
and the load-profile factor (:mod:`repro.fleet`).  Every device runs with
``retain_samples=False``, so a host run carries a mergeable
:class:`~repro.stats.QuantileSketch` instead of per-packet arrays — the
whole rack reduces in O(buckets), not O(packets).

Determinism contract: host ``i``'s seed is
:func:`~repro.fleet.fleet_host_seed` of ``(fleet seed, i)`` — a pure
function of the index — and :func:`run_fleet_benchmark` reduces the
*ordered* result list host by host, so ``jobs=1`` and ``jobs=N`` produce
bit-identical :class:`FleetResult` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ValidationError, record_reader
from ..fleet import (
    canonical_load_profile,
    canonical_placement,
    fleet_host_seed,
    host_demand_shares,
    load_profile_factors,
    place_tenants,
    zipf_tenant_weights,
)
from ..sim.engine import ARBITER_SCHEMES
from ..sim.fabric import ContentionResult
from ..sim.nicsim import LatencySummary, _streaming_warmup_threshold
from ..sim.profiles import profile_names
from ..sim.rng import DEFAULT_SEED, check_seed
from ..stats import QuantileSketch
from ..units import KIB, MIB
from ..workloads import SATURATING_LOAD_GBPS
from .contention import ContentionParams
from .nicsim import NicSimParams

#: The ``kind`` tag used in labels and serialised records.
FLEET_KIND = "FLEET"


def _victim(packets: int) -> NicSimParams:
    """Every host's latency-sensitive victim device."""
    return NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        offered_load_gbps=5.0,
        packets=packets,
        ring_depth=64,
        payload_window=256 * KIB,
        dma_tags=12,
        retain_samples=False,
    )


@dataclass(frozen=True)
class FleetParams:
    """Complete description of one rack-scale fleet run.

    Attributes:
        hosts: number of shared hosts in the rack.
        placement: tenant placement policy, ``"spread"`` (round-robin) or
            ``"pack"`` (consolidate onto half the rack).
        tenants: tenant population size.
        tenant_skew: Zipf exponent of the tenant demand distribution
            (0 = uniform).
        load_profile: ``"flat"``, ``"diurnal"`` or ``"flash"`` (see
            :mod:`repro.fleet.load`).
        system: Table 1 profile every host runs.
        arbiter: arbitration scheme at every host's fabric nodes.
        iommu_enabled: share each host's IOMMU between its devices.
        victim_packets: packets per direction for each host's victim;
            enough to leave two measured TX packets past the streaming
            warm-up (at least 3).
        aggressor_packets: packets per direction for each aggressor.
        rack_load_gbps: nominal aggressor load of the whole rack; host
            ``h`` offers ``rack_load_gbps * demand_share(h) *
            profile_factor(h)`` (capped at the saturating load).
        seed: fleet seed (``None`` uses the library default); per-host
            seeds are derived substreams, never the raw value.
    """

    hosts: int = 8
    placement: str = "spread"
    tenants: int = 16
    tenant_skew: float = 1.2
    load_profile: str = "flat"
    system: str = "NFP6000-HSW"
    arbiter: str = "fcfs"
    iommu_enabled: bool = True
    victim_packets: int = 400
    aggressor_packets: int = 2400
    rack_load_gbps: float = 240.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.hosts <= 256:
            raise ValidationError(
                f"hosts must be within [1, 256], got {self.hosts}"
            )
        object.__setattr__(
            self, "placement", canonical_placement(self.placement)
        )
        if self.tenants < 1:
            raise ValidationError(
                f"tenants must be positive, got {self.tenants}"
            )
        if not 0.0 <= self.tenant_skew < math.inf:
            raise ValidationError(
                f"tenant_skew must be finite and non-negative, "
                f"got {self.tenant_skew}"
            )
        object.__setattr__(
            self, "load_profile", canonical_load_profile(self.load_profile)
        )
        if self.system.lower() not in {
            name.lower() for name in profile_names()
        }:
            raise ValidationError(
                f"unknown system {self.system!r}; known: "
                + ", ".join(profile_names())
            )
        if self.arbiter not in ARBITER_SCHEMES:
            raise ValidationError(
                f"unknown arbiter {self.arbiter!r}; known: "
                + ", ".join(ARBITER_SCHEMES)
            )
        if self.victim_packets <= 0:
            raise ValidationError(
                f"victim_packets must be positive, got {self.victim_packets}"
            )
        # Each host reports its victim's streamed TX latency summary, which
        # needs two measured packets past the streaming warm-up (TX never
        # drops, so every offered packet is delivered).
        victim = _victim(self.victim_packets)
        measured = victim.packets - _streaming_warmup_threshold(
            victim.packets, ring_depth=victim.ring_depth
        )
        if measured < 2:
            raise ValidationError(
                f"victim_packets {self.victim_packets} leaves {measured} "
                "measured TX packet(s) past the streaming warm-up; a "
                "victim's latency summary needs at least 2"
            )
        if self.aggressor_packets <= 0:
            raise ValidationError(
                f"aggressor_packets must be positive, "
                f"got {self.aggressor_packets}"
            )
        if not 0.0 < self.rack_load_gbps < math.inf:
            raise ValidationError(
                f"rack_load_gbps must be finite and positive, "
                f"got {self.rack_load_gbps}"
            )
        if self.seed is not None:
            check_seed(self.seed)

    @property
    def kind(self) -> str:
        """Benchmark kind tag (always ``"FLEET"``)."""
        return FLEET_KIND

    @property
    def run_seed(self) -> int:
        """The effective fleet seed (library default when unset)."""
        return DEFAULT_SEED if self.seed is None else self.seed

    def with_(self, **changes: object) -> "FleetParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def host_names(self) -> tuple[str, ...]:
        """Stable per-host labels (``host0`` .. ``hostN-1``)."""
        return tuple(f"host{index}" for index in range(self.hosts))

    def tenant_placement(self) -> tuple[tuple[int, ...], ...]:
        """Which tenants (popularity ranks) each host carries."""
        return place_tenants(self.tenants, self.hosts, self.placement)

    def host_aggressor_loads(self) -> tuple[float | None, ...]:
        """Per-host aggressor offered load in Gb/s (``None``: no aggressor).

        The rack's nominal load is split by Zipf demand share under the
        placement, then shaped by the load profile; the flash crowd lands
        on the host carrying tenant 0 (the most popular).  Hosts whose
        demand works out to zero get no aggressor device at all.
        """
        weights = zipf_tenant_weights(self.tenants, self.tenant_skew)
        placement = self.tenant_placement()
        shares = host_demand_shares(weights, placement)
        flash_host = next(
            index for index, tenants in enumerate(placement) if 0 in tenants
        )
        factors = load_profile_factors(
            self.load_profile, self.hosts, flash_host=flash_host
        )
        loads: list[float | None] = []
        for share, factor in zip(shares, factors):
            load = self.rack_load_gbps * share * factor
            loads.append(
                None if load <= 0.0 else min(load, SATURATING_LOAD_GBPS)
            )
        return tuple(loads)

    def host_params(self, index: int) -> ContentionParams:
        """The shared-host contention run of one rack host.

        Every device streams its latencies (``retain_samples=False``) so
        the host result carries mergeable sketches instead of per-packet
        arrays; the host seed is the :func:`~repro.fleet.fleet_host_seed`
        substream for this index.
        """
        if not 0 <= index < self.hosts:
            raise ValidationError(
                f"host index must be within [0, {self.hosts}), got {index}"
            )
        devices: list[NicSimParams] = [_victim(self.victim_packets)]
        names = ["victim"]
        load = self.host_aggressor_loads()[index]
        if load is not None:
            devices.append(
                NicSimParams(
                    model="kernel",
                    workload="imix",
                    offered_load_gbps=load,
                    packets=self.aggressor_packets,
                    payload_window=64 * MIB,
                    num_queues=4,
                    rss="zipf",
                    retain_samples=False,
                )
            )
            names.append("aggressor")
        return ContentionParams(
            devices=tuple(devices),
            names=tuple(names),
            system=self.system,
            iommu_enabled=self.iommu_enabled,
            arbiter=self.arbiter,
            seed=fleet_host_seed(self.run_seed, index),
        )

    def all_host_params(self) -> list[ContentionParams]:
        """Every host's contention run, in host order."""
        return [self.host_params(index) for index in range(self.hosts)]

    def label(self) -> str:
        """Compact human-readable description used in logs and reports."""
        parts = [
            FLEET_KIND,
            f"{self.hosts} hosts",
            f"placement={self.placement}",
            f"tenants={self.tenants}(zipf {self.tenant_skew:g})",
            f"profile={self.load_profile}",
            f"host={self.system}",
            f"arbiter={self.arbiter}",
            f"rack-load={self.rack_load_gbps:g}Gb/s",
        ]
        return " ".join(parts)

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation of the parameters."""
        return {
            "kind": FLEET_KIND,
            "hosts": self.hosts,
            "placement": self.placement,
            "tenants": self.tenants,
            "tenant_skew": self.tenant_skew,
            "load_profile": self.load_profile,
            "system": self.system,
            "arbiter": self.arbiter,
            "iommu_enabled": self.iommu_enabled,
            "victim_packets": self.victim_packets,
            "aggressor_packets": self.aggressor_packets,
            "rack_load_gbps": self.rack_load_gbps,
            "seed": self.seed,
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "FleetParams":
        """Rebuild parameters from :meth:`as_dict` output."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FleetHostResult:
    """Streamed summary of one rack host's victim under its local load.

    Attributes:
        name: host label (``host0`` ..).
        seed: the derived per-host seed the run used.
        aggressor_load_gbps: the host's aggressor offered load (``None``
            when the placement left the host aggressor-free).
        victim_latency: the victim's streamed TX latency summary; its
            attached sketch is what the fleet-level reduce merges.
        victim_throughput_gbps: the victim's delivered throughput (RX
            path when present — tail drops are how contention becomes
            loss — else TX).
        victim_drops: the victim's dropped packets on that path.
    """

    name: str
    seed: int
    aggressor_load_gbps: float | None
    victim_latency: LatencySummary
    victim_throughput_gbps: float
    victim_drops: int

    @classmethod
    def from_contention(
        cls,
        name: str,
        seed: int,
        aggressor_load_gbps: float | None,
        result: ContentionResult,
    ) -> "FleetHostResult":
        """Summarise one host's contention run."""
        victim = result.device("victim").result
        if victim.tx.latency is None:
            raise ValidationError(
                f"host {name}: victim run carries no latency summary"
            )
        if victim.tx.latency.sketch is None:
            raise ValidationError(
                f"host {name}: victim run retained samples; fleet hosts "
                "must stream (retain_samples=False)"
            )
        delivery = victim.rx if victim.rx is not None else victim.tx
        return cls(
            name=name,
            seed=seed,
            aggressor_load_gbps=aggressor_load_gbps,
            victim_latency=victim.tx.latency,
            victim_throughput_gbps=delivery.throughput_gbps,
            victim_drops=delivery.drops,
        )

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation."""
        return {
            "name": self.name,
            "seed": self.seed,
            "aggressor_load_gbps": self.aggressor_load_gbps,
            "victim_latency": self.victim_latency.as_dict(),
            "victim_throughput_gbps": self.victim_throughput_gbps,
            "victim_drops": self.victim_drops,
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "FleetHostResult":
        """Rebuild a host summary from :meth:`as_dict` output."""
        load = data.get("aggressor_load_gbps")
        return cls(
            name=str(data["name"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            aggressor_load_gbps=None if load is None else float(load),  # type: ignore[arg-type]
            victim_latency=LatencySummary.from_dict(dict(data["victim_latency"])),  # type: ignore[arg-type]
            victim_throughput_gbps=float(data["victim_throughput_gbps"]),  # type: ignore[arg-type]
            victim_drops=int(data["victim_drops"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one rack-scale fleet run.

    ``fleet_latency`` is the rack-wide victim latency distribution: the
    per-host sketches merged *in host order* (merge order only affects the
    float mean accumulation — quantiles are exact under any order — and
    fixing it keeps serialised results bit-identical across ``jobs``).
    """

    params: FleetParams
    hosts: tuple[FleetHostResult, ...]
    fleet_latency: LatencySummary

    @property
    def kind(self) -> str:
        """Result kind tag (always ``"FLEET"``)."""
        return FLEET_KIND

    @classmethod
    def from_host_runs(
        cls,
        params: FleetParams,
        results: Sequence[ContentionResult],
    ) -> "FleetResult":
        """Reduce the ordered per-host contention runs into a fleet record."""
        if len(results) != params.hosts:
            raise ValidationError(
                f"expected {params.hosts} host results, got {len(results)}"
            )
        loads = params.host_aggressor_loads()
        hosts = tuple(
            FleetHostResult.from_contention(
                name,
                fleet_host_seed(params.run_seed, index),
                loads[index],
                result,
            )
            for index, (name, result) in enumerate(
                zip(params.host_names(), results)
            )
        )
        merged = QuantileSketch()
        for host in hosts:
            assert host.victim_latency.sketch is not None
            merged.merge(host.victim_latency.sketch)
        return cls(
            params=params,
            hosts=hosts,
            fleet_latency=LatencySummary.from_sketch(merged),
        )

    def host(self, name: str) -> FleetHostResult:
        """Look up one host's summary by label."""
        for host in self.hosts:
            if host.name == name:
                return host
        raise ValidationError(
            f"no host named {name!r}; hosts: "
            + ", ".join(host.name for host in self.hosts)
        )

    def slo_violation_fraction(
        self, threshold_ns: float, *, metric: str = "p99"
    ) -> float:
        """Fraction of hosts whose victim tail latency breaks an SLO.

        ``metric`` names a :class:`~repro.sim.nicsim.LatencySummary`
        percentile attribute (``"p90"``, ``"p99"``, ``"p999"`` ...); a host
        violates when that statistic exceeds ``threshold_ns``.
        """
        if threshold_ns <= 0.0:
            raise ValidationError(
                f"threshold_ns must be positive, got {threshold_ns}"
            )
        violations = sum(
            1
            for host in self.hosts
            if getattr(host.victim_latency, metric) > threshold_ns
        )
        return violations / len(self.hosts)

    def violating_hosts(
        self, threshold_ns: float, *, metric: str = "p99"
    ) -> tuple[str, ...]:
        """Names of the hosts breaking the SLO (same rule as the fraction)."""
        return tuple(
            host.name
            for host in self.hosts
            if getattr(host.victim_latency, metric) > threshold_ns
        )

    def as_dict(self) -> dict[str, object]:
        """Serialisable representation (tagged ``"kind": "FLEET"``)."""
        return {
            "kind": FLEET_KIND,
            "params": self.params.as_dict(),
            "hosts": [host.as_dict() for host in self.hosts],
            "fleet_latency": self.fleet_latency.as_dict(),
        }

    @classmethod
    @record_reader
    def from_dict(cls, data: dict[str, object]) -> "FleetResult":
        """Rebuild a fleet record from :meth:`as_dict` output."""
        return cls(
            params=FleetParams.from_dict(dict(data["params"])),  # type: ignore[arg-type]
            hosts=tuple(
                FleetHostResult.from_dict(dict(host))
                for host in data["hosts"]  # type: ignore[union-attr]
            ),
            fleet_latency=LatencySummary.from_dict(
                dict(data["fleet_latency"])  # type: ignore[arg-type]
            ),
        )


def run_fleet_benchmark(
    params: FleetParams,
    *,
    jobs: int | None = None,
    profile_sink: list | None = None,
) -> FleetResult:
    """Run one rack-scale fleet benchmark as described by ``params``.

    Each host is an independent shared-host contention run (its seed a
    pure function of the fleet seed and its index), sharded across
    ``jobs`` worker processes via
    :meth:`~repro.bench.runner.BenchmarkRunner.run_all` — which returns
    results in input order — and reduced host by host.  ``jobs=1`` and
    ``jobs=N`` therefore produce bit-identical fleet records.

    ``profile_sink`` (a caller-owned list) collects each host's
    :class:`~repro.sim.engine.EngineProfile` in host order — the hook the
    ``pcie-bench fleet --engine-profile`` flag uses (distinct from the
    fleet ``--profile`` flag, which selects the *load* profile).  The
    profiles ride the serialised host results across the worker-process
    boundary: the hosts run with ``engine_profile=True``, so each
    :class:`~repro.sim.fabric.ContentionResult` carries its profile.
    """
    # Imported here: runner.py dispatches FleetParams back to this module,
    # so a module-level import would be circular.
    from .runner import BenchmarkRunner

    host_params = params.all_host_params()
    if profile_sink is not None:
        host_params = [
            host.with_(engine_profile=True) for host in host_params
        ]
    results = BenchmarkRunner().run_all(host_params, jobs=jobs)
    for result in results:
        if not isinstance(result, ContentionResult):
            raise ValidationError(
                f"fleet host run produced {type(result).__name__}, "
                "expected ContentionResult"
            )
    if profile_sink is not None:
        for name, result in zip(params.host_names(), results):
            if result.profile is None:  # type: ignore[union-attr]
                raise ValidationError(
                    f"host {name}: profiled fleet run returned no "
                    "engine profile"
                )
            profile_sink.append(result.profile)  # type: ignore[union-attr]
    return FleetResult.from_host_runs(params, results)  # type: ignore[arg-type]
