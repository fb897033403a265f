"""Tests for the rack-scale fleet surface (repro.bench.fleet, repro.fleet)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.bench.fleet import FleetParams, FleetResult, run_fleet_benchmark
from repro.bench.nicsim import NicSimParams
from repro.errors import ValidationError
from repro.fleet import (
    DIURNAL_TROUGH,
    FLASH_FACTOR,
    LOAD_PROFILES,
    PLACEMENT_POLICIES,
    canonical_load_profile,
    canonical_placement,
    fleet_host_seed,
    host_demand_shares,
    load_profile_factors,
    place_tenants,
    zipf_tenant_weights,
)
from repro.workloads import SATURATING_LOAD_GBPS

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "fleet_seeded.json"


class TestTenantPopulation:
    def test_zipf_weights_normalised_and_monotone(self):
        weights = zipf_tenant_weights(16, 1.2)
        assert len(weights) == 16
        assert sum(weights) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_zero_skew_is_uniform(self):
        weights = zipf_tenant_weights(5, 0.0)
        assert all(w == pytest.approx(0.2) for w in weights)

    def test_rejects_bad_population(self):
        with pytest.raises(ValidationError):
            zipf_tenant_weights(0)
        with pytest.raises(ValidationError):
            zipf_tenant_weights(4, -0.5)

    def test_spread_deals_round_robin(self):
        placement = place_tenants(6, 3, "spread")
        assert placement == ((0, 3), (1, 4), (2, 5))

    def test_pack_fills_half_the_rack(self):
        placement = place_tenants(6, 4, "pack")
        # 4 hosts -> 2 packed hosts, blocks of 3; the tail runs clean.
        assert placement == ((0, 1, 2), (3, 4, 5), (), ())

    def test_pack_on_one_host_takes_everything(self):
        assert place_tenants(3, 1, "pack") == ((0, 1, 2),)

    def test_canonical_placement_normalises_case(self):
        assert canonical_placement("  Pack ") == "pack"
        with pytest.raises(ValidationError):
            canonical_placement("optimal")
        assert set(PLACEMENT_POLICIES) == {"spread", "pack"}

    def test_demand_shares_sum_to_one(self):
        weights = zipf_tenant_weights(8)
        for policy in PLACEMENT_POLICIES:
            shares = host_demand_shares(weights, place_tenants(8, 4, policy))
            assert sum(shares) == pytest.approx(1.0)
        # Pack concentrates: its loaded hosts beat every spread host.
        spread = host_demand_shares(weights, place_tenants(8, 4, "spread"))
        pack = host_demand_shares(weights, place_tenants(8, 4, "pack"))
        assert pack[2] == pack[3] == 0.0
        assert max(pack) > max(spread)

    def test_demand_shares_reject_out_of_range_tenants(self):
        with pytest.raises(ValidationError):
            host_demand_shares((0.5, 0.5), ((0, 7),))


class TestLoadProfiles:
    def test_flat_is_all_ones(self):
        assert load_profile_factors("flat", 4) == (1.0, 1.0, 1.0, 1.0)

    def test_diurnal_peaks_at_host_zero_and_bottoms_at_the_trough(self):
        factors = load_profile_factors("diurnal", 8)
        assert factors[0] == pytest.approx(1.0)
        assert factors[4] == pytest.approx(DIURNAL_TROUGH)
        assert all(DIURNAL_TROUGH <= f <= 1.0 for f in factors)

    def test_flash_spikes_only_the_flash_host(self):
        factors = load_profile_factors("flash", 4, flash_host=2)
        assert factors == (1.0, 1.0, FLASH_FACTOR, 1.0)
        with pytest.raises(ValidationError):
            load_profile_factors("flash", 4, flash_host=4)

    def test_canonical_profile_normalises_case(self):
        assert canonical_load_profile(" Diurnal ") == "diurnal"
        with pytest.raises(ValidationError):
            canonical_load_profile("weekend")
        assert set(LOAD_PROFILES) == {"flat", "diurnal", "flash"}


class TestHostSeeding:
    def test_seed_is_a_pure_function_of_the_index(self):
        seeds = [fleet_host_seed(7, index) for index in range(8)]
        assert seeds == [fleet_host_seed(7, index) for index in range(8)]
        assert len(set(seeds)) == 8

    def test_different_fleet_seeds_give_different_substreams(self):
        assert fleet_host_seed(7, 0) != fleet_host_seed(8, 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            fleet_host_seed(7, -1)
        with pytest.raises(ValidationError):
            fleet_host_seed(7.5, 0)  # type: ignore[arg-type]


class TestFleetParams:
    def test_round_trips_through_dict(self):
        params = FleetParams(
            hosts=3, placement="pack", tenants=6, load_profile="flash", seed=7
        )
        rebuilt = FleetParams.from_dict(params.as_dict())
        assert rebuilt == params
        assert rebuilt.as_dict() == params.as_dict()
        assert params.as_dict()["kind"] == "FLEET"

    def test_kind_label_and_canonicalisation(self):
        params = FleetParams(hosts=4, placement=" SPREAD ", load_profile="Flat")
        assert params.kind == "FLEET"
        assert params.placement == "spread"
        assert params.load_profile == "flat"
        label = params.label()
        assert "FLEET" in label and "4 hosts" in label
        assert "placement=spread" in label and "profile=flat" in label

    def test_with_replaces_fields(self):
        params = FleetParams(hosts=4, seed=7)
        packed = params.with_(placement="pack")
        assert packed.placement == "pack"
        assert packed.hosts == 4 and packed.seed == 7

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            FleetParams(hosts=0)
        with pytest.raises(ValidationError):
            FleetParams(hosts=257)
        with pytest.raises(ValidationError):
            FleetParams(placement="optimal")
        with pytest.raises(ValidationError):
            FleetParams(load_profile="weekend")
        with pytest.raises(ValidationError):
            FleetParams(system="i386")
        with pytest.raises(ValidationError):
            FleetParams(arbiter="lottery")
        with pytest.raises(ValidationError):
            FleetParams(tenant_skew=-1.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
    def test_non_finite_load_and_skew_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite and positive"):
            FleetParams(rack_load_gbps=bad)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            FleetParams(tenant_skew=bad)
        with pytest.raises(ValidationError):
            FleetParams(victim_packets=0)
        with pytest.raises(ValidationError):
            FleetParams(aggressor_packets=-5)
        with pytest.raises(ValidationError):
            FleetParams(rack_load_gbps=0.0)

    def test_host_aggressor_loads_follow_the_placement(self):
        params = FleetParams(hosts=4, tenants=8, placement="pack", seed=7)
        loads = params.host_aggressor_loads()
        assert len(loads) == 4
        # Pack leaves the tail of the rack aggressor-free.
        assert loads[2] is None and loads[3] is None
        assert all(
            load is None or 0.0 < load <= SATURATING_LOAD_GBPS
            for load in loads
        )
        spread_loads = params.with_(placement="spread").host_aggressor_loads()
        assert all(load is not None for load in spread_loads)

    def test_flash_profile_lands_on_the_host_carrying_tenant_zero(self):
        params = FleetParams(
            hosts=4, tenants=8, load_profile="flash", rack_load_gbps=40.0
        )
        flat = params.with_(load_profile="flat").host_aggressor_loads()
        flash = params.host_aggressor_loads()
        # Tenant 0 spreads onto host 0; only that host's load is scaled.
        assert flash[0] == pytest.approx(min(flat[0] * FLASH_FACTOR,
                                             SATURATING_LOAD_GBPS))
        assert flash[1:] == flat[1:]

    def test_host_params_stream_and_use_derived_seeds(self):
        params = FleetParams(hosts=3, tenants=6, placement="pack", seed=7)
        all_params = params.all_host_params()
        assert len(all_params) == 3
        loads = params.host_aggressor_loads()
        for index, host in enumerate(all_params):
            assert host.seed == fleet_host_seed(7, index)
            assert host.names[0] == "victim"
            assert all(
                device.retain_samples is False for device in host.devices
            )
            if loads[index] is None:
                assert host.names == ("victim",)
            else:
                assert host.names == ("victim", "aggressor")
                aggressor = host.devices[1]
                assert isinstance(aggressor, NicSimParams)
                assert aggressor.offered_load_gbps == pytest.approx(
                    loads[index]
                )
        with pytest.raises(ValidationError):
            params.host_params(3)

    def test_host_names_are_stable(self):
        assert FleetParams(hosts=3).host_names() == ("host0", "host1", "host2")


class TestFleetResultMethods:
    """Exercise the result API on the checked-in golden record (no sim)."""

    @pytest.fixture(scope="class")
    def golden_result(self) -> FleetResult:
        golden = json.loads(GOLDEN_PATH.read_text())
        return FleetResult.from_dict(golden["result"])

    def test_host_lookup(self, golden_result):
        assert golden_result.host("host1").name == "host1"
        with pytest.raises(ValidationError):
            golden_result.host("host9")

    def test_slo_violation_fraction_moves_with_the_threshold(
        self, golden_result
    ):
        tails = sorted(
            host.victim_latency.p99 for host in golden_result.hosts
        )
        below_all = golden_result.slo_violation_fraction(tails[-1] + 1.0)
        above_all = golden_result.slo_violation_fraction(tails[0] / 2.0)
        assert below_all == 0.0
        assert above_all == 1.0
        middle = (tails[0] + tails[-1]) / 2.0
        fraction = golden_result.slo_violation_fraction(middle)
        assert 0.0 < fraction < 1.0
        names = golden_result.violating_hosts(middle)
        assert len(names) == round(fraction * len(golden_result.hosts))
        with pytest.raises(ValidationError):
            golden_result.slo_violation_fraction(0.0)

    def test_fleet_latency_count_spans_every_host(self, golden_result):
        assert golden_result.fleet_latency.count == sum(
            host.victim_latency.count for host in golden_result.hosts
        )
        assert golden_result.kind == "FLEET"

    def test_aggressor_free_hosts_record_no_load(self, golden_result):
        # The golden record is a packed rack: host0 is loaded, the tail clean.
        assert golden_result.host("host0").aggressor_load_gbps is not None
        assert golden_result.host("host2").aggressor_load_gbps is None


class TestSingleHostFleet:
    def test_one_host_rack_runs_and_reduces(self):
        params = FleetParams(
            hosts=1,
            tenants=2,
            victim_packets=100,
            aggressor_packets=200,
            rack_load_gbps=20.0,
            seed=3,
        )
        result = run_fleet_benchmark(params)
        assert len(result.hosts) == 1
        assert result.fleet_latency.count == result.hosts[0].victim_latency.count
        assert result.fleet_latency.sketch is not None
