"""Tests for the contention benchmark surface (repro.bench.contention)."""

from __future__ import annotations

import math

import pytest

from repro.bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.bench.runner import (
    BenchmarkRunner,
    contention_suite_params,
    full_suite_params,
)
from repro.bench.results import load_results_json
from repro.errors import BenchmarkError, ValidationError
from repro.sim.fabric import ContentionResult
from repro.sim.host import HostSystem
from repro.sim.profiles import profile_names
from repro.units import KIB, MIB


def _pair(**overrides) -> ContentionParams:
    victim = NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        offered_load_gbps=5.0,
        packets=200,
        ring_depth=64,
        payload_window=256 * KIB,
    )
    aggressor = NicSimParams(
        model="kernel", workload="imix", packets=1200, payload_window=16 * MIB
    )
    fields = dict(
        devices=(victim, aggressor),
        names=("victim", "aggressor"),
        system="NFP6000-HSW",
        iommu_enabled=True,
        arbiter="rr",
    )
    fields.update(overrides)
    return ContentionParams(**fields)


class TestContentionParams:
    def test_round_trips_through_dict(self):
        params = _pair(arbiter="wrr", weights=(8.0, 1.0), seed=3)
        rebuilt = ContentionParams.from_dict(params.as_dict())
        assert rebuilt == params
        assert rebuilt.as_dict() == params.as_dict()

    def test_kind_and_label(self):
        params = _pair(arbiter="wrr", weights=(8.0, 1.0))
        assert params.kind == "CONTENTION"
        label = params.label()
        assert "CONTENTION" in label
        assert "arbiter=wrr" in label
        assert "weights=8:1" in label
        assert "victim" in label and "aggressor" in label

    def test_device_names_default_to_indices(self):
        params = _pair(names=None)
        assert params.device_names() == ("dev0", "dev1")

    def test_rejects_devices_with_their_own_host(self):
        coupled = NicSimParams(system="NFP6000-HSW", packets=100)
        with pytest.raises(ValidationError):
            ContentionParams(devices=(coupled,))

    @pytest.mark.parametrize(
        "field, value", (("iommu_page_size", 2 * MIB), ("mode", "batch"))
    )
    def test_rejects_device_fields_the_fabric_owns(self, field, value):
        # The fabric's IOMMU pages and engine apply to every device: a
        # device's own setting would be recorded and ignored.
        victim, aggressor = noisy_neighbour_pair()
        with pytest.raises(ValidationError, match=f"ContentionParams.{field}"):
            ContentionParams(
                devices=(victim.with_(**{field: value}), aggressor),
                names=("victim", "aggressor"),
                system="NFP6000-HSW",
                iommu_enabled=True,
                seed=7,
            )

    def test_mixed_cache_states_need_a_partition_or_the_faithful_cache(self):
        # One aggregate statistical residency has one preparation state.
        warm, cold = _pair().devices[0], _pair().devices[0].with_(
            payload_cache_state="cold"
        )
        with pytest.raises(ValidationError, match="preparation state"):
            ContentionParams(devices=(warm, cold))
        for fields in (
            {"ddio_partition": (1.0, 1.0)},
            {"cache_model": "faithful"},
        ):
            params = ContentionParams(
                devices=(warm.with_(packets=50), cold.with_(packets=50)),
                **fields,
            )
            result = run_contention_benchmark(params)
            assert len(result.devices) == 2

    def test_faithful_partition_needs_a_ddio_way_per_device(self):
        # Every Table 1 profile's faithful cache has 2 DDIO ways per set.
        device = NicSimParams(model="dpdk", packets=50)
        with pytest.raises(ValidationError, match="2 DDIO ways"):
            ContentionParams(
                devices=(device,) * 3,
                cache_model="faithful",
                ddio_partition=(1.0, 1.0, 1.0),
            )
        # Two partitioned devices, or three unpartitioned or statistical
        # ones, are fine.
        ContentionParams(
            devices=(device,) * 3, ddio_partition=(1.0, 1.0, 1.0)
        )
        ContentionParams(devices=(device,) * 3, cache_model="faithful")
        result = run_contention_benchmark(
            ContentionParams(
                devices=(device,) * 2,
                cache_model="faithful",
                ddio_partition=(1.0, 1.0),
            )
        )
        assert len(result.devices) == 2

    @pytest.mark.parametrize("system", profile_names())
    def test_partition_rule_agrees_with_the_profiles_faithful_cache(
        self, system
    ):
        # The record refuses exactly the device counts whose DDIO ways the
        # run's line-accurate cache for this profile could not split.
        cache = HostSystem.from_profile(
            system, cache_model="faithful"
        ).root_complex.cache
        device = NicSimParams(model="dpdk", packets=50)

        def partitioned(count: int) -> ContentionParams:
            return ContentionParams(
                devices=(device,) * count,
                system=system,
                cache_model="faithful",
                ddio_partition=(1.0,) * count,
            )

        partitioned(cache.ddio_ways)
        cache.partition_ddio((1.0,) * cache.ddio_ways, lambda line: 0)
        with pytest.raises(ValidationError, match="DDIO ways"):
            partitioned(cache.ddio_ways + 1)
        with pytest.raises(ValidationError, match="DDIO ways"):
            cache.partition_ddio((1.0,) * (cache.ddio_ways + 1), lambda line: 0)

    def test_rejects_mismatched_names_and_weights(self):
        with pytest.raises(ValidationError):
            _pair(names=("only-one",))
        with pytest.raises(ValidationError):
            _pair(names=("twin", "twin"))
        with pytest.raises(ValidationError):
            _pair(arbiter="wrr", weights=(1.0,))
        with pytest.raises(ValidationError):
            _pair(arbiter="wrr", weights=(1.0, -2.0))
        with pytest.raises(ValidationError):
            _pair(arbiter="lottery")
        with pytest.raises(ValidationError):
            ContentionParams(devices=())

    def test_weights_rejected_for_schemes_that_ignore_them(self):
        # fcfs/rr never read weights; advertising them in labels while
        # silently ignoring them would mislead the operator.
        with pytest.raises(ValidationError):
            _pair(arbiter="rr", weights=(8.0, 1.0))
        with pytest.raises(ValidationError):
            _pair(arbiter="fcfs", weights=(8.0, 1.0))

    def test_weights_accepted_by_age_and_sliced(self):
        assert _pair(arbiter="age", weights=(8.0, 1.0)).weights == (8.0, 1.0)
        sliced = _pair(
            arbiter="sliced", weights=(8.0, 1.0), quantum_ns=16.0
        )
        assert sliced.quantum_ns == 16.0
        assert "quantum=16ns" in sliced.label()

    def test_topology_quantum_partition_round_trip(self):
        params = _pair(
            topology="victim=root,aggressor=sw0,sw0=root",
            ddio_partition=(3.0, 1.0),
        )
        rebuilt = ContentionParams.from_dict(params.as_dict())
        assert rebuilt == params
        assert rebuilt.topology == "victim=root,aggressor=sw0,sw0=root"
        assert rebuilt.ddio_partition == (3.0, 1.0)
        label = params.label()
        assert "topology=depth2" in label
        assert "ddio=3:1" in label
        # Flat-era records carry none of the new keys.
        assert "topology" not in _pair().as_dict()
        assert "quantum_ns" not in _pair().as_dict()
        assert "ddio_partition" not in _pair().as_dict()
        assert "cache_model" not in _pair().as_dict()
        faithful = _pair(cache_model="faithful")
        assert ContentionParams.from_dict(faithful.as_dict()) == faithful
        assert "cache=faithful" in faithful.label()

    def test_topology_quantum_partition_validation(self):
        with pytest.raises(ValidationError):
            _pair(topology="victim=root")  # aggressor missing
        with pytest.raises(ValidationError):
            _pair(topology="victim=root,aggressor=nowhere")
        with pytest.raises(ValidationError):
            _pair(quantum_ns=16.0)  # rr ignores quanta
        with pytest.raises(ValidationError):
            _pair(arbiter="sliced", quantum_ns=-1.0)
        with pytest.raises(ValidationError):
            _pair(ddio_partition=(1.0,))
        with pytest.raises(ValidationError):
            _pair(ddio_partition=(1.0, -1.0))
        with pytest.raises(ValidationError):
            _pair(cache_model="magic")

    @pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
    @pytest.mark.parametrize(
        "knob", ("weights", "quantum_ns", "ddio_partition", "control_window_ns")
    )
    def test_rejects_non_finite_knobs(self, knob, bad):
        # NaN and inf pass a "<= 0" check; a NaN control window used to
        # make the controlled run tick forever.
        overrides = {
            "weights": dict(arbiter="wrr", weights=(1.0, bad)),
            "quantum_ns": dict(arbiter="sliced", quantum_ns=bad),
            "ddio_partition": dict(ddio_partition=(1.0, bad)),
            "control_window_ns": dict(
                controller="threshold", control_window_ns=bad
            ),
        }[knob]
        with pytest.raises(ValidationError, match="finite and positive"):
            _pair(**overrides)

    def test_solo_params_couple_to_the_fabric_host(self):
        params = _pair(seed=17)
        solo = params.solo_params(0)
        assert solo.system == params.system
        assert solo.iommu_enabled is params.iommu_enabled
        assert solo.seed == 17  # inherits the run seed
        assert solo.workload == params.devices[0].workload
        with pytest.raises(ValidationError):
            params.solo_params(9)

    def test_solo_params_equal_one_device_contention_run(self):
        params = _pair(seed=5)
        solo = run_nicsim_benchmark(params.solo_params(0))
        one_device = run_contention_benchmark(
            params.with_(
                devices=(params.devices[0],), names=("victim",), weights=None
            )
        )
        assert one_device.devices[0].result == solo

    def test_solo_equivalence_holds_under_a_device_seed_override(self):
        # A device seed overrides the run seed for a plain NICSIM run's
        # host too, so a one-device contention run resolves its host seed
        # the same way — the degenerate contract must survive seeding.
        params = _pair(seed=5)
        seeded = params.devices[0].with_(seed=23)
        solo = run_nicsim_benchmark(
            params.with_(devices=(seeded, params.devices[1])).solo_params(0)
        )
        one_device = run_contention_benchmark(
            params.with_(devices=(seeded,), names=("victim",), weights=None)
        )
        assert one_device.devices[0].result == solo


class TestRunnerDispatch:
    def test_runner_executes_contention_params(self):
        result = BenchmarkRunner().run(_pair(seed=2))
        assert isinstance(result, ContentionResult)
        assert {record.name for record in result.devices} == {
            "victim",
            "aggressor",
        }

    def test_parallel_results_identical_to_serial_with_contention(self):
        def mixed():
            return [
                NicSimParams(model="dpdk", packets=200, packet_size=512, seed=5),
                _pair(seed=9),
                _pair(arbiter="wrr", weights=(4.0, 1.0), seed=9),
            ]

        serial = BenchmarkRunner().run_all(mixed())
        parallel = BenchmarkRunner().run_all(mixed(), jobs=2)
        assert len(parallel) == len(serial)
        for serial_result, parallel_result in zip(serial, parallel):
            assert type(parallel_result) is type(serial_result)
            assert parallel_result == serial_result

    def test_save_and_load_round_trip(self, tmp_path):
        runner = BenchmarkRunner()
        results = runner.run_all([_pair(seed=2)])
        path = tmp_path / "contention.json"
        runner.save(results, path)
        restored = load_results_json(path)
        assert len(restored) == 1
        assert isinstance(restored[0], ContentionResult)
        assert restored[0] == results[0]

    def test_csv_export_rejects_contention_results(self, tmp_path):
        runner = BenchmarkRunner()
        results = runner.run_all([_pair(seed=2)])
        with pytest.raises(BenchmarkError):
            runner.save(results, tmp_path / "contention.csv", fmt="csv")


class TestSuiteSurface:
    def test_contention_suite_covers_every_scheme_and_a_quad(self):
        scenarios = contention_suite_params(packets=100)
        pairs = [
            params
            for params in scenarios
            if params.device_names() == ("victim", "aggressor")
        ]
        assert [params.arbiter for params in pairs] == ["fcfs", "rr", "wrr"]
        assert pairs[-1].weights == (8.0, 1.0)
        quads = [params for params in scenarios if len(params.devices) == 4]
        assert len(quads) == 2
        assert all(
            params.device_names()
            == ("victim", "aggressor", "bulk2", "streamer")
            for params in quads
        )
        # One weighted flat fabric, one switch tree with the victim on
        # its own root port.
        assert quads[0].arbiter == "wrr"
        assert quads[0].weights == (8.0, 1.0, 2.0, 2.0)
        assert quads[1].topology is not None
        assert "victim=root" in quads[1].topology

    def test_full_suite_count_includes_contention_when_asked(self):
        base = full_suite_params()
        extended = full_suite_params(include_contention=True)
        assert len(extended) == len(base) + len(contention_suite_params())
        assert not any(
            isinstance(params, ContentionParams) for params in base
        )
        assert (
            sum(
                1
                for params in extended
                if isinstance(params, ContentionParams)
            )
            == 5
        )
