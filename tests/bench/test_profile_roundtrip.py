"""Engine-profile serialisation: round-trips and result attachment."""

from __future__ import annotations

from dataclasses import replace

from repro.bench.contention import (
    ContentionParams,
    noisy_neighbour_pair,
    run_contention_benchmark,
)
from repro.bench.nicsim import NicSimParams, run_nicsim_benchmark
from repro.sim.engine import EngineProfile
from repro.sim.fabric import ContentionResult
from repro.sim.nicsim import NicSimResult


def _small_nicsim() -> NicSimParams:
    return NicSimParams(
        model="dpdk",
        workload="fixed",
        packet_size=512,
        packets=60,
        seed=3,
    )


def _small_contention(**overrides) -> ContentionParams:
    victim, aggressor = noisy_neighbour_pair(
        victim_packets=60, aggressor_packets=120
    )
    return ContentionParams(
        devices=(victim, aggressor),
        names=("victim", "aggressor"),
        seed=5,
        **overrides,
    )


class TestEngineProfileRoundTrip:
    def test_as_dict_from_dict_identity(self) -> None:
        profile = EngineProfile(
            label="test run", build_s=0.01, events_s=0.2, stats_s=0.005,
            events=1234,
        )
        assert EngineProfile.from_dict(profile.as_dict()) == profile

    def test_derived_keys_are_recomputed(self) -> None:
        profile = EngineProfile(
            label="x", build_s=1.0, events_s=2.0, stats_s=3.0, events=10
        )
        record = profile.as_dict()
        assert record["total_s"] == 6.0
        assert record["events_per_sec"] == 5.0
        rebuilt = EngineProfile.from_dict(record)
        assert rebuilt.total_s == 6.0
        assert rebuilt.events_per_sec == 5.0


class TestFallbackReason:
    """A run that asked for ``batch`` and ran ``exact`` says why."""

    def test_reason_round_trips_and_prints(self) -> None:
        profile = EngineProfile(
            label="x", build_s=1.0, events_s=2.0, stats_s=3.0, events=10,
            fallback_reason="host coupling is an interaction point",
        )
        record = profile.as_dict()
        assert record["fallback_reason"] == profile.fallback_reason
        assert EngineProfile.from_dict(record) == profile
        assert "batch fell back: host coupling" in profile.format()

    def test_records_without_a_fallback_keep_their_shape(self) -> None:
        profile = EngineProfile(
            label="x", build_s=1.0, events_s=2.0, stats_s=3.0, events=10
        )
        assert "fallback_reason" not in profile.as_dict()
        assert "fell back" not in profile.format()

    def test_host_coupled_batch_nicsim_names_the_host_coupling(self) -> None:
        sink: list = []
        params = replace(_small_nicsim(), system="NFP6000-HSW", mode="batch")
        result = run_nicsim_benchmark(params, profile_sink=sink)
        assert result.profile.mode == "exact"
        assert "host coupling" in result.profile.fallback_reason
        assert NicSimResult.from_dict(result.as_dict()).profile == result.profile

    def test_batch_contend_records_its_fallback(self) -> None:
        result = run_contention_benchmark(
            _small_contention(engine_profile=True, mode="batch")
        )
        assert result.profile.mode == "exact"
        assert result.profile.fallback_reason
        exact = run_contention_benchmark(_small_contention(engine_profile=True))
        assert exact.profile.fallback_reason is None

    def test_batch_run_the_solver_finishes_carries_none(self) -> None:
        sink: list = []
        result = run_nicsim_benchmark(
            replace(_small_nicsim(), mode="batch"), profile_sink=sink
        )
        assert result.profile.mode == "batch"
        assert result.profile.fallback_reason is None
        assert "fallback_reason" not in result.profile.as_dict()


class TestProfileAttachment:
    def test_nicsim_attaches_profile_when_profiled(self) -> None:
        sink: list = []
        result = run_nicsim_benchmark(_small_nicsim(), profile_sink=sink)
        assert len(sink) == 1
        assert result.profile is sink[0]
        rebuilt = NicSimResult.from_dict(result.as_dict())
        assert rebuilt.profile == result.profile

    def test_nicsim_omits_profile_by_default(self) -> None:
        result = run_nicsim_benchmark(_small_nicsim())
        assert result.profile is None
        assert "profile" not in result.as_dict()

    def test_contend_attaches_profile_via_params_flag(self) -> None:
        result = run_contention_benchmark(
            _small_contention(engine_profile=True)
        )
        assert result.profile is not None
        rebuilt = ContentionResult.from_dict(result.as_dict())
        assert rebuilt.profile == result.profile

    def test_contend_omits_profile_by_default(self) -> None:
        result = run_contention_benchmark(_small_contention())
        assert result.profile is None
        assert "profile" not in result.as_dict()

    def test_profile_flag_does_not_perturb_results(self) -> None:
        import json

        plain = run_contention_benchmark(_small_contention()).as_dict()
        profiled = run_contention_benchmark(
            _small_contention(engine_profile=True)
        ).as_dict()
        # engine_profile attaches the (wall-clock, run-varying) profile
        # but changes nothing about the simulation itself.
        profiled.pop("profile")
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            profiled, sort_keys=True
        )


class TestContentionParamsRoundTrip:
    def test_engine_profile_field_round_trips(self) -> None:
        params = _small_contention(engine_profile=True)
        record = params.as_dict()
        assert record["engine_profile"] is True
        assert ContentionParams.from_dict(record) == params

    def test_engine_profile_omitted_when_off(self) -> None:
        params = _small_contention()
        record = params.as_dict()
        assert "engine_profile" not in record
        assert ContentionParams.from_dict(record) == params
