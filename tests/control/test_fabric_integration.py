"""End-to-end tests: the control plane threaded through the fabric.

Small (sub-second) controlled contention runs pinning the wiring
contracts: parameter validation and serialisation, the action log riding
on the result, live weight actuation actually changing the victim's
outcome, and the static default staying free of controller keys (the
record back-compat the goldens rely on).
"""

from __future__ import annotations

import pytest

from repro.bench.contention import ContentionParams, run_contention_benchmark
from repro.bench.nicsim import NicSimParams
from repro.control import MIN_CONTROL_WINDOW_NS
from repro.errors import ValidationError
from repro.sim.fabric import ContentionResult, FabricSimulator
from repro.units import KIB, MIB
from repro.workloads import SingleHotFlow, build_workload


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
        arbiter="wrr",
        weights=(1.0, 16.0),
    )
    fields.update(overrides)
    return ContentionParams(**fields)


class TestControllerParams:
    def test_unknown_controller_rejected(self):
        with pytest.raises(ValidationError):
            _pair(controller="pid")

    def test_window_requires_a_live_controller(self):
        with pytest.raises(ValidationError):
            _pair(control_window_ns=50_000.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValidationError):
            _pair(controller="threshold", control_window_ns=0.0)
        with pytest.raises(ValidationError):
            _pair(controller="threshold", control_window_ns=-1.0)

    def test_window_must_reach_the_floor(self):
        # A window under 1 us holds too few packets for a policy to act on.
        with pytest.raises(ValidationError, match="at least 1000 ns, got 999"):
            _pair(controller="threshold", control_window_ns=999.0)
        params = _pair(controller="aimd", control_window_ns=MIN_CONTROL_WINDOW_NS)
        assert params.control_window_ns == 1_000.0

    def test_label_and_round_trip_carry_controller_fields(self):
        params = _pair(controller="threshold", control_window_ns=20_000.0)
        assert "controller=threshold" in params.label()
        assert "window=20000ns" in params.label()
        rebuilt = ContentionParams.from_dict(params.as_dict())
        assert rebuilt.controller == "threshold"
        assert rebuilt.control_window_ns == 20_000.0

    def test_static_params_emit_no_controller_keys(self):
        record = _pair().as_dict()
        assert "controller" not in record
        assert "control_window_ns" not in record
        rebuilt = ContentionParams.from_dict(record)
        assert rebuilt.controller == "static"
        assert rebuilt.control_window_ns is None


class TestControlledRuns:
    @pytest.fixture(scope="class")
    def threshold_run(self) -> ContentionResult:
        return run_contention_benchmark(
            _pair(controller="threshold", control_window_ns=20_000.0)
        )

    def test_mistuned_weights_draw_boost_actions(self, threshold_run):
        actions = threshold_run.control_actions
        assert len(actions) > 0
        boosts = [a for a in actions if a.actuator == "weights"]
        assert boosts, "expected the victim's weight to be boosted"
        first = boosts[0]
        assert first.device == "victim"
        assert first.after[0] > first.before[0]
        assert first.before == (1.0, 16.0)

    def test_result_round_trips_with_the_action_log(self, threshold_run):
        record = threshold_run.as_dict()
        assert record["controller"] == "threshold"
        assert record["control_window_ns"] == 20_000.0
        assert len(record["control_actions"]) == len(
            threshold_run.control_actions
        )
        rebuilt = ContentionResult.from_dict(record)
        assert rebuilt == threshold_run

    def test_threshold_beats_the_mistuned_static_victim(self, threshold_run):
        static = run_contention_benchmark(_pair())
        static_p99 = static.device("victim").result.tx.latency.p99
        controlled_p99 = (
            threshold_run.device("victim").result.tx.latency.p99
        )
        assert controlled_p99 < static_p99

    def test_static_result_emits_no_controller_keys(self):
        record = run_contention_benchmark(_pair()).as_dict()
        assert "controller" not in record
        assert "control_actions" not in record

    def test_aimd_also_runs_and_logs(self):
        result = run_contention_benchmark(
            _pair(controller="aimd", control_window_ns=20_000.0)
        )
        assert result.controller == "aimd"
        assert len(result.control_actions) > 0

    def test_default_window_applies_when_unset(self):
        params = _pair(controller="threshold")
        assert params.control_window_ns is None
        result = run_contention_benchmark(params)
        assert result.control_window_ns == 50_000.0


class TestHotFlowSteering:
    def test_controller_rewrites_the_indirection_table_live(self):
        workload = build_workload(
            "fixed", size=512, load_gbps=42.0
        ).with_(flows=SingleHotFlow(flows=64, hot_fraction=0.75))
        device = NicSimParams(
            model="dpdk", packets=1500, ring_depth=32, num_queues=2
        )
        params = ContentionParams(
            devices=(device,),
            controller="threshold",
            control_window_ns=20_000.0,
        )
        result = FabricSimulator(params, workloads=(workload,)).run()
        rss_actions = [
            a for a in result.control_actions if a.actuator == "rss"
        ]
        assert rss_actions, "expected the hot flow to trigger a re-steer"
        action = rss_actions[0]
        assert len(action.after) == len(action.before)
        assert action.after != action.before
        static = FabricSimulator(
            ContentionParams(devices=(device,)), workloads=(workload,)
        ).run()
        controlled_p99 = result.devices[0].result.tx.latency.p99
        static_p99 = static.devices[0].result.tx.latency.p99
        assert controlled_p99 < static_p99
