"""Unit tests for the control policies, on hand-built observations.

Policies consume immutable :class:`DeviceWindow` records and talk back
only through the actuator interface, so everything here runs without a
simulator: windows are synthesised, the actuators are a recorder.
"""

import pytest

from repro.control import (
    CONTROL_POLICIES,
    AimdController,
    StaticController,
    ThresholdController,
    build_controller,
)
from repro.control.observations import DeviceWindow
from repro.control.policies import BULK_FABRIC_SHARE, MIN_WINDOW_COUNT
from repro.errors import ValidationError

WINDOW_NS = 50_000.0


def make_window(
    *,
    device="victim",
    index=0,
    window_index=0,
    values=(1000.0,) * 20,
    hit_rate=None,
    wait_fraction=0.0,
    fabric_share=0.0,
    bucket_counts=None,
    rss_table=None,
    num_queues=None,
):
    """A DeviceWindow whose derived signals hit the requested values."""
    count = len(values)
    latency_sum_ns = sum(values, 0.0)
    mean = latency_sum_ns / count if count else 0.0
    if num_queues is None:
        num_queues = 1 + max(rss_table) if rss_table else 1
    return DeviceWindow(
        device=device,
        index=index,
        window_index=window_index,
        num_queues=num_queues,
        count=count,
        latency_sum_ns=latency_sum_ns,
        descriptor_hit_rate=hit_rate,
        wait_ns_delta=wait_fraction * mean * count,
        busy_ns_delta=fabric_share * WINDOW_NS,
        window_ns=WINDOW_NS,
        bucket_counts=bucket_counts,
        rss_table=rss_table,
    )


class RecordingActuators:
    """Actuator stand-in: applies everything, records every call."""

    def __init__(self, *, weights=None, shares=None):
        self._weights = weights
        self._shares = shares
        self.calls = []

    def weights(self):
        return self._weights

    def set_weights(self, weights, *, device, reason):
        self.calls.append(("weights", tuple(weights), device, reason))
        self._weights = tuple(weights)
        return True

    def set_rss_table(self, device_index, table, *, reason):
        self.calls.append(("rss", device_index, tuple(table), reason))
        return True

    def ddio_shares(self):
        return self._shares

    def set_ddio_shares(self, shares, *, device, reason):
        self.calls.append(("ddio", tuple(shares), device, reason))
        self._shares = tuple(shares)
        return True

    def of_kind(self, kind):
        return [call for call in self.calls if call[0] == kind]


class TestSignals:
    def test_fabric_share_and_wait_fraction_land_where_requested(self):
        window = make_window(wait_fraction=0.4, fabric_share=1.2)
        assert window.fabric_share == pytest.approx(1.2)
        assert window.wait_fraction == pytest.approx(0.4)

    def test_empty_window_signals_are_defined(self):
        window = make_window(values=())
        assert window.count == 0
        assert window.wait_fraction == 0.0


class TestStaticController:
    def test_never_actuates(self):
        controller = StaticController()
        actuators = RecordingActuators(weights=(1.0, 1.0))
        for tick in range(5):
            controller.tick(
                tick * WINDOW_NS,
                [make_window(wait_fraction=0.9, window_index=tick)],
                actuators,
            )
        assert actuators.calls == []


class TestThresholdController:
    def test_boosts_after_patience_then_keeps_escalating(self):
        controller = ThresholdController(patience=2)
        actuators = RecordingActuators(weights=(1.0, 16.0))
        for tick in range(3):
            controller.tick(
                tick * WINDOW_NS,
                [make_window(wait_fraction=0.9, window_index=tick)],
                actuators,
            )
        boosts = actuators.of_kind("weights")
        # Nothing for the first window (patience), then one boost per
        # violating window — no streak reset after acting.
        assert [call[1] for call in boosts] == [(2.0, 16.0), (4.0, 16.0)]
        assert "wait-dominated" in boosts[0][3]

    def test_bulk_device_is_never_boosted(self):
        controller = ThresholdController(patience=1)
        actuators = RecordingActuators(weights=(1.0, 1.0))
        bulk = make_window(
            device="aggressor", index=1,
            wait_fraction=0.9, fabric_share=BULK_FABRIC_SHARE + 0.1,
        )
        for tick in range(4):
            controller.tick(tick * WINDOW_NS, [bulk], actuators)
        assert actuators.calls == []

    def test_low_count_window_freezes_the_streak(self):
        controller = ThresholdController(patience=2)
        actuators = RecordingActuators(weights=(1.0, 1.0))
        thin = make_window(
            values=(1000.0,) * (MIN_WINDOW_COUNT - 1), wait_fraction=0.9
        )
        for tick in range(4):
            controller.tick(tick * WINDOW_NS, [thin], actuators)
        assert actuators.calls == []

    def test_dead_band_holds_the_boost(self):
        controller = ThresholdController(patience=1)
        actuators = RecordingActuators(weights=(1.0, 1.0))
        controller.tick(0.0, [make_window(wait_fraction=0.9)], actuators)
        assert len(actuators.of_kind("weights")) == 1
        # In the dead band (between clear 0.10 and violate 0.35) the
        # violating streak holds, so escalation continues; comfort only
        # begins below the clear threshold.
        controller.tick(
            WINDOW_NS, [make_window(wait_fraction=0.2, window_index=1)],
            actuators,
        )
        assert len(actuators.of_kind("weights")) == 2

    def test_decays_back_to_base_when_comfortable(self):
        controller = ThresholdController(patience=1)
        actuators = RecordingActuators(weights=(1.0, 1.0))
        controller.tick(0.0, [make_window(wait_fraction=0.9)], actuators)
        assert actuators._weights == (2.0, 1.0)
        for tick in range(1, 4):
            controller.tick(
                tick * WINDOW_NS,
                [make_window(wait_fraction=0.01, window_index=tick)],
                actuators,
            )
        # Decayed back to the base weight and stopped (no undershoot).
        assert actuators._weights == (1.0, 1.0)
        decays = [
            call for call in actuators.of_kind("weights")
            if "decaying" in call[3]
        ]
        assert len(decays) == 1

    def test_weight_cap_is_respected(self):
        controller = ThresholdController(patience=1, max_weight=4.0)
        actuators = RecordingActuators(weights=(1.0, 1.0))
        for tick in range(6):
            controller.tick(
                tick * WINDOW_NS,
                [make_window(wait_fraction=0.9, window_index=tick)],
                actuators,
            )
        assert actuators._weights == (4.0, 1.0)

    def test_hot_queue_pathology_triggers_full_respread(self):
        controller = ThresholdController(patience=2)
        actuators = RecordingActuators()
        table = (0, 0, 0, 1)
        counts = (90, 5, 5, 10)  # bucket 0 is the elephant, queue 0 hot
        windows = [
            make_window(
                window_index=tick,
                values=(1000.0,) * 110,
                bucket_counts=counts,
                rss_table=table,
            )
            for tick in range(2)
        ]
        controller.tick(0.0, [windows[0]], actuators)
        assert actuators.of_kind("rss") == []  # patience not yet met
        controller.tick(WINDOW_NS, [windows[1]], actuators)
        moves = actuators.of_kind("rss")
        assert len(moves) == 1
        _, device_index, new_table, reason = moves[0]
        assert device_index == 0
        # The elephant keeps queue 0; both mice buckets moved off it.
        assert new_table[0] == 0
        assert new_table[1] != 0 and new_table[2] != 0
        assert "isolating bucket 0" in reason

    def test_isolated_elephant_is_left_alone(self):
        controller = ThresholdController(patience=1)
        actuators = RecordingActuators()
        window = make_window(
            values=(1000.0,) * 100,
            bucket_counts=(90, 5, 5),
            rss_table=(0, 1, 1),  # elephant already alone on queue 0
        )
        for tick in range(3):
            controller.tick(tick * WINDOW_NS, [window], actuators)
        assert actuators.of_kind("rss") == []

    def test_ddio_boost_requires_low_hit_rate_and_violation(self):
        controller = ThresholdController(patience=1)
        actuators = RecordingActuators(weights=(1.0, 1.0), shares=(1.0, 1.0))
        controller.tick(
            0.0, [make_window(wait_fraction=0.9, hit_rate=0.3)], actuators
        )
        boosts = actuators.of_kind("ddio")
        assert len(boosts) == 1
        assert boosts[0][1][0] > 1.0
        # Healthy hit rate: no ddio action even while violating.
        calm = RecordingActuators(weights=(1.0, 1.0), shares=(1.0, 1.0))
        fresh = ThresholdController(patience=1)
        fresh.tick(
            0.0, [make_window(wait_fraction=0.9, hit_rate=0.95)], calm
        )
        assert calm.of_kind("ddio") == []

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            ThresholdController(patience=0)
        with pytest.raises(ValidationError):
            ThresholdController(boost=1.0)


class TestAimdController:
    def test_additive_increase_multiplicative_decrease(self):
        controller = AimdController()
        actuators = RecordingActuators(weights=(1.0, 1.0))
        for tick in range(3):
            controller.tick(
                tick * WINDOW_NS,
                [make_window(wait_fraction=0.9, window_index=tick)],
                actuators,
            )
        assert actuators._weights == (4.0, 1.0)  # +1 per violating window
        controller.tick(
            3 * WINDOW_NS, [make_window(wait_fraction=0.01, window_index=3)],
            actuators,
        )
        assert actuators._weights == (2.0, 1.0)  # *0.5, floored at base later
        reasons = [call[3] for call in actuators.of_kind("weights")]
        assert any("additive increase" in reason for reason in reasons)
        assert any("multiplicative decrease" in reason for reason in reasons)

    def test_moves_one_bucket_per_window(self):
        controller = AimdController()
        actuators = RecordingActuators()
        window = make_window(
            values=(1000.0,) * 110,
            bucket_counts=(90, 8, 5, 7),
            rss_table=(0, 0, 0, 1),
        )
        controller.tick(0.0, [window], actuators)
        moves = actuators.of_kind("rss")
        assert len(moves) == 1
        # Only the heaviest movable bucket (1) moved; bucket 2 stayed.
        assert moves[0][2] == (0, 1, 0, 1)

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            AimdController(increase=0.0)
        with pytest.raises(ValidationError):
            AimdController(decrease=1.0)


class TestBuildController:
    def test_registry_round_trip(self):
        assert set(CONTROL_POLICIES) == {"static", "threshold", "aimd"}
        for name in CONTROL_POLICIES:
            assert build_controller(name).name == name
        assert build_controller(" Threshold ").name == "threshold"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            build_controller("pid")
