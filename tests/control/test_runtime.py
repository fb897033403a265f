"""Unit tests for the control runtime: steering, windows, actuators.

The runtime is exercised against the real :class:`EventLoop` but with
toy queue/coupling stand-ins, pinning the wiring contracts the fabric
simulator relies on: observers feed per-queue windows, ticks freeze
per-window deltas, actuators log exactly the actions that changed
something, and the tick chain dies with the traffic.
"""

import math
from functools import partial

import pytest

from repro.control import (
    Actuators,
    ControlAction,
    ControlRuntime,
    RssSteering,
    StaticController,
    identity_table,
    steering_table_length,
)
from repro.errors import ValidationError
from repro.sim.engine import EventLoop

WINDOW_NS = 1000.0


class FakeQueue:
    """A TX datapath stand-in: observer slot and arrival log."""

    def __init__(self):
        self.observer = None
        self.arrivals = []

    def on_arrival(self, now, size):
        self.arrivals.append((now, size))
        if self.observer is not None:
            self.observer(float(size))  # latency := size, keeps tests legible


class FakeCoupling:
    def __init__(self):
        self.counters = (0, 0)

    def descriptor_counters(self):
        return self.counters


class RecordingController(StaticController):
    name = "recording"

    def __init__(self):
        self.ticks = []

    def tick(self, now_ns, devices, actuators):
        self.ticks.append((now_ns, devices))


def build_runtime(controller, *, queues=1):
    loop = EventLoop()
    runtime = ControlRuntime(controller, WINDOW_NS, loop)
    tx = [FakeQueue() for _ in range(queues)]
    steering = RssSteering(tx, identity_table(queues))
    runtime.add_device("dev0", 0, tx, [steering], FakeCoupling())
    return loop, runtime, tx, steering


class TestSteeringTable:
    def test_identity_table_matches_direct_hashing(self):
        for num_queues in (1, 2, 3, 4, 8, 64, 100):
            length = steering_table_length(num_queues)
            table = identity_table(num_queues)
            assert len(table) == length
            for bucket in range(length):
                assert table[bucket] == bucket % num_queues

    def test_dispatch_routes_and_counts(self):
        queues = [FakeQueue(), FakeQueue()]
        steering = RssSteering(queues, [0, 1, 1, 0])
        steering.dispatch(1, 10.0, 64)
        steering.dispatch(1, 20.0, 64)
        steering.dispatch(3, 30.0, 64)
        assert queues[1].arrivals == [(10.0, 64), (20.0, 64)]
        assert queues[0].arrivals == [(30.0, 64)]
        assert steering.window_buckets == [0, 2, 0, 1]
        steering.reset_window()
        assert steering.window_buckets == [0, 0, 0, 0]

    def test_set_table_rewrites_in_place_and_validates(self):
        queues = [FakeQueue(), FakeQueue()]
        steering = RssSteering(queues, [0, 1])
        steering.set_table([1, 0])
        steering.dispatch(0, 1.0, 64)
        assert queues[1].arrivals == [(1.0, 64)]
        with pytest.raises(ValidationError):
            steering.set_table([0])  # length is fixed
        with pytest.raises(ValidationError):
            steering.set_table([0, 2])  # queue out of range
        with pytest.raises(ValidationError):
            RssSteering(queues, [0, 5])


class TestRuntimeTicks:
    def test_windows_carry_per_window_deltas(self):
        controller = RecordingController()
        loop, runtime, tx, steering = build_runtime(controller)
        loop.feed(
            [100.0 * (i + 1) for i in range(12)],
            [partial(steering.dispatch, i % 4) for i in range(12)],
            [64] * 12,
        )
        runtime.start()
        loop.run()
        assert runtime.windows_ticked >= 2
        first = controller.ticks[0][1][0]
        assert first.device == "dev0"
        # Arrivals at 100..1000 land before the t=1000 tick (the arrival
        # was fed first, and same-time events pop FIFO).
        assert first.count == 10
        assert first.window_ns == WINDOW_NS
        assert first.bucket_counts is not None
        assert sum(first.bucket_counts) == 10
        second = controller.ticks[1][1][0]
        assert second.count == 2  # 1100, 1200 (delta, not cumulative)
        assert second.window_index == 1

    def test_window_sums_the_queues_in_queue_order_and_restarts(self):
        controller = RecordingController()
        loop, runtime, tx, steering = build_runtime(controller, queues=2)
        runtime.bind_port_stats(lambda index: (3.0, 0.0))
        # The identity table sends even buckets to queue 0 and odd ones to
        # queue 1; a packet's latency is its size.  Deliveries alternate
        # between the queues, so delivery order would sum to 1.3.
        first_window = [(0, 0.1), (1, 0.2), (0, 0.7), (1, 0.3)]
        loop.feed(
            [100.0 * (i + 1) for i in range(len(first_window))] + [1500.0],
            [partial(steering.dispatch, bucket) for bucket, _ in first_window]
            + [partial(steering.dispatch, 1)],
            [latency for _, latency in first_window] + [5.0],
        )
        runtime.start()
        loop.run()
        first, second = (devices[0] for _, devices in controller.ticks)
        queue0 = 0.0 + 0.1 + 0.7
        queue1 = 0.0 + 0.2 + 0.3
        assert first.num_queues == 2
        assert first.count == 4
        assert first.latency_sum_ns == queue0 + queue1 != 1.3
        assert first.wait_fraction == (3.0 / 4) / (first.latency_sum_ns / 4)
        # The tick reset both tallies: window 2 holds its one packet only.
        assert second.count == 1
        assert second.latency_sum_ns == 5.0
        assert second.wait_fraction == 0.0

    def test_tick_chain_dies_with_the_traffic(self):
        controller = RecordingController()
        loop, runtime, tx, _ = build_runtime(controller)
        loop.feed([50.0], tx[0].on_arrival, [64])
        runtime.start()
        loop.run()
        # One tick fires at t=1000 (the loop still held it); with no
        # further traffic the chain must not self-perpetuate.
        assert runtime.windows_ticked == 1
        assert loop.peek_time() == math.inf

    def test_sampler_rides_every_tick_after_the_controller(self):
        controller = RecordingController()
        loop, runtime, tx, steering = build_runtime(controller)
        loop.feed(
            [100.0 * (i + 1) for i in range(12)],
            [partial(steering.dispatch, i % 4) for i in range(12)],
            [64] * 12,
        )
        samples = []
        runtime.sampler = lambda now: samples.append((now, len(controller.ticks)))
        runtime.start()
        loop.run()
        # One sample per window, each after that window's controller
        # step, and no event of the sampler's own: the run still ends
        # when the traffic does.
        assert samples == [
            (WINDOW_NS * (index + 1), index + 1)
            for index in range(runtime.windows_ticked)
        ]
        assert runtime.windows_ticked >= 2
        assert loop.peek_time() == math.inf

    def test_descriptor_hit_rate_is_a_window_delta(self):
        controller = RecordingController()
        loop, runtime, tx, _ = build_runtime(controller)
        coupling = runtime._devices[0].coupling
        coupling.counters = (10, 5)
        loop.feed([100.0, 1100.0], tx[0].on_arrival, [64, 64])
        runtime.start()
        loop.run()
        assert controller.ticks[0][1][0].descriptor_hit_rate == 0.5
        # No new accesses in window 2: hit rate is undefined, not 0/0.
        assert controller.ticks[1][1][0].descriptor_hit_rate is None

    def test_port_stats_fold_into_fabric_share(self):
        controller = RecordingController()
        loop, runtime, tx, _ = build_runtime(controller)
        totals = iter([(100.0, 800.0), (150.0, 900.0)])
        last = {}

        def source(index):
            last[index] = next(totals, last.get(index, (0.0, 0.0)))
            return last[index]

        runtime.bind_port_stats(source)
        loop.feed([100.0, 1100.0], tx[0].on_arrival, [64, 64])
        runtime.start()
        loop.run()
        first = controller.ticks[0][1][0]
        assert first.wait_ns_delta == 100.0
        assert first.busy_ns_delta == 800.0
        assert first.fabric_share == pytest.approx(0.8)
        second = controller.ticks[1][1][0]
        assert second.wait_ns_delta == 50.0
        assert second.busy_ns_delta == pytest.approx(100.0)

    def test_devices_must_register_in_index_order(self):
        loop = EventLoop()
        runtime = ControlRuntime(StaticController(), WINDOW_NS, loop)
        with pytest.raises(ValidationError):
            runtime.add_device("dev1", 1, [FakeQueue()], [], FakeCoupling())

    def test_window_must_be_positive(self):
        for window in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                ControlRuntime(StaticController(), window, EventLoop())


class TestActuators:
    def test_unbound_actuators_report_unavailable(self):
        loop, runtime, _, _ = build_runtime(StaticController())
        actuators = runtime.actuators
        assert actuators.weights() is None
        assert actuators.ddio_shares() is None
        assert not actuators.set_weights((2.0,), device="dev0", reason="x")
        assert not actuators.set_ddio_shares((2.0,), device="dev0", reason="x")
        assert runtime.actions == []

    def test_weights_apply_to_every_sink_and_log_once(self):
        loop, runtime, _, _ = build_runtime(StaticController())
        applied = []
        runtime.bind_weights(
            (1.0, 1.0),
            [lambda w: applied.append(("ingress", tuple(w))),
             lambda w: applied.append(("walker", tuple(w)))],
        )
        actuators = runtime.actuators
        assert actuators.set_weights((4.0, 1.0), device="dev0", reason="r")
        assert applied == [("ingress", (4.0, 1.0)), ("walker", (4.0, 1.0))]
        assert actuators.weights() == (4.0, 1.0)
        [action] = runtime.actions
        assert action.actuator == "weights"
        assert action.before == (1.0, 1.0)
        assert action.after == (4.0, 1.0)

    def test_no_op_actuations_are_not_logged(self):
        loop, runtime, _, steering = build_runtime(StaticController())
        runtime.bind_weights((1.0,), [lambda w: None])
        actuators = runtime.actuators
        assert not actuators.set_weights((1.0,), device="dev0", reason="same")
        assert not actuators.set_rss_table(0, steering.table, reason="same")
        assert runtime.actions == []

    def test_rss_actuation_rewrites_every_direction(self):
        loop = EventLoop()
        runtime = ControlRuntime(StaticController(), WINDOW_NS, loop)
        tx = [FakeQueue(), FakeQueue()]
        rx = [FakeQueue(), FakeQueue()]
        tx_steer = RssSteering(tx, identity_table(2))
        rx_steer = RssSteering(rx, identity_table(2))
        runtime.add_device("dev0", 0, tx, [tx_steer, rx_steer], FakeCoupling())
        new_table = [0] * steering_table_length(2)
        assert runtime.actuators.set_rss_table(0, new_table, reason="pin")
        assert tx_steer.table == new_table
        assert rx_steer.table == new_table
        [action] = runtime.actions
        assert action.actuator == "rss"

    def test_ddio_actuation_repartitions_and_validates(self):
        loop, runtime, _, _ = build_runtime(StaticController())
        seen = []
        runtime.bind_ddio((1.0, 1.0), lambda shares: seen.append(tuple(shares)))
        actuators = runtime.actuators
        with pytest.raises(ValidationError):
            actuators.set_ddio_shares((1.0,), device="dev0", reason="short")
        with pytest.raises(ValidationError):
            actuators.set_ddio_shares((1.0, -2.0), device="dev0", reason="neg")
        assert actuators.set_ddio_shares((2.0, 1.0), device="dev0", reason="up")
        assert seen == [(2.0, 1.0)]
        assert actuators.ddio_shares() == (2.0, 1.0)

    def test_weight_vector_length_is_validated(self):
        loop, runtime, _, _ = build_runtime(StaticController())
        runtime.bind_weights((1.0, 1.0), [lambda w: None])
        with pytest.raises(ValidationError):
            runtime.actuators.set_weights((1.0,), device="dev0", reason="x")


class TestControlActionRecord:
    def test_round_trip(self):
        action = ControlAction(
            time_ns=50_000.0,
            device="victim",
            actuator="weights",
            reason="wait-dominated",
            before=(1.0, 16.0),
            after=(2.0, 16.0),
        )
        record = action.as_dict()
        assert record["before"] == [1.0, 16.0]
        assert ControlAction.from_dict(record) == action

    def test_unknown_actuator_rejected(self):
        with pytest.raises(ValidationError):
            ControlAction(
                time_ns=0.0, device="d", actuator="voltage",
                reason="r", before=(1.0,), after=(2.0,),
            )
