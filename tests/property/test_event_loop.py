"""Property tests: the event loop against its dispatch-order specification.

Every golden file in this repository rests on one determinism contract:
events dispatch in ``(time, fed before dynamic, schedule order)`` order.
Dynamic events (``at``) keep FIFO order among equal timestamps, and
pre-fed workload arrivals (``feed``/``feed_many``) dispatch, stably
sorted, before any dynamic event at the same timestamp.  The property
tests below drive :class:`EventLoop` with many exact ties, unsorted
arrival streams and events that schedule follow-ups mid-run, and assert
the observed dispatch order is that sort.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import EngineProfile, EventLoop

#: Coarse times: a small grid forces many exact ties between dynamic
#: events, fed arrivals and follow-ups scheduled mid-run.
coarse_times = st.integers(min_value=0, max_value=40).map(lambda i: i * 8.0)
#: Follow-up delays; zero schedules at the current instant.
delays = st.integers(min_value=0, max_value=3).map(lambda i: i * 8.0)

FED, DYNAMIC = 0, 1


class Recorder:
    """Drives one loop and records each dispatch's specification key.

    A fed arrival's key is ``(time, FED, feed order)``; a dynamic
    event's is ``(time, DYNAMIC, schedule order)``.  The contract holds
    exactly when the recorded keys come out sorted.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.scheduled = 0
        self.keys: list[tuple[float, int, int]] = []

    def at(self, time: float, follow_ups=()) -> None:
        order = self.scheduled
        self.scheduled += 1

        def fire(now: float) -> None:
            self.keys.append((now, DYNAMIC, order))
            if follow_ups:
                self.at(now + follow_ups[0], follow_ups[1:])

        self.loop.at(time, fire)

    def feed_many(self, times) -> None:
        self.loop.feed_many(
            (time, lambda now, order: self.keys.append((now, FED, order)), order)
            for order, time in enumerate(times)
        )


def run_spec(schedule, stream=()):
    """Schedule ``schedule`` with ``at``, feed ``stream``, run, and return
    the recorder plus the dispatch order the specification demands."""
    recorder = Recorder(EventLoop())
    for time in schedule:
        recorder.at(time)
    recorder.feed_many(stream)
    recorder.loop.run()
    expected = sorted(
        [(time, DYNAMIC, order) for order, time in enumerate(schedule)]
        + [(time, FED, order) for order, time in enumerate(stream)]
    )
    return recorder, expected


class TestDispatchOrderIsTheSpecification:
    @given(schedule=st.lists(coarse_times, min_size=2, max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_equal_timestamps_dispatch_in_schedule_order(self, schedule):
        recorder, expected = run_spec(schedule)
        assert recorder.keys == expected

    @given(
        schedule=st.lists(coarse_times, max_size=80),
        stream=st.lists(coarse_times, max_size=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_arrival_stream_interleaves_in_sorted_order(self, schedule, stream):
        recorder, expected = run_spec(schedule, stream)
        assert recorder.keys == expected
        assert recorder.loop.processed == len(expected)

    @given(
        chains=st.lists(
            st.tuples(coarse_times, st.lists(delays, max_size=4)),
            max_size=30,
        ),
        stream=st.lists(coarse_times, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_events_scheduled_mid_run_keep_the_order(self, chains, stream):
        """Events that schedule follow-ups while the loop runs — the
        simulators' real shape, as DMA completions chain host events."""
        recorder = Recorder(EventLoop())
        for time, follow_ups in chains:
            recorder.at(time, tuple(follow_ups))
        recorder.feed_many(stream)
        recorder.loop.run()
        assert recorder.keys == sorted(recorder.keys)
        assert len(recorder.keys) == recorder.scheduled + len(stream)


class TestContractCases:
    def test_same_time_feed_precedes_dynamic_event(self):
        recorder = Recorder(EventLoop())
        recorder.at(100.0)
        recorder.feed_many([100.0])
        recorder.loop.run()
        assert recorder.keys == [(100.0, FED, 0), (100.0, DYNAMIC, 0)]

    def test_processed_count_matches_dispatched_events(self):
        recorder, expected = run_spec(
            [50.0, 50.0, 4096.0, 0.0], [0.0, 25.0, 50.0]
        )
        assert recorder.keys == expected
        assert recorder.loop.processed == len(expected) == 7

    def test_event_scheduled_at_the_current_time_runs_after_queued_ones(self):
        # An event scheduled mid-run at the current instant takes the next
        # schedule position, so every dynamic event already queued at that
        # instant runs first.
        loop = EventLoop()
        order = []

        def first(now):
            order.append("first")
            loop.at(now, lambda now: order.append("scheduled at now"))

        loop.at(10.0, first)
        loop.at(10.0, lambda now: order.append("queued"))
        loop.at(10.0, lambda now: order.append("queued too"))
        loop.run()
        assert order == ["first", "queued", "queued too", "scheduled at now"]

    def test_peek_time_sees_both_stream_and_scheduled_events(self):
        loop = EventLoop()
        assert loop.peek_time() == math.inf
        loop.at(200.0, lambda now: None)
        assert loop.peek_time() == 200.0
        loop.feed(50.0, lambda now, arg: None, None)
        assert loop.peek_time() == 50.0

    def test_single_feed_matches_feed_many(self):
        order = []
        loop = EventLoop()
        loop.feed(20.0, lambda now, arg: order.append(arg), "b")
        loop.feed(10.0, lambda now, arg: order.append(arg), "a")
        loop.feed_many([(10.0, lambda now, arg: order.append(arg), "a2")])
        loop.run()
        assert order == ["a", "a2", "b"]
        assert loop.processed == 3

    def test_running_is_set_only_while_draining(self):
        loop = EventLoop()
        seen = []
        loop.at(1.0, lambda now: seen.append(loop.running))
        assert not loop.running
        loop.run()
        assert seen == [True]
        assert not loop.running

    def test_running_is_cleared_when_an_event_raises(self):
        loop = EventLoop()
        loop.at(1.0, lambda now: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            loop.run()
        assert not loop.running
        assert loop.processed == 1


class TestReservedSequences:
    """The reserve()/at_sequenced() pair batched grants rely on."""

    def test_reserved_sequence_keeps_pre_reservation_order(self):
        # reserve() claims a tie-break slot *now*; an event scheduled with
        # it later still dispatches before same-time events scheduled in
        # between — exactly how a batched grant keeps its wake-up's place.
        loop = EventLoop()
        order = []
        loop.at(10.0, lambda now: order.append("early"))
        seq = loop.reserve()
        loop.at(10.0, lambda now: order.append("later"))
        loop.at_sequenced(10.0, seq, lambda now: order.append("reserved"))
        loop.run()
        assert order == ["early", "reserved", "later"]

    def test_unused_reservation_is_invisible(self):
        # A batched grant skips its wake-up: the claimed-but-unused
        # sequence must leave no hole in dispatch order.
        loop = EventLoop()
        order = []
        loop.at(5.0, lambda now: order.append("a"))
        loop.reserve()
        loop.at(5.0, lambda now: order.append("b"))
        loop.run()
        assert order == ["a", "b"]


class TestEngineProfile:
    def test_derived_metrics_and_serialisation(self):
        profile = EngineProfile(
            label="test", build_s=0.5, events_s=2.0, stats_s=0.5, events=1000
        )
        assert profile.total_s == 3.0
        assert profile.events_per_sec == 500.0
        record = profile.as_dict()
        assert record["label"] == "test"
        assert record["total_s"] == 3.0
        assert record["events_per_sec"] == 500.0
        text = profile.format()
        assert "test" in text and "events/s" in text

    def test_zero_duration_run_reports_zero_throughput(self):
        profile = EngineProfile(
            label="empty", build_s=0.0, events_s=0.0, stats_s=0.0, events=0
        )
        assert profile.events_per_sec == 0.0
        assert "0" in profile.format()
