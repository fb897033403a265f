"""Property tests: the event loop against its dispatch-order specification.

Every golden file in this repository rests on one determinism contract:
events dispatch in ``(time, fed before dynamic, schedule order)`` order.
Dynamic events (``at``) keep FIFO order among equal timestamps, and
pre-fed workload arrivals (``feed``, one source of times, handlers and
arguments per call) dispatch, stably sorted over the sources in feed
order, before any dynamic event at the same timestamp.  The property
tests below drive :class:`EventLoop` with many exact ties within and
across sources, unsorted sources, one handler or one per entry, and
events that schedule follow-ups mid-run, and assert the observed
dispatch order is that sort.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.sim.engine import EngineProfile, EventLoop

#: Coarse times: a small grid forces many exact ties between dynamic
#: events, fed arrivals and follow-ups scheduled mid-run.
coarse_times = st.integers(min_value=0, max_value=40).map(lambda i: i * 8.0)
#: Follow-up delays; zero schedules at the current instant.
delays = st.integers(min_value=0, max_value=3).map(lambda i: i * 8.0)

FED, DYNAMIC = 0, 1

#: Fed sources: 1-4 of them, each a list of coarse times (unsorted unless
#: its flag sorts it) fed with one handler or with one handler per entry.
sources = st.lists(
    st.tuples(
        st.lists(coarse_times, max_size=30),
        st.booleans(),  # sort the source
        st.booleans(),  # one handler per entry
    ),
    min_size=1,
    max_size=4,
).map(
    lambda drawn: [
        (sorted(times) if ordered else times, per_entry)
        for times, ordered, per_entry in drawn
    ]
)


class Recorder:
    """Drives one loop and records each dispatch's specification key.

    A fed arrival's key is ``(time, FED, feed order)``, where feed order
    counts entries across every source in the order they were fed; a
    dynamic event's is ``(time, DYNAMIC, schedule order)``.  The contract
    holds exactly when the recorded keys come out sorted.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.scheduled = 0
        self.fed = 0
        self.keys: list[tuple[float, int, int]] = []

    def at(self, time: float, follow_ups=()) -> None:
        order = self.scheduled
        self.scheduled += 1

        def fire(now: float) -> None:
            self.keys.append((now, DYNAMIC, order))
            if follow_ups:
                self.at(now + follow_ups[0], follow_ups[1:])

        self.loop.at(time, fire)

    def feed(self, times, per_entry: bool = False) -> None:
        """Feed ``times`` as one source, its entries next in feed order."""
        orders = list(range(self.fed, self.fed + len(times)))
        self.fed += len(times)
        if per_entry:
            handler = [partial(self.arrive_as, order) for order in orders]
        else:
            handler = self.arrive
        self.loop.feed(times, handler, orders)

    def arrive(self, now: float, order: int) -> None:
        self.keys.append((now, FED, order))

    def arrive_as(self, expected: int, now: float, order: int) -> None:
        """A per-entry handler: entry ``i`` gets argument ``i``."""
        assert order == expected
        self.arrive(now, order)

    def feed_sources(self, fed) -> list[float]:
        """Feed each ``(times, per_entry)`` source; return every fed time
        in feed order."""
        for times, per_entry in fed:
            self.feed(times, per_entry)
        return [time for times, _ in fed for time in times]


def expected_order(schedule, stream):
    """The specification: dynamic and fed keys, sorted."""
    return sorted(
        [(time, DYNAMIC, order) for order, time in enumerate(schedule)]
        + [(time, FED, order) for order, time in enumerate(stream)]
    )


def run_spec(schedule, fed=()):
    """Schedule ``schedule`` with ``at``, feed the ``(times, per_entry)``
    sources ``fed``, run, and return the recorder plus the dispatch order
    the specification demands."""
    recorder = Recorder(EventLoop())
    for time in schedule:
        recorder.at(time)
    stream = recorder.feed_sources(fed)
    recorder.loop.run()
    return recorder, expected_order(schedule, stream)


class TestDispatchOrderIsTheSpecification:
    @given(schedule=st.lists(coarse_times, min_size=2, max_size=150))
    @settings(max_examples=100, deadline=None)
    def test_equal_timestamps_dispatch_in_schedule_order(self, schedule):
        recorder, expected = run_spec(schedule)
        assert recorder.keys == expected

    @given(schedule=st.lists(coarse_times, max_size=80), fed=sources)
    @settings(max_examples=150, deadline=None)
    def test_arrival_sources_interleave_in_sorted_order(self, schedule, fed):
        recorder, expected = run_spec(schedule, fed)
        assert recorder.keys == expected
        assert recorder.loop.processed == len(expected)

    @given(
        chains=st.lists(
            st.tuples(coarse_times, st.lists(delays, max_size=4)),
            max_size=30,
        ),
        fed=sources,
    )
    @settings(max_examples=150, deadline=None)
    def test_events_scheduled_mid_run_keep_the_order(self, chains, fed):
        """Events that schedule follow-ups while the loop runs — the
        simulators' real shape, as DMA completions chain host events."""
        recorder = Recorder(EventLoop())
        for time, follow_ups in chains:
            recorder.at(time, tuple(follow_ups))
        stream = recorder.feed_sources(fed)
        recorder.loop.run()
        assert recorder.keys == sorted(recorder.keys)
        assert len(recorder.keys) == recorder.scheduled + len(stream)

    @given(
        schedule=st.lists(coarse_times, max_size=20),
        early=sources,
        late=sources,
    )
    @settings(max_examples=100, deadline=None)
    def test_peek_before_run_sees_the_earliest_arrival(
        self, schedule, early, late
    ):
        """``peek_time`` before :meth:`EventLoop.run` sees every source fed
        so far, and sources fed after the peek keep their feed order."""
        recorder = Recorder(EventLoop())
        for time in schedule:
            recorder.at(time)
        stream = recorder.feed_sources(early)
        assert recorder.loop.peek_time() == min(
            schedule + stream, default=math.inf
        )
        stream += recorder.feed_sources(late)
        recorder.loop.run()
        assert recorder.keys == expected_order(schedule, stream)


class TestContractCases:
    def test_same_time_feed_precedes_dynamic_event(self):
        recorder = Recorder(EventLoop())
        recorder.at(100.0)
        recorder.feed([100.0])
        recorder.loop.run()
        assert recorder.keys == [(100.0, FED, 0), (100.0, DYNAMIC, 0)]

    def test_processed_count_matches_dispatched_events(self):
        recorder, expected = run_spec(
            [50.0, 50.0, 4096.0, 0.0], [([0.0, 25.0, 50.0], False)]
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
        loop.feed([50.0], lambda now, arg: None, [None])
        assert loop.peek_time() == 50.0

    def test_sources_merge_stably_in_feed_order(self):
        order = []
        loop = EventLoop()
        loop.feed([20.0], lambda now, arg: order.append(arg), ["b"])
        loop.feed([10.0], lambda now, arg: order.append(arg), ["a"])
        loop.feed(
            [10.0, 5.0],
            [lambda now, arg: order.append(arg), lambda now, arg: None],
            ["a2", "early"],
        )
        loop.run()
        assert order == ["a", "a2", "b"]
        assert loop.processed == 4

    def test_arguments_pass_through_unchanged(self):
        seen = []
        loop = EventLoop()
        arguments = [("tuple", 1), ["list"], None]
        loop.feed(
            [3.0, 1.0, 2.0], lambda now, arg: seen.append((now, arg)), arguments
        )
        loop.run()
        assert seen == [(1.0, ["list"]), (2.0, None), (3.0, ("tuple", 1))]
        assert seen[0][1] is arguments[1]
        assert all(type(now) is float for now, _ in seen)

    def test_numpy_columns_dispatch_python_numbers(self):
        seen = []
        loop = EventLoop()
        handlers = np.array(
            [lambda now, arg: seen.append(arg)] * 2, dtype=object
        )
        loop.feed(
            np.array([2.0, 1.0]),
            lambda now, size: seen.append((now, size)),
            np.array([64, 1518]),
        )
        loop.feed(np.array([1.0, 3.0]), handlers, np.array([0.5, 2.5]))
        loop.run()
        assert seen == [(1.0, 1518), 0.5, (2.0, 64), 2.5]
        assert [type(entry) for entry in seen] == [tuple, float, tuple, float]
        assert all(type(size) is int for _, size in seen[::2])

    @pytest.mark.parametrize(
        "times, handler, args",
        [
            ([1.0, 2.0], lambda now, arg: None, [None]),
            ([1.0], [lambda now, arg: None] * 2, [None]),
            (1.0, lambda now, arg: None, [None]),
        ],
        ids=["short-args", "handler-per-entry-mismatch", "scalar-time"],
    )
    def test_feed_rejects_mismatched_columns(self, times, handler, args):
        with pytest.raises(ValidationError):
            EventLoop().feed(times, handler, args)

    def test_feed_while_running_is_refused(self):
        loop = EventLoop()
        refused = []

        def feed_mid_run(now: float) -> None:
            with pytest.raises(ValidationError):
                loop.feed([now + 1.0], lambda now, arg: None, [None])
            refused.append(now)

        loop.at(10.0, feed_mid_run)
        loop.run()
        assert refused == [10.0]
        assert loop.processed == 1

    def test_second_run_dispatches_exactly_the_arrivals_fed_since_the_first(
        self,
    ):
        loop = EventLoop()
        seen = []

        def arrive(now, arg):
            seen.append(arg)

        loop.feed([10.0], arrive, [10])
        loop.feed([20.0], arrive, [20])
        loop.run()
        assert seen == [10, 20]
        loop.feed([5.0], arrive, [5])
        loop.feed([30.0], arrive, [30])
        loop.run()
        assert seen == [10, 20, 5, 30]
        assert loop.processed == 4

    def test_arrivals_left_by_a_run_that_raised_lead_the_next_merge(self):
        loop = EventLoop()
        seen = []

        def arrive(now, arg):
            if arg == "fails":
                raise RuntimeError(arg)
            seen.append(arg)

        loop.feed([10.0, 20.0, 30.0], arrive, ["fails", "a", "b"])
        with pytest.raises(RuntimeError):
            loop.run()
        loop.feed([20.0, 15.0], arrive, ["c", "d"])
        loop.run()
        # The undispatched 20 and 30 were fed first, so they keep the
        # 20.0 tie ahead of the new source.
        assert seen == ["d", "a", "c", "b"]

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
