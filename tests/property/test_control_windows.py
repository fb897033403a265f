"""Property: the control plane's per-window telemetry is exact.

Each TX queue of a controlled run keeps one packet count and one latency
sum for the open window; the tick adds the queues' sums in queue order
and resets them.  A policy decides from those two numbers alone, so they
must be exactly the floats a reference computes from the delivery
stream — each queue's sum starting at 0.0 and adding latencies in
delivery order, the queues' sums then added in queue order — with no
tolerance.  Empty windows (a tick with no traffic) must report nothing
and must not perturb the windows around them.
"""

from hypothesis import given, settings, strategies as st

from repro.control import ControlRuntime, DeviceWindow, StaticController
from repro.sim.engine import EventLoop

WINDOW_NS = 1000.0

latencies = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
num_queues = st.integers(1, 3)


def windows_for(queues: int):
    """Windows of ``(queue, latency)`` deliveries; empty lists are ticks
    with no traffic."""
    delivery = st.tuples(st.integers(0, queues - 1), latencies)
    return st.lists(st.lists(delivery, max_size=30), min_size=1, max_size=10)


class LatencyQueue:
    """A TX datapath stand-in whose arrivals deliver a given latency."""

    def __init__(self):
        self.observer = None

    def on_arrival(self, now, latency):
        self.observer(latency)


class NoCoupling:
    def descriptor_counters(self):
        return (0, 0)


class RecordingController(StaticController):
    name = "recording"

    def __init__(self):
        self.windows: list[DeviceWindow] = []

    def tick(self, now_ns, devices, actuators):
        [window] = devices
        self.windows.append(window)


def run_windows(queues: int, stream, wait_totals=None) -> list[DeviceWindow]:
    """Deliver ``stream`` window by window through a live runtime.

    Window ``w``'s deliveries land in list order strictly between the
    ticks at ``w * WINDOW_NS`` and ``(w + 1) * WINDOW_NS``.  The tick
    chain ends with the traffic, so trailing empty windows produce no
    tick.
    """
    loop = EventLoop()
    controller = RecordingController()
    runtime = ControlRuntime(controller, WINDOW_NS, loop)
    tx = [LatencyQueue() for _ in range(queues)]
    runtime.add_device("dev0", 0, tx, [], NoCoupling())
    if wait_totals is not None:
        runtime.bind_port_stats(
            lambda index: (wait_totals[runtime.windows_ticked], 0.0)
        )
    times, handlers, latencies = [], [], []
    for position, window in enumerate(stream):
        spacing = WINDOW_NS / (len(window) + 1)
        for slot, (queue, latency) in enumerate(window):
            times.append(position * WINDOW_NS + (slot + 1) * spacing)
            handlers.append(tx[queue].on_arrival)
            latencies.append(latency)
    loop.feed(times, handlers, latencies)
    runtime.start()
    loop.run()
    assert runtime.windows_ticked == len(controller.windows)
    return controller.windows


def ticked(stream) -> int:
    """Ticks a run of ``stream`` makes: through its last non-empty window,
    and at least the first one, which ``start`` schedules regardless."""
    busy = [position for position, window in enumerate(stream) if window]
    return busy[-1] + 1 if busy else 1


def reference_sum(queues: int, window) -> float:
    """Each queue's sum in delivery order, then the queues in queue order."""
    sums = [0.0] * queues
    for queue, latency in window:
        sums[queue] += latency
    total = 0.0
    for queue_sum in sums:
        total += queue_sum
    return total


class TestWindowTallies:
    @given(data=st.data(), queues=num_queues)
    @settings(max_examples=100, deadline=None)
    def test_window_sums_match_the_queue_order_reference_bit_for_bit(
        self, data, queues
    ):
        stream = data.draw(windows_for(queues))
        windows = run_windows(queues, stream)
        for window, deliveries in zip(windows, stream):
            assert window.num_queues == queues
            assert window.count == len(deliveries)
            # Float equality on purpose: the policies' inputs are pinned
            # bit for bit, not approximately.
            assert window.latency_sum_ns == reference_sum(queues, deliveries)

    @given(data=st.data(), queues=num_queues)
    @settings(max_examples=50, deadline=None)
    def test_window_indices_are_sequential_and_counts_add_up(
        self, data, queues
    ):
        stream = data.draw(windows_for(queues))
        windows = run_windows(queues, stream)
        assert len(windows) == ticked(stream)
        assert [window.window_index for window in windows] == list(
            range(len(windows))
        )
        assert sum(window.count for window in windows) == sum(
            len(deliveries) for deliveries in stream
        )

    @given(
        data=st.data(),
        queues=num_queues,
        gap=st.integers(1, 3),
        cut=st.integers(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_empty_windows_report_nothing_and_perturb_nothing(
        self, data, queues, gap, cut
    ):
        stream = data.draw(windows_for(queues))
        cut %= len(stream) + 1
        gapped = stream[:cut] + [[] for _ in range(gap)] + stream[cut:]
        plain = run_windows(queues, stream)
        noisy = run_windows(queues, gapped)
        inserted = range(cut, cut + gap)
        for empty in noisy[cut : cut + gap]:
            assert (empty.count, empty.latency_sum_ns) == (0, 0.0)
            assert empty.wait_fraction == 0.0
        kept = [
            (window.count, window.latency_sum_ns)
            for position, window in enumerate(noisy)
            if position not in inserted
        ]
        expected = [(window.count, window.latency_sum_ns) for window in plain]
        # Empty windows after the last delivery produce no tick in either
        # run; everything before them must agree window for window.
        assert kept == expected[: len(kept)]
        assert sum(count for count, _ in kept) == sum(
            count for count, _ in expected
        )

    @given(
        data=st.data(),
        queues=num_queues,
        waits=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=10, max_size=10
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_wait_fraction_is_wait_per_packet_over_mean_latency(
        self, data, queues, waits
    ):
        stream = data.draw(windows_for(queues))
        totals = []
        for wait in waits:
            totals.append((totals[-1] if totals else 0.0) + wait)
        windows = run_windows(queues, stream, wait_totals=totals)
        previous = 0.0
        for window, total in zip(windows, totals):
            assert window.wait_ns_delta == total - previous
            previous = total
            if window.count == 0:
                assert window.wait_fraction == 0.0
                continue
            mean = window.latency_sum_ns / window.count
            if mean <= 0.0:
                assert window.wait_fraction == 0.0
            else:
                assert window.wait_fraction == (
                    (window.wait_ns_delta / window.count) / mean
                )
