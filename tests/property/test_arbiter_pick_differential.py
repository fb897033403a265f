"""Differential test of ArbitratedResource's one-pass pick.

``ArbitratedResource._dispatch`` chooses the next grant in one pass over
the per-client queue heads.  This suite keeps the straightforward picker
as the reference: build the backlog and eligible lists, then ``min`` /
``max`` with a tie-break key per scheme, exactly as the engine used to.
Hypothesis drives both with the same request schedules and requires the
same grant order, the same grant start times, the same number of
dispatched events and the same per-client :class:`ArbiterClientStats`.

The schedules cover 2-4 clients, many equal-time ties, weights (and a
``set_weights`` retune mid-run), sliced remnants, all five schemes,
batched and unbatched grants, follow-up requests submitted on completion
and requests submitted outside the event loop ahead of time.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    ARBITER_SCHEMES,
    ArbiterClientStats,
    ArbitratedResource,
    EventLoop,
)


class ReferenceArbiter(ArbitratedResource):
    """ArbitratedResource with the list + ``min``/``max`` picker."""

    def _reference_pick(self, eligible: list[int], now: float) -> int:
        if self.scheme == "fcfs":
            return min(eligible, key=lambda index: self._queues[index][0][:2])
        if self.scheme == "rr":
            for offset in range(1, self.clients + 1):
                index = (self._last_granted + offset) % self.clients
                if index in eligible:
                    return index
            return eligible[0]
        if self.scheme == "age":
            return max(
                eligible,
                key=lambda index: (
                    (now - self._queues[index][0][0]) * self.weights[index],
                    -index,
                ),
            )
        return min(
            eligible,
            key=lambda index: (
                self.stats[index].busy_ns_total / self.weights[index],
                index,
            ),
        )

    def _reference_grant(self, stats, grant, start: float, asked: float) -> None:
        if start > asked:
            wait = start - asked
            stats.waited += 1
            stats.wait_ns_total += wait
            if wait > stats.wait_ns_max:
                stats.wait_ns_max = wait
        grant(start)

    def _dispatch(self, now: float) -> None:
        loop = self._loop
        queues = self._queues
        while True:
            if now < self._busy_until:
                return
            backlog = [index for index in range(self.clients) if queues[index]]
            if not backlog:
                return
            eligible = [index for index in backlog if queues[index][0][0] <= now]
            if not eligible:
                wake = min(queues[index][0][0] for index in backlog)
                self._dispatch_pending = True
                self._schedule(wake, self._on_free)
                return
            client = self._reference_pick(eligible, now)
            asked, sequence, remaining, grant, total = queues[client].popleft()
            stats = self.stats[client]
            sliced_remnant = (
                self.scheme == "sliced"
                and self.quantum_ns is not None
                and remaining > self.quantum_ns
            )
            if sliced_remnant:
                served = self.quantum_ns
                queues[client].appendleft(
                    (asked, sequence, remaining - served, grant, total)
                )
            else:
                served = remaining
            stats.busy_ns_total += served
            end = now + served
            self._busy_until = end
            self._last_granted = client
            self._dispatch_pending = True
            if loop is None or not loop.running:
                self._schedule(end, self._on_free)
                if not sliced_remnant:
                    self._reference_grant(stats, grant, end - total, asked)
                return
            wake_sequence = loop.reserve()
            if not sliced_remnant:
                self._reference_grant(stats, grant, end - total, asked)
            if loop.peek_time() > end:
                self._dispatch_pending = False
                now = end
                continue
            loop.at_sequenced(end, wake_sequence, self._on_free)
            return


WEIGHTS = st.sampled_from((0.5, 1.0, 2.0, 3.0, 8.0))
#: Durations around the sliced quanta below, so remnants are common.
DURATIONS = st.sampled_from((0.0, 3.0, 4.0, 8.0, 16.0, 17.0, 40.0, 100.0))


@st.composite
def scenarios(draw):
    clients = draw(st.integers(min_value=2, max_value=4))
    scheme = draw(st.sampled_from(ARBITER_SCHEMES))
    weight_list = st.lists(WEIGHTS, min_size=clients, max_size=clients)
    weights = draw(st.none() | weight_list.map(tuple))
    retune = draw(
        st.none()
        | st.tuples(st.integers(0, 60).map(float), weight_list.map(tuple))
    )
    # Times on a coarse 4 ns grid: many requests share an instant.
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(0, 40).map(lambda t: 4.0 * t),
                st.integers(0, clients - 1),
                DURATIONS,
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return {
        "clients": clients,
        "scheme": scheme,
        "weights": weights,
        "quantum_ns": (
            draw(st.sampled_from((4.0, 16.0))) if scheme == "sliced" else None
        ),
        "retune": retune,
        "requests": requests,
        "batched": draw(st.booleans()),
        "ahead_of_loop": draw(st.booleans()),
    }


def _stats(stats: ArbiterClientStats) -> tuple:
    return (
        stats.requests,
        stats.waited,
        stats.wait_ns_total,
        stats.wait_ns_max,
        stats.busy_ns_total,
    )


def _simulate(cls, scenario) -> tuple:
    loop = EventLoop()
    arbiter = cls(
        "port",
        scenario["clients"],
        schedule=loop.at,
        scheme=scenario["scheme"],
        weights=scenario["weights"],
        quantum_ns=scenario["quantum_ns"],
    )
    if scenario["batched"]:
        arbiter.attach_loop(loop)
    grants: list[tuple[str, float]] = []

    def submit(label: str, client: int, now: float, duration: float, chain: bool):
        def granted(start: float) -> None:
            grants.append((label, start))
            if chain:
                # A follow-up request once this one's service completes,
                # the closed-loop pattern the fabric's datapaths produce.
                loop.at(
                    start + duration,
                    lambda later: submit(
                        label + "+", client, later, duration, False
                    ),
                )

        arbiter.request(client, now, duration, granted)

    if scenario["retune"] is not None:
        at, weights = scenario["retune"]
        loop.at(at, lambda now: arbiter.set_weights(weights))
    for index, (time, client, duration, chain) in enumerate(scenario["requests"]):
        label = f"r{index}"
        if scenario["ahead_of_loop"]:
            # Submitted before the loop runs: requests in the future of
            # the resource's clock exercise the sleep-until-arrival path.
            submit(label, client, time, duration, chain)
        else:
            loop.at(
                time,
                lambda now, label=label, client=client, duration=duration,
                chain=chain: submit(label, client, now, duration, chain),
            )
    loop.run()
    return (
        grants,
        [_stats(stats) for stats in arbiter.stats],
        loop.processed,
        arbiter.busy_until,
        arbiter.pending,
    )


@given(scenario=scenarios())
@settings(max_examples=300, deadline=None)
def test_one_pass_pick_matches_reference_picker(scenario):
    expected = _simulate(ReferenceArbiter, scenario)
    actual = _simulate(ArbitratedResource, scenario)
    assert actual == expected
    grants = actual[0]
    # Every request (and every follow-up) was eventually granted once.
    chained = sum(1 for request in scenario["requests"] if request[3])
    assert len(grants) == len(scenario["requests"]) + chained
    assert actual[4] == 0
