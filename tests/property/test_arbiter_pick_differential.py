"""Differential test of ArbitratedResource against a standalone reference.

``ArbitratedResource`` decides every grant in one dispatch loop: the
wake-up event runs it directly, each scheme's pick is one pass over the
per-client queue heads, a backlog count short-cuts idle wake-ups and
lone requests, and a sliced remnant is rewritten in place.  This suite
keeps a straightforward arbiter as the reference.  It shares no code with
the class under test: its own queues and request path, the backlog and
eligible lists with ``min`` / ``max`` and a tie-break key per scheme, and
the same wake-up rule: the loop's next sequence is claimed before the
grant callback runs, and the wake-up is pushed under it after the
callback unless the loop is running and ``peek_time`` shows no event at
or before the service end.  Then the next grant follows inline, and a
request that later finds the resource busy with no wake-up pending
pushes the claimed one, unless a later grant pushed its own wake-up:
that drops the claimed sequence, and the wake-up is simply scheduled.
Hypothesis drives both with the same request schedules and requires the
same grant order, the same grant start times, the same number of
dispatched events, the same per-client counters, the same
``busy_until`` and the same ``pending`` count.

The schedules cover 2-4 clients, many equal-time ties, weights (and a
``set_weights`` retune mid-run), sliced remnants, all five schemes,
follow-up requests submitted on completion, several requests from one
event, requests fed through the loop's arrival stream (which an inline
grant must look at too), requests submitted outside the event loop
ahead of time, and late requests submitted after a first ``loop.run()``,
each behind an event scheduled at the resource's ``busy_until``.  The
explicit examples reach each short cut of the dispatch loop — an idle
wake-up, a lone queued request, a lone sliced remnant and a lone request
still in the future — a resumed wake-up and a wake-up scheduled for a
late request in the resource's past
(``test_examples_reach_every_dispatch_path``).
"""

from __future__ import annotations

import heapq
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import ARBITER_SCHEMES, ArbitratedResource, EventLoop

#: The sliced quantum when a scenario leaves it unset.
REFERENCE_QUANTUM_NS = 16.0


class _Counters:
    """Per-client accounting, named like ``ArbiterClientStats``."""

    def __init__(self) -> None:
        self.requests = 0
        self.waited = 0
        self.wait_ns_total = 0.0
        self.wait_ns_max = 0.0
        self.busy_ns_total = 0.0


class ReferenceArbiter:
    """Per-client lists and a list + ``min``/``max`` picker.

    ``situations`` tallies what each dispatch found, so a test can show
    which paths of the class under test a schedule exercises: the short
    cuts ``idle wake-up``, ``lone request``, ``lone remnant`` and ``lone
    future request``; ``resumed wake-up``, a wake-up pushed late because
    the event that started an idle dispatch requested again; and ``past
    request``, a request from outside the loop in the resource's past
    after the wake-up that would have served it fired.
    """

    def __init__(
        self, name, clients, loop, *, scheme, weights=None, quantum_ns=None
    ):
        self.clients = clients
        self.scheme = scheme
        self.weights = (1.0,) * clients if weights is None else tuple(weights)
        if scheme == "sliced" and quantum_ns is None:
            quantum_ns = REFERENCE_QUANTUM_NS
        self.quantum_ns = quantum_ns
        self._loop = loop
        # Entries are (asked, order, remaining, grant, total, sliced).
        self._queues = [[] for _ in range(clients)]
        self._order = 0
        self._busy_until = 0.0
        self._waking = False
        self._last_granted = clients - 1
        self._unpushed = None
        self.stats = [_Counters() for _ in range(clients)]
        self.situations: Counter[str] = Counter()

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues)

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def set_weights(self, weights) -> None:
        self.weights = tuple(weights)

    def request(self, client, now, duration, grant) -> None:
        self._queues[client].append(
            (now, self._order, duration, grant, duration, False)
        )
        self._order += 1
        self.stats[client].requests += 1
        if self._waking:
            return
        if self._busy_until <= now:
            self._wake(now)
        elif self._unpushed is None:
            # Busy with no wake-up and no claimed sequence: the last
            # grant's wake-up fired, and this request comes from outside
            # the loop in the resource's past.
            self.situations["past request"] += 1
            self._waking = True
            self._loop.at(self._busy_until, self._wake)
        else:
            # Busy with no wake-up: the dispatch that made the last grant
            # followed it inline, found nothing queued and returned into
            # the event that is requesting again now.  Push the wake-up it
            # claimed.
            self.situations["resumed wake-up"] += 1
            self._waking = True
            heapq.heappush(self._loop._heap, (*self._unpushed, self._wake))
            self._unpushed = None

    def _pick(self, eligible: list[int], now: float) -> int:
        queues = self._queues
        if self.scheme == "fcfs":
            return min(eligible, key=lambda index: queues[index][0][:2])
        if self.scheme == "rr":
            return next(
                index
                for offset in range(1, self.clients + 1)
                if (index := (self._last_granted + offset) % self.clients)
                in eligible
            )
        if self.scheme == "age":
            return max(
                eligible,
                key=lambda index: (
                    (now - queues[index][0][0]) * self.weights[index],
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

    def _wake(self, now: float) -> None:
        self._waking = False
        queues = self._queues
        if not any(queues):
            self.situations["idle wake-up"] += 1
        while True:
            if now < self._busy_until:
                return
            backlog = [index for index in range(self.clients) if queues[index]]
            if not backlog:
                return
            eligible = [index for index in backlog if queues[index][0][0] <= now]
            lone = sum(len(queues[index]) for index in backlog) == 1
            if not eligible:
                if lone:
                    self.situations["lone future request"] += 1
                self._waking = True
                self._loop.at(
                    min(queues[index][0][0] for index in backlog), self._wake
                )
                return
            client = self._pick(eligible, now)
            queue = queues[client]
            asked, order, remaining, grant, total, sliced = queue.pop(0)
            if lone:
                self.situations["lone remnant" if sliced else "lone request"] += 1
            quantum = self.quantum_ns
            final = quantum is None or remaining <= quantum
            served = remaining if final else quantum
            if not final:
                queue.insert(0, (asked, order, remaining - served, grant, total, True))
            stats = self.stats[client]
            stats.busy_ns_total += served
            end = now + served
            self._busy_until = end
            self._last_granted = client
            self._waking = True
            # EventLoop.at in two halves: claim the sequence now...
            loop = self._loop
            wake_sequence = loop._sequence
            loop._sequence += 1
            if final:
                start = end - total
                if start > asked:
                    wait = start - asked
                    stats.waited += 1
                    stats.wait_ns_total += wait
                    stats.wait_ns_max = max(stats.wait_ns_max, wait)
                grant(start)
            if loop.running and loop.peek_time() > end:
                self._waking = False
                self._unpushed = (end, wake_sequence)
                now = end
                continue
            # ...and push under it outside the loop or when an event
            # precedes the service end.  An earlier unpushed claim is void.
            self._unpushed = None
            heapq.heappush(loop._heap, (end, wake_sequence, self._wake))
            return


WEIGHTS = st.sampled_from((0.5, 1.0, 2.0, 3.0, 8.0))
#: Durations around the sliced quanta below, so remnants are common.
DURATIONS = st.sampled_from((0.0, 3.0, 4.0, 8.0, 16.0, 17.0, 40.0, 100.0))
#: How requests reach the arbiter: one scheduled event each
#: (``loop.at``), one event per distinct time submitting all of that
#: time's requests (``grouped``), the loop's pre-sorted arrival stream
#: (``loop.feed``), or direct calls before the loop runs, in the drawn
#: order or in time order (which often leaves one request queued in the
#: resource's future).
SUBMISSIONS = ("at", "grouped", "feed", "ahead", "ahead in time order")


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
    # Times on a coarse grid: with five 4 ns slots most requests share an
    # instant with another; on the 40 ns grid the resource often idles
    # between them.
    spacing, slots = draw(st.sampled_from(((4.0, 4), (4.0, 40), (40.0, 40))))
    request = st.tuples(
        st.integers(0, slots).map(lambda t: spacing * t),
        st.integers(0, clients - 1),
        DURATIONS,
        st.booleans(),
    )
    requests = draw(st.lists(request, min_size=1, max_size=40))
    return {
        "clients": clients,
        "scheme": scheme,
        "weights": weights,
        "quantum_ns": (
            draw(st.sampled_from((4.0, 16.0))) if scheme == "sliced" else None
        ),
        "retune": retune,
        "requests": requests,
        "submission": draw(st.sampled_from(SUBMISSIONS)),
        "late": draw(st.lists(request, max_size=3)),
    }


def _scenario(
    scheme="fcfs", *, requests, submission, quantum_ns=None, retune=None, late=()
):
    return {
        "clients": 2,
        "scheme": scheme,
        "weights": None,
        "quantum_ns": quantum_ns,
        "retune": retune,
        "requests": requests,
        "submission": submission,
        "late": list(late),
    }


#: Hand-written schedules, one per dispatch path named in the module
#: docstring, each in the submission mode that reaches it.
SHORT_CUT_EXAMPLES = (
    # A lone request on an idle resource, then an idle wake-up: the
    # chained follow-up at the service end makes the grant push its
    # wake-up, which sorts first and finds nothing queued.
    _scenario(requests=[(0.0, 0, 8.0, True)], submission="at"),
    # A lone request queued behind a grant (a follow-up at t=4).
    _scenario(
        "wrr",
        requests=[(0.0, 0, 8.0, False), (4.0, 1, 8.0, False)],
        submission="feed",
    ),
    # A lone request sliced into quanta: its remnant is granted alone.
    _scenario(
        "sliced",
        requests=[(0.0, 1, 40.0, False)],
        submission="at",
        quantum_ns=16.0,
    ),
    # Driven ahead of the loop: the second request is still in the future
    # when the first grant's wake-up fires.
    _scenario(
        "rr",
        requests=[(0.0, 0, 8.0, False), (40.0, 1, 8.0, False)],
        submission="ahead",
    ),
    # One event requests twice: the first dispatch returns idle, and the
    # second request resumes its wake-up.
    _scenario(
        "age",
        requests=[(0.0, 0, 8.0, False), (0.0, 1, 8.0, False)],
        submission="grouped",
    ),
    # The t=0 grant ends idle inline and leaves its wake-up sequence
    # unused; the t=20 grant pushes its own (the retune event at 24
    # precedes its end at 36), which voids the first.  After the run, a
    # late request in the resource's past gets a wake-up scheduled behind
    # the event already waiting at t=36.
    _scenario(
        requests=[(0.0, 0, 8.0, False), (20.0, 0, 16.0, False)],
        submission="at",
        retune=(24.0, (1.0, 1.0)),
        late=[(24.0, 1, 8.0, False)],
    ),
)


def _simulate(cls, scenario) -> tuple:
    loop = EventLoop()
    arbiter = cls(
        "port",
        scenario["clients"],
        loop,
        scheme=scenario["scheme"],
        weights=scenario["weights"],
        quantum_ns=scenario["quantum_ns"],
    )
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
    requests = list(enumerate(scenario["requests"]))
    if scenario["submission"] == "ahead in time order":
        requests.sort(key=lambda request: request[1][0])
    def submit_group(now: float, group: list) -> None:
        for label, client, duration, chain in group:
            submit(label, client, now, duration, chain)

    groups: dict[float, list] = {}
    for index, (time, client, duration, chain) in requests:
        label = f"r{index}"
        if scenario["submission"] == "grouped":
            if time not in groups:
                groups[time] = []
                loop.at(
                    time, lambda now, group=groups[time]: submit_group(now, group)
                )
            groups[time].append((label, client, duration, chain))
        elif scenario["submission"].startswith("ahead"):
            # Submitted before the loop runs: requests in the future of
            # the resource's clock exercise the sleep-until-arrival path.
            submit(label, client, time, duration, chain)
        elif scenario["submission"] == "feed":
            loop.feed(
                time,
                lambda now, arg: submit(arg[0], arg[1], now, arg[2], arg[3]),
                (label, client, duration, chain),
            )
        else:
            loop.at(
                time,
                lambda now, label=label, client=client, duration=duration,
                chain=chain: submit(label, client, now, duration, chain),
            )
    loop.run()
    for index, (time, client, duration, chain) in enumerate(scenario["late"]):
        # An event waits at the service end before the late request asks.
        loop.at(arbiter.busy_until, lambda now: grants.append(("mark", now)))
        submit(f"late{index}", client, time, duration, chain)
    loop.run()
    return (
        grants,
        [
            (
                stats.requests,
                stats.waited,
                stats.wait_ns_total,
                stats.wait_ns_max,
                stats.busy_ns_total,
            )
            for stats in arbiter.stats
        ],
        loop.processed,
        arbiter.busy_until,
        arbiter.pending,
    ), arbiter


def _examples(test):
    for scenario in SHORT_CUT_EXAMPLES:
        test = example(scenario=scenario)(test)
    return test


@given(scenario=scenarios())
@_examples
@settings(max_examples=300, deadline=None)
def test_one_pass_pick_matches_reference_picker(scenario):
    expected, _ = _simulate(ReferenceArbiter, scenario)
    actual, _ = _simulate(ArbitratedResource, scenario)
    assert actual == expected
    grants = actual[0]
    # Every request (and every follow-up) was eventually granted once, and
    # every late request's mark event ran.
    requests = scenario["requests"] + scenario["late"]
    chained = sum(1 for request in requests if request[3])
    assert len(grants) == len(requests) + chained + len(scenario["late"])
    assert actual[4] == 0


def test_examples_reach_every_dispatch_path():
    reached: Counter[str] = Counter()
    for scenario in SHORT_CUT_EXAMPLES:
        reached += _simulate(ReferenceArbiter, scenario)[1].situations
    assert set(reached) == {
        "idle wake-up",
        "lone request",
        "lone remnant",
        "lone future request",
        "resumed wake-up",
        "past request",
    }
