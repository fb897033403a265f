"""Work conservation: the arbitration scheme decides order, not work.

Every scheme of :class:`~repro.sim.engine.ArbitratedResource` is work
conserving: the resource never idles while a request it could grant is
queued, and every request receives exactly the service it asked for
(the ``sliced`` scheme in quanta, the others whole).  This is the sample
path form of Kleinrock's conservation law.  Given one open-loop request
stream, ``fcfs``, ``rr``, ``wrr``, ``age`` and ``sliced`` therefore end
with the same ``busy_until`` and the same summed ``busy_ns_total``, equal
to the summed demand.  When every request asks for the same duration, a
non-preemptive scheme grants at the same instants whatever it picks, so
``fcfs``, ``rr``, ``wrr`` and ``age`` also grant the same multiset of
start times.  Times and durations lie on an integer grid and the quanta
are powers of two, so every comparison is exact.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import ARBITER_SCHEMES, ArbitratedResource, EventLoop

#: The schemes that grant each request whole.
NON_PREEMPTIVE = tuple(scheme for scheme in ARBITER_SCHEMES if scheme != "sliced")


@st.composite
def streams(draw):
    clients = draw(st.integers(min_value=1, max_value=4))
    equal = draw(st.booleans())
    if equal:
        durations = st.just(draw(st.integers(min_value=0, max_value=40)))
    else:
        durations = st.integers(min_value=0, max_value=40)
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=120),
                st.integers(min_value=0, max_value=clients - 1),
                durations,
            ),
            min_size=1,
            max_size=30,
        )
    )
    weights = draw(
        st.lists(
            st.sampled_from((0.5, 1.0, 2.0, 3.0, 8.0)),
            min_size=clients,
            max_size=clients,
        )
    )
    return {
        "clients": clients,
        "requests": requests,
        "weights": tuple(weights),
        "quantum_ns": draw(st.sampled_from((4.0, 16.0))),
        "equal": equal,
    }


def _serve(scheme: str, stream) -> tuple[float, float, list[float]]:
    """Run the stream under ``scheme``: busy_until, summed busy, starts."""
    loop = EventLoop()
    resource = ArbitratedResource(
        "port",
        stream["clients"],
        loop,
        scheme=scheme,
        weights=stream["weights"],
        quantum_ns=stream["quantum_ns"] if scheme == "sliced" else None,
    )
    starts: list[float] = []
    for time, client, duration in stream["requests"]:
        loop.at(
            float(time),
            lambda now, client=client, duration=duration: resource.request(
                client, now, float(duration), starts.append
            ),
        )
    loop.run()
    assert resource.pending == 0
    assert len(starts) == len(stream["requests"])
    busy = sum(stats.busy_ns_total for stats in resource.stats)
    return resource.busy_until, busy, sorted(starts)


@given(stream=streams())
@settings(max_examples=200, deadline=None)
def test_every_scheme_does_the_same_work(stream):
    served = {scheme: _serve(scheme, stream) for scheme in ARBITER_SCHEMES}
    demand = float(sum(duration for _, _, duration in stream["requests"]))
    busy_until, busy, _ = served["fcfs"]
    for scheme, (scheme_busy_until, scheme_busy, _) in served.items():
        assert scheme_busy_until == busy_until, scheme
        assert scheme_busy == busy == demand, scheme
    if stream["equal"]:
        starts = served["fcfs"][2]
        for scheme in NON_PREEMPTIVE:
            assert served[scheme][2] == starts, scheme
