"""Focused tests for the simulation engine primitives.

The pipeline behaviour of :class:`SerialResource` and :class:`WorkerPool`
was previously exercised mostly through :class:`~repro.sim.dma.DmaEngine`;
these tests pin down the primitives' contracts directly — in particular the
acquire/commit ordering of the worker pool under interleaved release times,
which both the DMA engine and the NIC datapath simulator rely on.
"""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.sim.engine import (
    DEFAULT_QUANTUM_NS,
    ArbitratedResource,
    EventLoop,
    SerialResource,
    TagPool,
    WorkerPool,
)


class TestWorkerPoolInterleaving:
    def test_acquire_tracks_earliest_release_as_commits_interleave(self):
        pool = WorkerPool(2)
        # Two slots committed out of release order.
        pool.commit(50.0)
        pool.commit(30.0)
        # Full pool: the next acquire waits for the *earliest* release.
        assert pool.acquire(0.0) == 30.0
        # Committing replaces that earliest slot; now 50 is the horizon.
        pool.commit(90.0)
        assert pool.acquire(0.0) == 50.0
        # A later "now" dominates an already-passed release time.
        assert pool.acquire(60.0) == 60.0

    def test_out_of_order_release_times_never_lose_slots(self):
        pool = WorkerPool(3)
        for release in (70.0, 10.0, 40.0):
            pool.commit(release)
        assert pool.in_flight == 3
        # Acquire/commit cycles walk the releases in sorted order.
        observed = []
        for release in (100.0, 110.0, 120.0):
            observed.append(pool.acquire(0.0))
            pool.commit(release)
        assert observed == [10.0, 40.0, 70.0]
        assert pool.in_flight == 3

    def test_free_slots_are_granted_at_now_regardless_of_busy_slots(self):
        pool = WorkerPool(4)
        pool.commit(1000.0)
        pool.commit(2000.0)
        # Two of four slots busy far in the future; a request still gets a
        # free slot immediately.
        assert pool.acquire(5.0) == 5.0

    def test_reset_restores_full_capacity(self):
        pool = WorkerPool(1)
        pool.commit(500.0)
        assert pool.acquire(0.0) == 500.0
        pool.reset()
        assert pool.in_flight == 0
        assert pool.acquire(0.0) == 0.0

    def test_two_acquires_before_any_commit_are_rejected(self):
        """Regression: a full pool quotes the *same* slot to back-to-back
        acquires; the second commit used to blind-``heapreplace`` whichever
        slot the first commit made earliest, silently corrupting the
        timeline.  The symptom — a release predating the slot it replaces —
        now raises instead."""
        pool = WorkerPool(1)
        pool.commit(100.0)
        # Both acquires are quoted the same (only) slot, freeing at 100.
        first = pool.acquire(0.0)
        second = pool.acquire(0.0)
        assert first == second == 100.0
        pool.commit(150.0)
        # The second caller commits a release computed from the *first*
        # quote (service starting at 100, not 150): out of order.
        with pytest.raises(SimulationError, match="out of order"):
            pool.commit(120.0)
        # The pool's timeline was not corrupted by the rejected commit.
        assert pool.in_flight == 1
        assert pool.acquire(0.0) == 150.0

    def test_commit_at_exactly_the_earliest_release_is_allowed(self):
        # A zero-duration occupancy releases exactly when its slot freed;
        # that is a legal alternation, not a broken interleaving.
        pool = WorkerPool(1)
        pool.commit(100.0)
        assert pool.acquire(0.0) == 100.0
        pool.commit(100.0)
        assert pool.in_flight == 1
        assert pool.acquire(0.0) == 100.0

    def test_rejected_commit_names_both_times(self):
        pool = WorkerPool(2)
        pool.commit(40.0)
        pool.commit(60.0)
        with pytest.raises(SimulationError, match=r"10.*predates.*40"):
            pool.commit(10.0)


class TestSerialResourceFifoTieBreak:
    """The release-ordering contract multi-queue reproducibility rests on.

    When two grants mature at the same timestamp, service order must be
    the *call* order — first ``occupy`` call wins the earlier slot — with
    no dependence on duration, caller identity or hash order.  The NIC
    datapath event loop breaks same-time event ties by insertion sequence,
    so pinning this here pins the end-to-end determinism of multi-queue
    runs across Python versions and platforms.
    """

    def test_equal_earliest_start_served_in_call_order(self):
        link = SerialResource("link")
        first = link.occupy(10.0, 5.0)
        second = link.occupy(10.0, 3.0)
        third = link.occupy(10.0, 2.0)
        assert (first, second, third) == (10.0, 15.0, 18.0)

    def test_shorter_later_request_cannot_jump_the_queue(self):
        # A zero-duration request issued second still waits behind the
        # first request's full service time.
        link = SerialResource("link")
        assert link.occupy(0.0, 100.0) == 0.0
        assert link.occupy(0.0, 0.0) == 100.0

    def test_grants_maturing_together_stack_fifo(self):
        # Three requests whose earliest starts all mature while the link
        # is busy until t=50: they stack strictly in call order at 50.
        link = SerialResource("link")
        link.occupy(0.0, 50.0)
        starts = [link.occupy(t, 10.0) for t in (20.0, 30.0, 10.0)]
        assert starts == [50.0, 60.0, 70.0]


class TestTagPool:
    """The event-driven bounded DMA tag pool gating nicsim DMAs."""

    def test_grants_are_immediate_while_capacity_remains(self):
        pool = TagPool("tags", 2)
        grants: list[float] = []
        pool.acquire(1.0, grants.append)
        pool.acquire(2.0, grants.append)
        assert grants == [1.0, 2.0]
        assert pool.in_flight == 2
        assert pool.max_in_flight == 2
        assert pool.waited == 0

    def test_exhausted_pool_queues_and_regrants_fifo(self):
        pool = TagPool("tags", 1)
        grants: list[str] = []
        pool.acquire(0.0, lambda now: grants.append(f"a@{now}"))
        pool.acquire(1.0, lambda now: grants.append(f"b@{now}"))
        pool.acquire(2.0, lambda now: grants.append(f"c@{now}"))
        assert grants == ["a@0.0"]
        assert pool.waiting == 2
        # Two releases at the *same* timestamp grant in acquire order.
        pool.release(10.0)
        pool.release(10.0)
        assert grants == ["a@0.0", "b@10.0", "c@10.0"]
        assert pool.waiting == 0
        assert pool.in_flight == 1  # c still holds the regranted tag
        assert pool.waited == 2
        assert pool.wait_ns_total == pytest.approx((10.0 - 1.0) + (10.0 - 2.0))

    def test_release_without_waiters_frees_the_tag(self):
        pool = TagPool("tags", 2)
        pool.acquire(0.0, lambda now: None)
        pool.release(5.0)
        assert pool.in_flight == 0
        # The freed tag is immediately grantable again.
        grants: list[float] = []
        pool.acquire(6.0, grants.append)
        assert grants == [6.0]

    def test_over_release_and_bad_arguments_rejected(self):
        with pytest.raises(ValidationError):
            TagPool("tags", 0)
        pool = TagPool("tags", 1)
        with pytest.raises(SimulationError):
            pool.release(0.0)
        with pytest.raises(ValidationError):
            pool.acquire(-1.0, lambda now: None)


class TestSerialResourceReset:
    def test_reset_clears_schedule_and_statistics(self):
        link = SerialResource("link", free_at=25.0)
        assert link.occupy(0.0, 10.0) == 25.0
        link.reset()
        assert link.free_at == 0.0
        assert link.busy_time == 0.0
        assert link.served == 0
        # After a reset the resource serves from time zero again.
        assert link.occupy(0.0, 10.0) == 0.0
        assert link.utilisation(10.0) == pytest.approx(1.0)

    def test_utilisation_is_capped_at_one(self):
        link = SerialResource("link")
        link.occupy(0.0, 100.0)
        assert link.utilisation(50.0) == 1.0


class TestValidationPaths:
    def test_serial_resource_rejects_negative_construction(self):
        with pytest.raises(ValidationError):
            SerialResource("link", free_at=-1.0)

    def test_serial_resource_rejects_bad_occupy_arguments(self):
        link = SerialResource("link")
        with pytest.raises(ValidationError):
            link.occupy(-0.5, 1.0)
        with pytest.raises(ValidationError):
            link.occupy(0.0, -1.0)
        with pytest.raises(ValidationError):
            link.utilisation(-10.0)

    def test_worker_pool_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)
        with pytest.raises(ValidationError):
            WorkerPool(-3)
        pool = WorkerPool(2)
        with pytest.raises(ValidationError):
            pool.acquire(-1.0)
        with pytest.raises(ValidationError):
            pool.commit(-0.1)
        # Failed calls must not corrupt the pool.
        assert pool.in_flight == 0
        assert pool.acquire(0.0) == 0.0


class TestArbitratedResource:
    def _arbiter(self, scheme, clients=2, weights=None, quantum_ns=None):
        loop = EventLoop()
        resource = ArbitratedResource(
            "test",
            clients,
            loop,
            scheme=scheme,
            weights=weights,
            quantum_ns=quantum_ns,
        )
        return loop, resource

    def test_idle_resource_grants_immediately(self):
        loop, resource = self._arbiter("fcfs")
        grants = []
        resource.request(0, 5.0, 10.0, grants.append)
        assert grants == [5.0]
        assert resource.busy_until == 15.0
        assert resource.stats[0].waited == 0

    def test_fcfs_serves_globally_oldest_request(self):
        loop, resource = self._arbiter("fcfs")
        grants = []
        resource.request(1, 0.0, 10.0, lambda t: grants.append(("b0", t)))
        # Queued while busy: client 1 asked at 1.0, client 0 at 2.0.
        resource.request(1, 1.0, 5.0, lambda t: grants.append(("b1", t)))
        resource.request(0, 2.0, 5.0, lambda t: grants.append(("a0", t)))
        loop.run()
        assert grants == [("b0", 0.0), ("b1", 10.0), ("a0", 15.0)]

    def test_rr_alternates_between_backlogged_clients(self):
        loop, resource = self._arbiter("rr")
        grants = []
        resource.request(0, 0.0, 10.0, lambda t: grants.append(("a0", t)))
        # Client 0 queues three more; client 1 queues one at the same time.
        for index in range(1, 4):
            resource.request(
                0, 1.0, 10.0, lambda t, i=index: grants.append((f"a{i}", t))
            )
        resource.request(1, 1.0, 10.0, lambda t: grants.append(("b0", t)))
        loop.run()
        # Round-robin: after a0 completes, client 1 gets its turn before
        # client 0's backlog drains.
        assert grants[0] == ("a0", 0.0)
        assert grants[1] == ("b0", 10.0)
        assert [label for label, _ in grants[2:]] == ["a1", "a2", "a3"]

    def test_wrr_shares_service_time_by_weight(self):
        loop, resource = self._arbiter("wrr", weights=(3.0, 1.0))
        served = []
        # Both clients keep a deep backlog of equal-duration requests.
        for client in (0, 1):
            for _ in range(12):
                resource.request(
                    client, 0.0, 10.0, lambda t, c=client: served.append(c)
                )
        loop.run()
        # Over the first 8 grants the 3:1 weighting shows: client 0 gets
        # about three quarters of them.
        head = served[:8]
        assert head.count(0) == 6 and head.count(1) == 2
        stats = resource.stats
        assert stats[0].busy_ns_total == 120.0
        assert stats[1].busy_ns_total == 120.0  # backlogs fully drain

    def test_wait_accounting_tracks_queueing_delay(self):
        loop, resource = self._arbiter("fcfs")
        resource.request(0, 0.0, 10.0, lambda t: None)
        resource.request(1, 2.0, 4.0, lambda t: None)
        loop.run()
        assert resource.stats[1].waited == 1
        assert resource.stats[1].wait_ns_total == pytest.approx(8.0)
        assert resource.stats[1].wait_ns_mean == pytest.approx(8.0)
        assert resource.stats[0].wait_ns_mean == 0.0

    def test_single_client_fcfs_matches_serial_resource_timing(self):
        loop, resource = self._arbiter("fcfs", clients=1)
        serial = SerialResource("reference")
        starts = []
        for now, duration in ((0.0, 7.0), (1.0, 3.0), (20.0, 5.0)):
            resource.request(0, now, duration, starts.append)
            serial.occupy(now, duration)
        loop.run()
        # Same grant start times as the plain serial resource's bookings.
        assert starts == [0.0, 7.0, 20.0]
        assert resource.busy_until == serial.free_at

    def test_validation_errors(self):
        loop = EventLoop()
        with pytest.raises(ValidationError):
            ArbitratedResource("x", 0, loop)
        with pytest.raises(ValidationError):
            ArbitratedResource("x", 2, loop, scheme="lottery")
        with pytest.raises(ValidationError):
            ArbitratedResource("x", 2, loop, weights=(1.0,))
        with pytest.raises(ValidationError):
            ArbitratedResource("x", 2, loop, weights=(1.0, -1.0))
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="finite and positive"):
                ArbitratedResource("x", 2, loop, weights=(1.0, bad))
        resource = ArbitratedResource("x", 2, loop)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="finite and positive"):
                resource.set_weights((bad, 1.0))
        assert resource.weights == (1.0, 1.0)
        with pytest.raises(ValidationError, match=r"client must be within \[0, 2\)"):
            resource.request(5, 0.0, 1.0, lambda t: None)
        with pytest.raises(ValidationError, match="now must be non-negative"):
            resource.request(0, -1.0, 1.0, lambda t: None)
        with pytest.raises(ValidationError, match="duration must be non-negative"):
            resource.request(0, 0.0, -1.0, lambda t: None)
        # A rejected request queues nothing.
        assert resource.pending == 0
        assert all(stats.requests == 0 for stats in resource.stats)

    # -- edge cases pinned as behaviour ------------------------------------

    def test_zero_weight_wrr_entries_are_rejected(self):
        # A zero wrr weight would mean "never serve this client" — a
        # starvation hazard dressed up as configuration.  Pinned: weights
        # must be strictly positive, zero included in the rejection.
        loop = EventLoop()
        for scheme in ("wrr", "age", "sliced"):
            with pytest.raises(ValidationError):
                ArbitratedResource(
                    "x", 2, loop, scheme=scheme, weights=(1.0, 0.0)
                )

    def test_single_queue_degeneracy_for_every_scheme(self):
        # With one client there is nothing to arbitrate: every scheme
        # must produce the same grant starts as a plain SerialResource,
        # and (sliced aside) the same virtual-start arithmetic.
        bookings = ((0.0, 7.0), (1.0, 3.0), (20.0, 5.0))
        serial = SerialResource("reference")
        expected = [serial.occupy(now, duration) for now, duration in bookings]
        for scheme in ("fcfs", "rr", "wrr", "age"):
            loop, resource = self._arbiter(scheme, clients=1)
            starts = []
            for now, duration in bookings:
                resource.request(0, now, duration, starts.append)
            loop.run()
            assert starts == expected, scheme
            assert resource.busy_until == serial.free_at, scheme

    def test_fcfs_tie_break_at_equal_grant_times_is_call_order(self):
        # Two requests maturing at the same instant: the one whose
        # request() call happened first is served first, mirroring the
        # SerialResource tie-break contract.
        loop, resource = self._arbiter("fcfs", clients=3)
        grants = []
        resource.request(2, 0.0, 10.0, lambda t: grants.append(("first", t)))
        # Same asked time, different call order, descending client index
        # to prove client ids do not override call order.
        resource.request(1, 5.0, 2.0, lambda t: grants.append(("second", t)))
        resource.request(0, 5.0, 2.0, lambda t: grants.append(("third", t)))
        loop.run()
        assert grants == [("first", 0.0), ("second", 10.0), ("third", 12.0)]

    def test_age_scheme_weights_shorten_the_queueing_deadline(self):
        # Client 0 weighted 8: once both requests have aged, its younger
        # request overtakes the older request of the weight-1 client.
        loop, resource = self._arbiter("age", weights=(8.0, 1.0))
        grants = []
        resource.request(1, 0.0, 10.0, lambda t: grants.append(("bulk0", t)))
        resource.request(1, 1.0, 10.0, lambda t: grants.append(("bulk1", t)))
        resource.request(0, 5.0, 10.0, lambda t: grants.append(("victim", t)))
        loop.run()
        # At t=10: victim age 5 * 8 = 40 beats bulk1 age 9 * 1 = 9.
        assert grants == [("bulk0", 0.0), ("victim", 10.0), ("bulk1", 20.0)]

    def test_age_equal_weights_serve_oldest_first(self):
        loop, resource = self._arbiter("age")
        grants = []
        resource.request(0, 0.0, 10.0, lambda t: grants.append("a0"))
        resource.request(1, 1.0, 5.0, lambda t: grants.append("b0"))
        resource.request(0, 2.0, 5.0, lambda t: grants.append("a1"))
        loop.run()
        assert grants == ["a0", "b0", "a1"]

    def test_sliced_grant_backdates_start_to_true_completion(self):
        # A 50 ns grant sliced into 16 ns quanta with no competition:
        # the callback fires with start + duration == completion, and the
        # resource is busy until exactly that completion.
        loop, resource = self._arbiter(
            "sliced", quantum_ns=16.0, weights=(1.0, 1.0)
        )
        grants = []
        resource.request(0, 0.0, 50.0, grants.append)
        loop.run()
        assert grants == [0.0]  # uncontended: virtual start == asked
        assert resource.busy_until == 50.0
        assert resource.stats[0].busy_ns_total == pytest.approx(50.0)
        assert resource.stats[0].waited == 0

    def test_sliced_bounds_a_victim_wait_to_the_quantum(self):
        # A bulk 100 ns grant is in flight when a short victim request
        # arrives: non-preemptive wrr makes the victim wait out the whole
        # grant; slicing caps the wait at the current quantum's end.
        for scheme, quantum, expected_wait in (
            ("wrr", None, 99.0),
            ("sliced", 16.0, 15.0),
        ):
            loop, resource = self._arbiter(
                scheme, weights=(8.0, 1.0), quantum_ns=quantum
            )
            resource.request(1, 0.0, 100.0, lambda t: None)
            resource.request(0, 1.0, 10.0, lambda t: None)
            loop.run()
            stats = resource.stats[0]
            assert stats.waited == 1, scheme
            assert stats.wait_ns_total == pytest.approx(expected_wait), scheme
            assert stats.wait_ns_max == pytest.approx(expected_wait), scheme
            # The preempted bulk grant still receives its full service.
            assert resource.stats[1].busy_ns_total == pytest.approx(100.0)

    def test_sliced_preemption_resumes_the_remnant(self):
        # The bulk grant's completion time reflects the victim's slice in
        # the middle: 100 ns of service plus 10 ns of preemption.
        loop, resource = self._arbiter(
            "sliced", weights=(8.0, 1.0), quantum_ns=16.0
        )
        completions = {}
        resource.request(
            1, 0.0, 100.0, lambda t: completions.setdefault("bulk", t + 100.0)
        )
        resource.request(
            0, 1.0, 10.0, lambda t: completions.setdefault("victim", t + 10.0)
        )
        loop.run()
        assert completions["victim"] == pytest.approx(26.0)  # 16 + 10
        assert completions["bulk"] == pytest.approx(110.0)

    def test_quantum_validation(self):
        loop = EventLoop()
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                ArbitratedResource(
                    "x", 2, loop, scheme="sliced", quantum_ns=bad
                )
        with pytest.raises(ValidationError):
            ArbitratedResource("x", 2, loop, scheme="wrr", quantum_ns=16.0)
        # sliced without an explicit quantum takes the engine default.
        sliced = ArbitratedResource("x", 2, loop, scheme="sliced")
        assert sliced.quantum_ns == DEFAULT_QUANTUM_NS

    def test_wake_up_precedes_same_time_events_its_grant_schedules(self):
        # The wake-up for a grant's service end sorts ahead of any event
        # the grant callback schedules for that instant: its sequence is
        # claimed before the callback runs.  So the queued request is
        # granted at t=10 before the callback's own t=10 event.
        loop = EventLoop()
        resource = ArbitratedResource("x", 2, loop)
        order = []

        def first(start):
            order.append(("first", start))
            loop.at(10.0, lambda now: order.append(("event", now)))

        loop.at(0.0, lambda now: resource.request(0, now, 10.0, first))
        loop.at(
            0.0,
            lambda now: resource.request(
                1, now, 5.0, lambda start: order.append(("second", start))
            ),
        )
        loop.run()
        assert order == [("first", 0.0), ("second", 10.0), ("event", 10.0)]
        # Two requests, the callback's event and two wake-ups (the second
        # one idle).
        assert loop.processed == 5
        assert resource.pending == 0

    def test_batched_grants_follow_inline_when_nothing_intervenes(self):
        # The grant callback queues a follow-up and nothing else is
        # pending before either service end, so both grants run inside
        # the one requesting event: no wake-up is scheduled at all.
        loop = EventLoop()
        resource = ArbitratedResource("x", 2, loop)
        starts = []

        def first(start):
            starts.append(start)
            resource.request(1, start, 5.0, starts.append)

        loop.at(0.0, lambda now: resource.request(0, now, 10.0, first))
        loop.run()
        assert starts == [0.0, 10.0]
        assert loop.processed == 1
        assert resource.busy_until == 15.0

    def test_second_request_of_one_event_waits_for_the_first(self):
        # One event requests twice.  The first request's dispatch finds
        # nothing else queued or pending and returns without a wake-up;
        # the second request must still be granted when the first one's
        # service ends.
        loop = EventLoop()
        resource = ArbitratedResource("x", 2, loop)
        starts = []

        def both(now):
            resource.request(0, now, 10.0, starts.append)
            resource.request(1, now, 5.0, starts.append)

        loop.at(0.0, both)
        loop.run()
        assert starts == [0.0, 10.0]
        assert resource.pending == 0
        assert resource.busy_until == 15.0
        # The event and the resumed wake-up at t=10, with no idle wake-up
        # at t=15.
        assert loop.processed == 2

    def test_request_in_the_past_waits_for_the_service_end(self):
        # Driven from outside a loop, a request may ask at a time before
        # the last grant's service end after that grant's wake-up has
        # fired: it is granted when the service ends, not left queued.
        loop, resource = self._arbiter("fcfs")
        starts = []
        resource.request(0, 0.0, 10.0, starts.append)
        loop.run()
        resource.request(1, 5.0, 2.0, starts.append)
        loop.run()
        assert starts == [0.0, 10.0]
        assert resource.stats[1].wait_ns_total == 5.0
        assert resource.pending == 0

    def test_stats_snapshot_into_fabric_port_stats(self):
        from repro.sim.fabric import FabricPortStats

        loop, resource = self._arbiter("rr")
        resource.request(0, 0.0, 2.0, lambda t: None)
        loop.run()
        snapshot = FabricPortStats.from_client(resource.stats[0])
        assert snapshot.requests == 1
        assert snapshot.busy_ns_total == 2.0
        assert snapshot.wait_ns_mean == 0.0
        assert snapshot.as_dict()["wait_ns_mean"] == 0.0
