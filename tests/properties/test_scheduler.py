"""Property-based tests (hypothesis) for the event scheduler.

The fast-path engine must keep the three invariants every protocol layer
relies on: FIFO order among same-time events, a monotonically non-decreasing
clock, and safe cancel/reschedule under arbitrary interleavings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import create_kernel, kernel_backend_names
from repro.core.engine import Event, Simulator, Timer

#: Delays drawn from a small grid so same-time collisions are common — the
#: interesting case for tie-breaking.
_delay_grid = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.0, 3.0])


#: Every scheduler invariant below must hold on every registered kernel
#: backend, not just the reference engine (same public contract).
#: Module-scoped (hypothesis forbids function-scoped fixtures under
#: ``@given``); the factory builds a fresh engine per call, so examples
#: never share state.
@pytest.fixture(scope="module", params=kernel_backend_names())
def make_sim(request):
    backend = request.param
    return lambda: create_kernel(backend)


class TestFifoOrdering:
    @given(st.lists(_delay_grid, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_same_time_events_fire_in_schedule_order(self, make_sim, delays):
        sim = make_sim()
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, fired.append, (delay, index))
        sim.run()
        # Sorting by (time, schedule index) must reproduce the firing order
        # exactly: FIFO among equals, time order overall.
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(_delay_grid, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_event_ordering_matches_explicit_lt(self, make_sim, delays):
        sim = make_sim()
        events = [sim.schedule(delay, lambda: None) for delay in delays]
        for earlier, later in zip(events, events[1:]):
            if earlier.time == later.time:
                assert earlier < later
            else:
                assert (earlier < later) == (earlier.time < later.time)


class TestMonotonicClock:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=50),
           st.lists(st.floats(min_value=0.0, max_value=10.0),
                    min_size=0, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_clock_never_goes_backwards(self, make_sim, delays, nested_delays):
        sim = make_sim()
        observed = []

        def observe():
            observed.append(sim.now)
            for nested in nested_delays:
                sim.schedule(nested, lambda: observed.append(sim.now))

        for delay in delays:
            sim.schedule(delay, observe)
        sim.run()
        assert observed == sorted(observed)

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=1, max_size=30),
           st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=100, deadline=None)
    def test_run_until_leaves_clock_at_horizon_or_last_event(self, make_sim, delays, until):
        sim = make_sim()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run(until=until)
        # Whether the queue drained or later events remain, the clock always
        # lands exactly on the horizon.
        assert sim.now == pytest.approx(until)


class TestCancelRescheduleSafety:
    @given(st.lists(st.tuples(_delay_grid, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_cancelled_events_never_fire_and_others_all_do(self, make_sim, plan):
        sim = make_sim()
        fired = []
        events = []
        for index, (delay, _) in enumerate(plan):
            events.append(sim.schedule(delay, fired.append, index))
        cancelled = {index for index, (_, cancel) in enumerate(plan) if cancel}
        for index in cancelled:
            sim.cancel(events[index])
        sim.run()
        assert set(fired) == set(range(len(plan))) - cancelled
        for index in cancelled:
            assert not events[index].is_pending

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_cancel_from_within_callback_is_safe(self, make_sim, data):
        sim = make_sim()
        fired = []
        victims = [sim.schedule(2.0, fired.append, i) for i in range(10)]
        to_cancel = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                                       max_size=10, unique=True))

        def killer():
            for index in to_cancel:
                sim.cancel(victims[index])

        sim.schedule(1.0, killer)
        sim.run()
        assert sorted(fired) == sorted(set(range(10)) - set(to_cancel))

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_timer_restart_storm_fires_exactly_once(self, make_sim, restarts):
        sim = make_sim()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for delay in restarts:
            timer.start(delay)
        sim.run()
        # However many times the timer was restarted, only the last start
        # fires — tombstoned events stay dead.
        assert fired == [pytest.approx(restarts[-1])]
        assert sim.pending_events == 0

    @given(st.lists(_delay_grid, min_size=1, max_size=40),
           st.integers(min_value=0, max_value=39))
    @settings(max_examples=50, deadline=None)
    def test_pending_events_counts_exclude_tombstones(self, make_sim, delays, cancel_count):
        sim = make_sim()
        events = [sim.schedule(delay, lambda: None) for delay in delays]
        for event in events[:cancel_count]:
            sim.cancel(event)
        live = max(0, len(events) - cancel_count)
        assert sim.pending_events == live
        assert sim.run() == live


class TestEventHandle:
    def test_event_equality_and_hash_follow_time_and_sequence(self, make_sim):
        sim = make_sim()
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(1.0, lambda: None)
        assert a != b
        assert a == Event(a.time, a.sequence, lambda: None)
        assert hash(a) == hash(Event(a.time, a.sequence, lambda: None))

    def test_double_cancel_is_idempotent(self, make_sim):
        sim = make_sim()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.is_pending
        assert sim.run() == 0


class TestEdgeKeys:
    """Reserved ``(time, sequence)`` keys: unit checks on every kernel.  The
    program-level property is in ``test_backend_lockstep.py``."""

    def test_a_reserved_key_fires_where_its_own_event_would(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(1.0, fired.append, "before")
        reserved = sim.reserve_sequences()
        sim.schedule(1.0, fired.append, "after")
        sim.schedule_reserved(1.0, reserved, fired.append, "reserved")
        assert sim.reserve_sequences(3) == 3 and sim.reserve_sequences() == 6
        sim.run()
        assert fired == ["before", "reserved", "after"]

    def test_claim_is_refused_outside_run(self, make_sim):
        sim = make_sim()
        assert not sim.claim(0.0, sim.reserve_sequences())
        assert (sim.now, sim.edges_in_place) == (0.0, 0)

    @pytest.mark.parametrize("rival, claimed", [
        (None, True),               # nothing else pending
        ("later time", True),
        ("same time, later sequence", True),
        ("same time, earlier sequence", False),
        ("earlier time", False),
        ("earlier time, cancelled", False),     # tombstones are run()'s to drop
    ])
    def test_claim_succeeds_only_for_the_strictly_next_key(self, make_sim, rival,
                                                           claimed):
        # Microseconds apart, as signal edges are: a kernel may refuse an
        # edge it cannot place cheaply (the wheel, beyond its current slot)
        # but none may refuse these, and none may ever grant a wrong one.
        sim = make_sim()
        answers = []
        edge_time = 1.0 + 2e-6

        def first():
            if rival and "earlier sequence" in rival:
                sim.schedule_at(edge_time, lambda: None)
            edge = sim.reserve_sequences()
            if rival and "later sequence" in rival:
                sim.schedule_at(edge_time, lambda: None)
            if rival == "later time":
                sim.schedule_at(1.0 + 3e-6, lambda: None)
            if rival and rival.startswith("earlier time"):
                event = sim.schedule_at(1.0 + 1e-6, lambda: None)
                if "cancelled" in rival:
                    sim.cancel(event)
            answers.append((sim.claim(edge_time, edge), sim.now, sim.edges_in_place))

        sim.schedule(1.0, first)
        sim.run(until=3.0)
        assert answers == [(True, edge_time, 1) if claimed else (False, 1.0, 0)]

    def test_claim_respects_stop_and_until(self, make_sim):
        sim = make_sim()
        answers = []

        def beyond_the_horizon():
            answers.append(sim.claim(5.0, sim.reserve_sequences()))

        def stopped():
            sim.stop()
            answers.append(sim.claim(sim.now, sim.reserve_sequences()))

        sim.schedule(1.0, beyond_the_horizon)
        sim.run(until=4.0)
        sim.schedule(0.0, stopped)
        sim.run()
        assert answers == [False, False] and sim.edges_in_place == 0

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=24, deadline=None)
    def test_max_events_counts_edges_run_in_place(self, make_sim, budget):
        sim = make_sim()
        ran = []

        def chain(sequence):
            while True:
                ran.append(sequence)
                sequence += 1
                if sequence == first + 10:
                    return
                if not sim.claim(1.0, sequence):
                    sim.schedule_reserved(1.0, sequence, chain, sequence)
                    return

        first = sim.reserve_sequences(10)
        sim.schedule_reserved(1.0, first, chain, first)
        sim.schedule(2.0, ran.append, "tail")
        sim.run(max_events=budget)
        assert len(ran) == min(budget, 11)
        assert sim.events_processed + sim.edges_in_place == len(ran)
        sim.run()
        assert ran == list(range(10)) + ["tail"]

    def test_reset_clears_the_edge_counter(self, make_sim):
        sim = make_sim()
        sim.schedule(0.0, lambda: sim.claim(0.0, sim.reserve_sequences()))
        sim.run()
        assert sim.edges_in_place == 1
        sim.reset()
        assert (sim.edges_in_place, sim.reserve_sequences()) == (0, 0)
