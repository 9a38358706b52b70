"""Tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest

from repro.core.engine import Simulator, Timer
from repro.core.errors import SchedulingError

from tests.helpers import run_in_place


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run()
        assert order == ["early", "late", "latest"]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.25]

    def test_schedule_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_nonfinite_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_in_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_schedule_zero_delay_runs(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, True)
        sim.run()
        assert fired == [True]

    def test_nested_scheduling_from_callback(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == pytest.approx(2.0)

    def test_callback_arguments_passed(self, sim):
        results = []
        sim.schedule(0.1, lambda a, b: results.append(a + b), 2, 3)
        sim.run()
        assert results == [5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)  # must not raise

    def test_cancel_twice_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.run() == 0

    def test_pending_events_excludes_cancelled(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(2.0, fired.append, "drop")
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert sim.run() == 1 and fired == ["keep"]

    def test_the_handle_is_the_queued_entry(self, sim):
        late = sim.schedule(2.0, lambda: None)
        assert sim._queue[0] is late
        early = sim.schedule_at(1.0, lambda: None)
        assert sim._queue[0] is early
        edge = sim.schedule_reserved(0.5, sim.reserve_sequences(), lambda: None)
        assert sim._queue[0] is edge and len(sim._queue) == 3

    def test_a_cancelled_entry_stays_queued_as_a_tombstone(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        assert sim._queue == [handle] and handle[2] is None
        assert sim.pending_events == 0
        assert sim.run() == 0 and not sim._queue


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)

    def test_run_until_then_continue(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_with_empty_queue_advances_to_horizon(self, sim):
        sim.run(until=3.0)
        assert sim.now == pytest.approx(3.0)

    def test_stop_from_callback(self, sim):
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "after")
        assert sim.run() == 1
        assert fired == ["stop"] and sim.now == 1.0
        # The rest runs on the next call.
        assert sim.run() == 1
        assert fired == ["stop", "after"]

    @staticmethod
    def _stop_and_cancel(sim, live_at=None):
        """Run to a handler that calls ``stop()`` and cancels everything
        else, leaving only tombstones queued (at, before and beyond the
        horizon used below) plus, if ``live_at`` is given, one live event."""
        cancelled = []

        def stopper():
            sim.stop()
            for event in cancelled:
                sim.cancel(event)

        sim.schedule(1.0, stopper)
        cancelled.extend(sim.schedule(delay, lambda: None)
                         for delay in (1.0, 3.0, 5.0, 9.0))
        if live_at is not None:
            sim.schedule(live_at, lambda: None)
        assert sim.run() == 1 and sim.now == 1.0

    def test_run_until_after_stop_over_tombstones_lands_on_the_horizon(self, make_sim):
        sim = make_sim()
        self._stop_and_cancel(sim)
        assert sim.pending_events == 0
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0

    def test_run_until_after_stop_leaves_a_later_live_event_pending(self, make_sim):
        sim = make_sim()
        self._stop_and_cancel(sim, live_at=7.0)
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0
        assert sim.pending_events == 1
        assert sim.run() == 1 and sim.now == 7.0

    def test_events_processed_counter(self, sim):
        for _ in range(3):
            sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_reset_clears_state(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0

    def test_returns_number_processed(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        assert sim.run() == 5

    def test_a_handle_from_before_reset_cancels_nothing_after_it(self, sim):
        stale = sim.schedule(1.0, lambda: None)
        sim.reset()
        fired = []
        fresh = sim.schedule(1.0, fired.append, "fresh")
        # Same (time, sequence) key, but a different entry ...
        assert fresh[:2] == stale[:2] and fresh is not stale
        sim.cancel(stale)
        # ... so only the stale one is a tombstone.
        assert sim.pending_events == 1
        assert sim.run() == 1 and fired == ["fresh"]


class TestRunContract:
    """The run contract, on each kernel of ``tests.helpers.KERNELS``."""

    def test_run_until_reinserts_overshot_event(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        assert sim.run(until=1.0) == 0
        assert sim.now == 1.0
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["late"]

    def test_run_until_drained_advances_clock(self, make_sim):
        sim = make_sim()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        sim.run(until=9.0)
        assert sim.now == 9.0

    def test_reset_clears_everything(self, make_sim):
        sim = make_sim()
        sim.schedule(0.5, lambda: None)
        sim.schedule(2.5, lambda: None)
        sim.schedule(10.0, lambda: None)
        sim.run(until=1.0)
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.events_processed == 0
        fired = []
        sim.schedule(0.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]

    def test_now_sequence_is_the_running_handlers_key(self, make_sim):
        """``(now, now_sequence)`` is the key of the handler running, queued
        or run in place; after ``stop()`` the stopping handler's; past
        every key at that time once the clock reaches a horizon or the queue
        runs dry."""
        sim = make_sim()
        seen = []

        def note():
            seen.append((sim.now, sim.now_sequence))

        first = sim.schedule(1.0, note)
        edge = sim.reserve_sequences()

        def note_and_run_in_place():
            note()
            if run_in_place(sim, 2.0, edge):
                note()

        second = sim.schedule(1.5, note_and_run_in_place)
        stopper = sim.schedule(3.0, sim.stop)
        last = sim.schedule(3.0, note)
        sim.schedule(7.0, note)
        sim.run()
        assert seen == [(1.0, first[1]), (1.5, second[1]), (2.0, edge)]
        assert (sim.now, sim.now_sequence) == (3.0, stopper[1])
        sim.run(until=5.0)
        assert seen[-1] == (3.0, last[1])
        assert (sim.now, sim.now_sequence) == (5.0, math.inf)
        sim.run()
        assert (sim.now, sim.now_sequence) == (7.0, math.inf)
        sim.reset()
        assert sim.now_sequence == -1

    def test_dispatch_order_spans_time_scales(self, make_sim):
        """Microseconds to minutes, scheduled out of order: dispatch follows
        (time, schedule order) alone."""
        sim = make_sim()
        delays = [240.0, 5.0, 3e-5, 0.2, 7e-4, 0.0, 5.0, 3e-5, 7e-4]
        log = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, log.append, (delay, index))
        sim.run()
        assert log == sorted(log)
        assert sim.now == 240.0

    def test_cancelling_a_fired_event_is_a_no_op(self, make_sim):
        sim = make_sim()
        kept = sim.schedule(0.1, lambda: None)
        sim.run()
        fired = []
        sim.schedule(0.0, fired.append, "live")
        sim.cancel(kept)
        assert sim.run() == 1 and fired == ["live"]

    def test_far_tombstones_neither_fire_nor_hold_the_clock(self, make_sim):
        sim = make_sim()
        victims = [sim.schedule(100.0 + i, lambda: None) for i in range(10)]
        keeper = []
        sim.schedule(120.0, keeper.append, "far")
        for victim in victims:
            sim.cancel(victim)
        assert sim.run() == 1
        assert keeper == ["far"] and sim.now == 120.0
        assert sim.pending_events == 0

    def test_an_event_cancelled_by_the_handler_that_scheduled_it_never_fires(
            self, make_sim):
        sim = make_sim()
        fired = []

        def plant():
            sim.cancel(sim.schedule(0.0, fired.append, "victim"))
            sim.schedule(0.0, fired.append, "sibling")

        sim.schedule(0.1, plant)
        assert sim.run() == 2
        assert fired == ["sibling"]

    @pytest.mark.parametrize("delay", [-1.0, -1e-9, float("nan"), float("inf"),
                                       float("-inf")])
    def test_invalid_delays_rejected(self, make_sim, delay):
        sim = make_sim()
        with pytest.raises(SchedulingError):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("time", [-0.5, float("nan"), float("inf"),
                                      float("-inf")])
    def test_invalid_absolute_times_rejected(self, make_sim, time):
        sim = make_sim()
        with pytest.raises(SchedulingError):
            sim.schedule_at(time, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_reserved(time, sim.reserve_sequences(), lambda: None)
        assert sim.pending_events == 0
        # A refused reserved key gives back nothing but the sequence it took.
        assert sim.reserve_sequences() == 1


class TestTimer:
    def test_timer_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.5)
        sim.run()
        assert fired == [2.5]

    def test_timer_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(True))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_timer_restart_supersedes_previous(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_timer_is_pending_lifecycle(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.is_pending
        timer.start(1.0)
        assert timer.is_pending
        sim.run()
        assert not timer.is_pending

    def test_timer_restart_leaves_one_live_entry_and_one_tombstone(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.start(3.0)
        assert len(sim._queue) == 2
        assert [entry[2] is None for entry in sorted(sim._queue)] == [True, False]
        assert sim.pending_events == 1

    def test_reset_leaves_no_timer_pending(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.reset()
        assert not timer.is_pending
        timer.start(1.0)
        assert timer.is_pending
        assert len(sim._queue) == 1 and sim.pending_events == 1

    def test_timer_can_be_restarted_after_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]


class TestTieBreaking:
    """Same-time events must fire in schedule order (explicit sequence counter)."""

    def test_many_same_time_events_fire_in_schedule_order(self, sim):
        order = []
        for index in range(50):
            sim.schedule(1.0, order.append, index)
        sim.run()
        assert order == list(range(50))

    def test_interleaved_times_still_fifo_within_each_timestamp(self, sim):
        order = []
        for index in range(10):
            sim.schedule(2.0, order.append, ("late", index))
            sim.schedule(1.0, order.append, ("early", index))
        sim.run()
        assert order == [("early", i) for i in range(10)] + \
                        [("late", i) for i in range(10)]

    def test_fifo_survives_cancellations_in_between(self, sim):
        order = []
        events = [sim.schedule(1.0, order.append, index) for index in range(10)]
        for index in (0, 3, 4, 8):
            sim.cancel(events[index])
        sim.run()
        assert order == [1, 2, 5, 6, 7, 9]

    def test_zero_delay_event_scheduled_mid_run_respects_fifo(self, sim):
        order = []

        def spawner():
            order.append("spawner")
            sim.schedule(0.0, order.append, "child")

        sim.schedule(1.0, spawner)
        sim.schedule(1.0, order.append, "sibling")
        sim.run()
        # The child is scheduled after the sibling, so it fires last even
        # though all three share t=1.0.
        assert order == ["spawner", "sibling", "child"]
