"""Hypothesis lockstep properties: reference vs. accelerated backends.

Each property drives the ``reference`` engine and every other registered
kernel backend with the *identical* schedule/cancel/reschedule sequence and
asserts the observable behaviour is indistinguishable: same dispatch order
(times, payloads, ``(time, sequence)`` tie-breaking), same return values
from :meth:`run`, same clock and same post-run engine state
(``pending_events`` / ``events_processed``).

``TestEdgeKeys`` holds every kernel's reserved-key primitive (``reserve_
sequences`` / ``claim`` / ``schedule_reserved``) to an oracle — the same
kernel scheduling each edge as an event of its own.

The strategies are biased toward the wheel's structural boundaries: equal
timestamps (FIFO tie-breaking), delays spanning microseconds to minutes
(near heap / wheel bucket / overflow-heap routing and rebase), zero-delay
self-scheduling, cancel-then-reschedule patterns, and cancellations issued
from inside callbacks.  Divergence on any drawn program is a backend bug by
definition — the reference engine *is* the specification.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import create_kernel, kernel_backend_names

#: The backends checked against ``reference`` (every registered engine).
ACCELERATED = [name for name in kernel_backend_names() if name != "reference"]

#: Delay values biased toward collisions (repeats) and toward the wheel's
#: routing boundaries: sub-slot, in-slot, multi-slot and beyond-horizon.
_delays = st.sampled_from(
    [0.0, 0.0, 1e-6, 5e-5, 5e-4, 5e-4, 1e-2, 0.5, 1.0, 1.0, 2.5, 30.0, 300.0]
)

#: One top-level scheduling program: (delay, cancel_flag) pairs; flagged
#: entries are cancelled before the run starts.
_programs = st.lists(st.tuples(_delays, st.booleans()), min_size=1, max_size=80)


def _pairs(other_backend):
    """A fresh (reference, other) engine pair."""
    return create_kernel("reference"), create_kernel(other_backend)


@pytest.mark.parametrize("backend", ACCELERATED)
class TestLockstep:
    @given(program=_programs)
    @settings(max_examples=120, deadline=None)
    def test_identical_pop_order_and_state(self, backend, program):
        """Same program → same dispatch log, clock and post-run state."""
        logs = []
        for sim in _pairs(backend):
            log = []
            events = []
            for index, (delay, _) in enumerate(program):
                events.append(
                    sim.schedule(delay, lambda s=sim, i=index: log.append((s.now, i))))
            for event, (_, cancel) in zip(events, program):
                if cancel:
                    sim.cancel(event)
            processed = sim.run()
            logs.append((log, processed, sim.now,
                         sim.pending_events, sim.events_processed))
        assert logs[0] == logs[1]

    @given(count=st.integers(min_value=1, max_value=50),
           delay=_delays)
    @settings(max_examples=60, deadline=None)
    def test_equal_timestamps_fifo(self, backend, count, delay):
        """Events at the exact same timestamp pop in schedule order on
        every backend (the ``(time, sequence)`` tie-break)."""
        orders = []
        for sim in _pairs(backend):
            fired = []
            for index in range(count):
                sim.schedule(delay, fired.append, index)
            sim.run()
            orders.append(fired)
        assert orders[0] == list(range(count))
        assert orders[0] == orders[1]

    @given(program=st.lists(st.tuples(_delays, _delays), min_size=1,
                            max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_cancel_then_reschedule(self, backend, program):
        """Cancel-then-reschedule chains behave identically: only the final
        incarnation of each logical timer fires, at the same instant."""
        logs = []
        for sim in _pairs(backend):
            log = []
            for index, (first, second) in enumerate(program):
                event = sim.schedule(first, log.append, (index, "stale"))
                sim.cancel(event)
                sim.schedule(second, lambda s=sim, i=index: log.append((i, s.now)))
            processed = sim.run()
            logs.append((log, processed, sim.now))
        assert logs[0] == logs[1]
        assert all(entry[1] != "stale" for entry in logs[0][0])

    @given(depth=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_zero_delay_self_scheduling(self, backend, depth):
        """A callback rescheduling itself at zero delay runs ``depth`` times
        at an unchanged clock, in the same order on both backends."""
        logs = []
        for sim in _pairs(backend):
            log = []

            def tick(remaining):
                log.append((sim.now, remaining))
                if remaining > 1:
                    sim.schedule(0.0, tick, remaining - 1)

            sim.schedule(0.0, tick, depth)
            processed = sim.run()
            logs.append((log, processed, sim.now, sim.pending_events))
        assert logs[0] == logs[1]
        assert len(logs[0][0]) == depth
        assert all(now == 0.0 for now, _ in logs[0][0])

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reactive_interleavings(self, backend, seed):
        """Callbacks that schedule, retain handles and cancel other pending
        events — driven by the same seeded RNG on both backends — produce
        the identical trace.  This is the adversarial case for the wheel's
        handle-recycling slab: a divergence here would mean a recycled
        handle aliased a live event."""
        logs = []
        for sim in _pairs(backend):
            rng = random.Random(seed)
            log = []
            handles = []

            def react(tag):
                log.append((round(sim.now, 9), tag))
                roll = rng.random()
                if roll < 0.6:
                    handle = sim.schedule(
                        rng.choice([0.0, 1e-5, 7e-4, 0.3, 2.0, 60.0]),
                        react, rng.randrange(1_000_000))
                    if rng.random() < 0.5:
                        handles.append(handle)
                if handles and rng.random() < 0.35:
                    sim.cancel(handles.pop(rng.randrange(len(handles))))

            for index in range(40):
                handle = sim.schedule(rng.choice([1e-4, 0.05, 1.0, 20.0]),
                                      react, index)
                if rng.random() < 0.4:
                    handles.append(handle)
            processed = sim.run(max_events=3000)
            logs.append((log, processed, round(sim.now, 9),
                         sim.pending_events, sim.events_processed))
        assert logs[0] == logs[1]

    @given(until=st.floats(min_value=0.0, max_value=40.0),
           program=_programs)
    @settings(max_examples=60, deadline=None)
    def test_run_until_horizon_parity(self, backend, until, program):
        """``run(until=...)`` stops at the same point, leaves the same clock
        and dispatches the remaining events identically on a later run."""
        logs = []
        for sim in _pairs(backend):
            log = []
            for index, (delay, _) in enumerate(program):
                sim.schedule(delay, lambda s=sim, i=index: log.append((s.now, i)))
            first = sim.run(until=until)
            mid = (sim.now, sim.pending_events, list(log))
            second = sim.run()
            logs.append((first, mid, second, sim.now, log))
        assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# Edge keys against one-event-per-edge
# ----------------------------------------------------------------------
def _run_edge_program(sim, seed, in_place):
    """A seeded reactive program with bursts of edges; returns its record.

    A burst is what a transmission is to the channel: a handful of callbacks
    a few microseconds apart whose sequence numbers are taken when the burst
    starts.  With ``in_place`` false each is an ordinary event (the oracle);
    with it true they form a chain in key order, only the head queued, each
    next edge claimed or queued under its reserved key.  Every handler draws
    from the same RNG, so one handler out of order derails the whole log.
    """
    rng = random.Random(seed)
    log = []
    handles = []

    def react(tag):
        log.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.45:
            handle = sim.schedule(rng.choice([0.0, 1e-6, 2e-6, 3e-4, 0.02, 1.5, 40.0]),
                                  react, rng.randrange(1_000_000))
            if rng.random() < 0.5:
                handles.append(handle)
        elif roll < 0.6:
            burst(rng.randrange(1_000_000))
        elif roll < 0.63:
            sim.stop()
        if handles and rng.random() < 0.3:
            sim.cancel(handles.pop(rng.randrange(len(handles))))

    def burst(tag):
        delays = [rng.choice([0.0, 1e-6, 1e-6, 2e-6, 3e-6, 6e-4])
                  for _ in range(rng.randrange(1, 9))]
        if not in_place:
            for index, delay in enumerate(delays):
                sim.schedule(delay, react, (tag, index))
            return
        first = sim.reserve_sequences(len(delays))
        keys = sorted((sim.now + delay, first + index)
                      for index, delay in enumerate(delays))
        sim.schedule_reserved(*keys[0], chain, keys, 0, (tag, first))

    def chain(keys, position, burst_id):
        tag, first = burst_id
        while True:
            react((tag, keys[position][1] - first))
            position += 1
            if position == len(keys):
                return
            if not sim.claim(*keys[position]):
                sim.schedule_reserved(*keys[position], chain, keys, position, burst_id)
                return

    for index in range(12):
        sim.schedule(rng.choice([0.0, 1e-6, 5e-4, 0.3, 2.0]), react, index)
    checkpoints = []
    driver = random.Random(seed ^ 0x5EED)
    for _ in range(30):
        mode = driver.random()
        if mode < 0.4:
            sim.run(until=sim.now + driver.choice([0.0, 1e-6, 4e-6, 1e-3, 0.7, 5.0]))
        elif mode < 0.8:
            sim.run(max_events=driver.randrange(1, 40))
        else:
            sim.run(max_events=400)
        checkpoints.append((len(log), sim.now,
                            sim.events_processed + sim.edges_in_place))
    return log, checkpoints, sim.edges_in_place


@pytest.mark.parametrize("backend", kernel_backend_names())
class TestEdgeKeys:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_edges_in_place_match_one_event_per_edge(self, backend, seed):
        """Same ``(time, tag)`` handler log, same clock and same handler count
        after every ``run(until=...)`` / ``run(max_events=...)`` / ``stop()``,
        whether an edge took the queue or not."""
        oracle = create_kernel(backend)
        expected_log, expected_checkpoints, _ = _run_edge_program(
            oracle, seed, in_place=False)
        assert oracle.edges_in_place == 0
        log, checkpoints, _ = _run_edge_program(
            create_kernel(backend), seed, in_place=True)
        assert log == expected_log
        assert checkpoints == expected_checkpoints
        # Handler order is also the reference kernel's.  (Clocks are held to
        # the same kernel's oracle only: where run() leaves the clock once
        # nothing but tombstones is queued is each kernel's own business.)
        assert log == _run_edge_program(
            create_kernel("reference"), seed, in_place=False)[0]

    def test_the_programs_do_run_edges_in_place(self, backend):
        """The property above is not vacuous: over a few seeds most edges
        skip the queue on every kernel."""
        in_place = handlers = 0
        for seed in range(20):
            log, _, edges = _run_edge_program(create_kernel(backend), seed,
                                              in_place=True)
            in_place += edges
            handlers += len(log)
        assert in_place > handlers // 10
