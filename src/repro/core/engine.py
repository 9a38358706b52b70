"""Discrete-event simulation engine.

The engine is a classic event-list simulator: callbacks are scheduled at
absolute simulation times and executed in time order.  Ties are broken by
insertion order so that the simulation is fully deterministic for a given
seed and scenario.

Typical use::

    sim = Simulator()
    sim.schedule(0.5, my_callback, arg1, arg2)
    sim.run(until=10.0)

Components hold a reference to the simulator and use :meth:`Simulator.schedule`
/ :meth:`Simulator.cancel` for their timers.  The engine itself knows nothing
about networks; it only orders callbacks in time.

Performance notes
-----------------
This module is the hottest code in the simulator, so it deliberately trades a
little purity for speed:

* A heap entry is a plain list ``[time, sequence, callback, args]``, and
  that list is also the handle :meth:`~Simulator.schedule` returns: one
  object per scheduled call.  The unique, monotonically increasing
  ``sequence`` breaks time ties at C speed (list comparison never reaches
  the callback), which both pins the FIFO-among-equals ordering explicitly
  and avoids a Python-level ``__lt__`` call per heap comparison.
* Cancellation is a tombstone: ``cancel`` clears the entry's callback slot,
  and an entry with no callback is dropped, unrun, when it reaches the top
  of the heap, so ``cancel`` is O(1).

Edge keys
---------
A component that knows a whole series of its own future callbacks (the
channel's per-receiver signal edges) can skip the heap without changing the
order anything runs in.  It *reserves* each callback's sequence number where
it would have called ``schedule`` (:meth:`~Simulator.reserve_sequences`), so
every edge owns exactly the ``(time, sequence)`` key its own event would have
had.  After one edge has run it asks :meth:`~Simulator.claim` for the next:
the simulator says yes — and moves the clock — only when that key is strictly
smaller than every queued event's (tombstones included), the run has not been
stopped and neither the ``until`` horizon nor the ``max_events`` budget is
passed; the caller then runs the edge in place.  Otherwise the edge goes
through the queue under its reserved key (:meth:`~Simulator.schedule_reserved`).
Handler order is the same either way, and so is the clock after every
:meth:`~Simulator.run`.  A caller asking once per edge may make ``claim``'s
common case itself — ``time <= _claim_until``, ``_handler_limit is None``
and the key before ``_queue[0]``'s — then set ``now``, ``now_sequence`` and
``edges_in_place`` as ``claim`` does, and leave every other edge to
``claim``; the channel's chain loops do.

A reserved key need not become a handler at all.  An edge nobody but its
owner would notice (the radio's *owed* signal ends) keeps its reserved key, so
every other key is unchanged, and is settled by its owner the next time a
handler keyed after it touches the owner.  ``(now, now_sequence)`` is the key
of the handler running, or of the last one run, wherever it came from; once
the clock moves to a horizon or the queue runs dry ``now_sequence`` is
infinite, past every key at that time.  The owner settles what is keyed
before it.
"""

from __future__ import annotations

import heapq
from math import inf as _inf, isfinite as _isfinite
from typing import Any, Callable, List, Optional

from repro.core.errors import SchedulingError

#: Heap entry and handle: [time, sequence, callback or None, args].
_Entry = List[Any]


class Simulator:
    """Event-list discrete-event simulator.

    Attributes:
        now: Current simulation time in seconds.
        edges_in_place: Handlers run through :meth:`claim` so far, so
            ``events_processed + edges_in_place`` is the number of handlers
            invoked, whichever way each one got its turn.
        now_sequence: Sequence half of the running (or last) handler's key;
            ``inf`` once the clock has moved past it to a horizon or the queue
            ran dry, ``-1`` before anything ran.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.now_sequence: float = -1
        self._queue: List[_Entry] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self.edges_in_place: int = 0
        self._stop_requested: bool = False
        # What claim() sees of the running call: the latest time it may move
        # the clock to (-inf while nothing runs and once stop() was called),
        # and the handler budget (None without max_events).
        self._claim_until: float = -_inf
        self._handler_limit: Optional[int] = None

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> _Entry:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative delay in seconds relative to the current time.
            callback: Callable invoked when the event fires.
            *args: Positional arguments passed to the callback.

        Returns:
            The queued entry, a handle for :meth:`cancel`.

        Raises:
            SchedulingError: If ``delay`` is negative or not finite.
        """
        if delay < 0 or not _isfinite(delay):
            raise SchedulingError(f"invalid delay {delay!r}")
        # Inlined schedule_at body: `now + delay` is always a valid time here,
        # so the past/finite re-check would be redundant work on the hot path.
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = [time, sequence, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> _Entry:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Raises:
            SchedulingError: If ``time`` lies in the past or is not finite.
        """
        if time < self.now or not _isfinite(time):
            raise SchedulingError(
                f"cannot schedule at {time!r}; current time is {self.now!r}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = [time, sequence, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: Optional[_Entry]) -> None:
        """Cancel a previously scheduled call.

        Cancelling ``None``, a cancelled entry or one that already ran is a
        no-op, which lets protocol code unconditionally cancel its timer
        handles.  The entry stays in the heap as a tombstone (its callback
        cleared) and is discarded when popped.
        """
        if entry is not None:
            entry[2] = None

    # ------------------------------------------------------------------
    # Edge keys (see the module docstring)
    # ------------------------------------------------------------------
    def reserve_sequences(self, count: int = 1) -> int:
        """Take the next ``count`` sequence numbers; return the first."""
        first = self._sequence
        self._sequence = first + count
        return first

    def schedule_reserved(self, time: float, sequence: int,
                          callback: Callable[..., None], *args: Any) -> _Entry:
        """:meth:`schedule_at` under a sequence from :meth:`reserve_sequences`."""
        upcoming = self._sequence
        self._sequence = sequence
        try:
            return self.schedule_at(time, callback, *args)
        finally:
            self._sequence = upcoming

    def claim(self, time: float, sequence: int) -> bool:
        """Move the clock to ``time`` if the edge ``(time, sequence)`` is next.

        True means the run loop would have popped exactly this key now, so
        the caller runs the edge in place; False means it must go through
        :meth:`schedule_reserved`.  Only a handler at the top of its dispatch
        (nothing left to do at the current time) may ask.
        """
        if time > self._claim_until or (
                self._handler_limit is not None
                and self._events_processed + self.edges_in_place + 1
                >= self._handler_limit):
            return False
        queue = self._queue
        if queue:
            # A cancelled head counts too: the run loop is the one place
            # tombstones are dropped, so run() sees the queue it always did.
            head = queue[0]
            if head[0] < time or (head[0] == time and head[1] < sequence):
                return False
        self.now = time
        self.now_sequence = sequence
        self.edges_in_place += 1
        return True

    # ------------------------------------------------------------------
    # Execution API
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Args:
            until: Stop once the next event's time exceeds this value.  The
                clock is advanced to ``until`` when the horizon is reached.
            max_events: Stop after this many handlers, counting edges run in
                place (safety valve for tests).  An owed signal end is not a
                handler: it settles when its radio is next touched, so it
                neither counts here nor moves the clock.

        Returns:
            The number of events dispatched from the queue during this call.
        """
        started = self._events_processed
        queue = self._queue
        pop = heapq.heappop
        horizon = _inf if until is None else until
        self._stop_requested = False
        self._claim_until = horizon
        self._handler_limit = limit = None if max_events is None else (
            self._events_processed + self.edges_in_place + max_events)
        try:
            while queue:
                if self._stop_requested:
                    break
                if (limit is not None and
                        self._events_processed + self.edges_in_place >= limit):
                    break
                entry = queue[0]
                callback = entry[2]
                if callback is None:
                    pop(queue)
                    continue
                time = entry[0]
                if time > horizon:
                    self.now = horizon
                    self.now_sequence = _inf
                    break
                pop(queue)
                self.now = time
                self.now_sequence = entry[1]
                callback(*entry[3])
                self._events_processed += 1
            else:
                # Queue drained: advance the clock to the horizon if given.
                if until is not None and until > self.now:
                    self.now = until
                self.now_sequence = _inf
        finally:
            self._claim_until = -_inf
        return self._events_processed - started

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True
        self._claim_until = -_inf

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled tombstones)."""
        return sum(1 for entry in self._queue if entry[2] is not None)

    @property
    def events_processed(self) -> int:
        """Total number of events executed over the simulator's lifetime."""
        return self._events_processed

    def reset(self) -> None:
        """Clear the event queue and reset the clock to zero."""
        self._queue.clear()
        self.now = 0.0
        self.now_sequence = -1
        self._sequence = 0
        self._events_processed = 0
        self.edges_in_place = 0
        self._stop_requested = False


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Protocol code frequently needs "(re)start this timeout, cancel it when the
    awaited thing happens".  ``Timer`` wraps that pattern so the owner does not
    have to track raw queue entries.
    """

    __slots__ = ("_sim", "_callback", "_entry")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._entry: Optional[_Entry] = None

    def start(self, delay: float) -> None:
        """Start (or restart) the timer to fire ``delay`` seconds from now."""
        entry = self._entry
        if entry is not None:
            entry[2] = None
        self._entry = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Cancel the timer if it is pending."""
        entry = self._entry
        if entry is not None:
            entry[2] = None
            self._entry = None

    def _fire(self) -> None:
        self._entry = None
        self._callback()

    @property
    def is_pending(self) -> bool:
        """True if the timer is armed and has not fired or been cancelled."""
        return self._entry is not None
