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
had.  After one edge has run, the next runs in place when its key is inside
the run's horizon (``_in_place_until``: the ``until`` of the running
:meth:`~Simulator.run`, minus infinity once :meth:`~Simulator.stop` was
called or while nothing runs) and strictly before the key of ``_queue[0]``,
tombstones included; the caller then sets ``now``, ``now_sequence`` and
``edges_in_place`` itself and runs the edge.  Every other edge goes through
the queue under its reserved key (:meth:`~Simulator.schedule_reserved`).
Handler order is the same either way, and so is the clock after every
:meth:`~Simulator.run`.  The channel's chain loops are the one caller.

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
        edges_in_place: Edges run in place so far (see *Edge keys*), so
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
        # The latest key time an edge may run in place at (see *Edge keys*):
        # -inf while nothing runs and once stop() was called.
        self._in_place_until: float = -_inf

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

    # ------------------------------------------------------------------
    # Execution API
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Run the simulation.

        Args:
            until: Stop once the next event's time exceeds this value.  The
                clock is advanced to ``until`` when the horizon is reached.

        Returns:
            The number of events dispatched from the queue during this call.
        """
        started = self._events_processed
        queue = self._queue
        pop = heapq.heappop
        horizon = _inf if until is None else until
        self._stop_requested = False
        self._in_place_until = horizon
        try:
            while queue:
                if self._stop_requested:
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
            self._in_place_until = -_inf
        return self._events_processed - started

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True
        self._in_place_until = -_inf

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
        """Clear the event queue and reset the clock to zero.

        Every queued entry is cancelled first, so a handle kept from before
        (a :class:`Timer`'s among them) reads as spent.
        """
        for entry in self._queue:
            entry[2] = None
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
        """True if the timer is armed and has not fired or been cancelled
        (by :meth:`cancel` or the simulator's :meth:`~Simulator.reset`)."""
        entry = self._entry
        return entry is not None and entry[2] is not None
