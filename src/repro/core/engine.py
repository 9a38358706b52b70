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

* Heap entries are plain tuples ``(time, sequence, callback, args, event)``.
  The unique, monotonically increasing ``sequence`` breaks time ties at
  C speed (tuple comparison never reaches the callback), which both pins the
  FIFO-among-equals ordering explicitly and avoids a Python-level ``__lt__``
  call per heap comparison.
* :class:`Event` is a ``__slots__`` handle used only for cancellation and
  introspection; the run loop reads the callback straight out of the tuple.
* Cancellation is a tombstone: the event is flagged and skipped when it
  reaches the top of the heap, so ``cancel`` is O(1).

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
:meth:`~Simulator.run`.
"""

from __future__ import annotations

import heapq
from math import inf as _inf, isfinite as _isfinite
from typing import Any, Callable, List, Optional, Tuple

from repro.core.errors import SchedulingError

#: Heap entry layout: (time, sequence, callback, args, event-handle).
_Entry = Tuple[float, int, Callable[..., None], tuple, "Event"]


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, sequence)`` where ``sequence`` is a
    monotonically increasing insertion counter; this makes event ordering
    deterministic even when two events share the same timestamp.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        """Explicit ``(time, sequence)`` ordering (FIFO among same-time events)."""
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.sequence == other.sequence

    def __hash__(self) -> int:
        return hash((self.time, self.sequence))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, seq={self.sequence}{state})"

    def cancel(self) -> None:
        """Mark this event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    @property
    def is_pending(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled


class Simulator:
    """Event-list discrete-event simulator.

    Attributes:
        now: Current simulation time in seconds.
        edges_in_place: Handlers run through :meth:`claim` so far, so
            ``events_processed + edges_in_place`` is the number of handlers
            invoked, whichever way each one got its turn.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[_Entry] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self.edges_in_place: int = 0
        self._running: bool = False
        self._stop_requested: bool = False
        # The running call's horizon and handler budget, as claim() sees them.
        self._until: float = _inf
        self._handler_limit: float = _inf

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative delay in seconds relative to the current time.
            callback: Callable invoked when the event fires.
            *args: Positional arguments passed to the callback.

        Returns:
            The scheduled :class:`Event`, which may be cancelled later.

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
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, callback, args, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
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
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._queue, (time, sequence, callback, args, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event.

        Cancelling ``None`` or an already-cancelled event is a no-op, which
        lets protocol code unconditionally cancel its timer handles.  The
        event stays in the heap as a tombstone and is discarded when popped.
        """
        if event is not None:
            event.cancelled = True

    # ------------------------------------------------------------------
    # Edge keys (see the module docstring)
    # ------------------------------------------------------------------
    def reserve_sequences(self, count: int = 1) -> int:
        """Take the next ``count`` sequence numbers; return the first."""
        first = self._sequence
        self._sequence = first + count
        return first

    def schedule_reserved(self, time: float, sequence: int,
                          callback: Callable[..., None], *args: Any) -> Event:
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
        if (not self._running or self._stop_requested or time > self._until
                or self._events_processed + self.edges_in_place + 1
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
                place (safety valve for tests).

        Returns:
            The number of events dispatched from the queue during this call.
        """
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        self._running = True
        self._stop_requested = False
        self._until = _inf if until is None else until
        self._handler_limit = limit = _inf if max_events is None else (
            self._events_processed + self.edges_in_place + max_events)
        try:
            while queue:
                if self._stop_requested:
                    break
                if (max_events is not None and
                        self._events_processed + self.edges_in_place >= limit):
                    break
                entry = queue[0]
                if entry[4].cancelled:
                    pop(queue)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    break
                pop(queue)
                self.now = time
                entry[2](*entry[3])
                processed += 1
                self._events_processed += 1
            else:
                # Queue drained: advance the clock to the horizon if given.
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return processed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled tombstones)."""
        return sum(1 for entry in self._queue if not entry[4].cancelled)

    @property
    def events_processed(self) -> int:
        """Total number of events executed over the simulator's lifetime."""
        return self._events_processed

    def reset(self) -> None:
        """Clear the event queue and reset the clock to zero."""
        self._queue.clear()
        self.now = 0.0
        self._sequence = 0
        self._events_processed = 0
        self.edges_in_place = 0
        self._stop_requested = False


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Protocol code frequently needs "(re)start this timeout, cancel it when the
    awaited thing happens".  ``Timer`` wraps that pattern so the owner does not
    have to track raw :class:`Event` handles.
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    def start(self, delay: float) -> None:
        """Start (or restart) the timer to fire ``delay`` seconds from now."""
        event = self._event
        if event is not None:
            event.cancelled = True
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Cancel the timer if it is pending."""
        event = self._event
        if event is not None:
            event.cancelled = True
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()

    @property
    def is_pending(self) -> bool:
        """True if the timer is armed and has not fired or been cancelled."""
        event = self._event
        return event is not None and not event.cancelled

    @property
    def expiry_time(self) -> Optional[float]:
        """Absolute time at which the timer will fire, or None if idle."""
        event = self._event
        if event is not None and not event.cancelled:
            return event.time
        return None
