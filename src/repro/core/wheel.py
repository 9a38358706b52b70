"""Timer-wheel simulation kernel — the accelerated ``wheel`` backend.

:class:`WheelSimulator` implements the exact public contract of
:class:`repro.core.engine.Simulator` (same methods, same exceptions, same
:class:`~repro.core.engine.Event` handles, bit-identical ``(time, sequence)``
dispatch order) on top of a different internal structure tuned for the
timer-heavy MAC-retry / TCP-retransmit event mix:

* **Near heap** — events inside the currently draining wheel slot live on a
  small binary heap.  Because the slot only spans one ``granularity`` of
  simulated time, this heap stays tiny (the next slice of MAC activity), so
  pushes and pops touch far fewer comparisons than the reference engine's
  single global heap — which also holds every long-lived retransmission
  timer and its tombstones.
* **Timer wheel** — events up to ``bucket_count × granularity`` seconds
  ahead are appended to a ring of per-slot buckets: O(1) insertion with no
  heap comparisons at all.  A whole bucket is migrated onto the near heap in
  one ``heapify`` when the wheel cursor reaches it, which amortises the
  ordering cost over the bucket (heapify runs at C speed) instead of paying
  a per-event ``heappush`` against the full event population.
* **Overflow heap** — events beyond the wheel horizon (long retransmission
  and failure timers, most of which die as cancelled tombstones) overflow to
  a plain heap.  They are pulled into the wheel when it rebases, and
  tombstones among them are discarded wholesale at that point without ever
  being bucketed.

The slot width is *adaptive*: at every wheel rebase the engine re-derives the
granularity from the event density observed since the previous rebase, aiming
for :data:`TARGET_EVENTS_PER_SLOT` events per slot.  Dense timer workloads
get wide slots (near heap absorbs the churn, far timers stay out of the hot
heap); sparse workloads get narrow slots (bucket batching without empty-slot
scans).  The granularity never influences dispatch *order* — only which
internal structure holds an event — so adaptation cannot perturb determinism.

Correctness notes
-----------------
The wheel's slot boundaries are *exact* floats, computed once per rotation
and compared with ``<=`` / ``<`` directly: an event is only ever placed in
the slot whose ``[start, next_start)`` interval contains its timestamp, so
the structural invariant — every near-heap event fires before every wheel
event, which fires before every overflow event — holds under floating-point
rounding.  Multiplication by the inverse granularity is used only as a first
guess for the slot index and is then corrected against the exact boundaries.

Event handles are the engine's :class:`~repro.core.engine.Event` objects so
cancellation semantics (tombstones, idempotent ``cancel``, ``Timer``) are
shared with the reference backend.  Handles are recycled through a free-list
slab: after an event fires, its handle is returned to a bounded pool *only*
when ``sys.getrefcount`` proves no caller retained it — cancelling a stale
handle therefore can never hit a recycled event, preserving the documented
"cancelling an already-fired event is a no-op" contract while eliminating
the per-event object churn for the (dominant) fire-and-forget events.

Selected through the kernel-backend registry::

    ScenarioConfig(kernel_backend="wheel")

and proven equivalent to the reference engine by
``tests/regression/test_backend_equivalence.py`` (byte-identical golden
traces) and ``tests/properties/test_backend_lockstep.py`` (hypothesis
lockstep).
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from math import inf as _inf, isfinite as _isfinite
from typing import Any, Callable, List, Optional

from repro.core.engine import EdgeKeys, Event
from repro.core.errors import ConfigurationError, SchedulingError

#: Initial wheel slot width in simulated seconds (re-tuned adaptively at
#: every rebase).  500 µs sits between the MAC's microsecond timers and the
#: millisecond frame/transport timers.
DEFAULT_GRANULARITY = 500e-6

#: Default number of wheel slots; one rotation spans
#: ``granularity * bucket_count`` seconds before events overflow far.  Wide
#: enough that second-scale retransmission timers land in O(1) buckets
#: (where their tombstones die in one C-speed filter) instead of the
#: overflow heap; empty-slot scans are a cheap list-truthiness check each.
DEFAULT_BUCKET_COUNT = 4096

#: Adaptive-granularity goal: slots sized so one slot migration amortises
#: over roughly this many dispatched events.  Deliberately coarse: the near
#: heap stays small in practice (the pending population at any instant is
#: bounded by in-flight frames and armed timers, not by throughput), so wide
#: slots route most hot-path events straight onto the near heap — one float
#: compare plus a C heappush — while still catching long retransmission
#: timers in O(1) buckets.
TARGET_EVENTS_PER_SLOT = 256.0

#: Clamp range for the adaptive slot width, in simulated seconds.
MIN_GRANULARITY = 20e-6
MAX_GRANULARITY = 50e-3

#: Upper bound on the recycled-handle slab (see module docstring).
_SLAB_CAPACITY = 512

#: ``sys.getrefcount`` result proving an entry's handle is unreachable from
#: caller code: one reference from the entry tuple, one from the local
#: variable in the run loop and one from getrefcount's own argument.  Any
#: caller-retained handle raises the count above this, which vetoes
#: recycling (pinned by tests/core/test_wheel.py).
_UNREFERENCED = 3


class WheelSimulator(EdgeKeys):
    """Drop-in :class:`~repro.core.engine.Simulator` with a timer-wheel core.

    Attributes:
        now: Current simulation time in seconds.

    Args:
        granularity: Initial wheel slot width in simulated seconds (adapted
            at every rebase; see module docstring).
        bucket_count: Number of wheel slots (one rotation spans
            ``granularity * bucket_count`` seconds).
        adaptive: Re-derive the slot width from the observed event density
            at every rebase (disable to pin ``granularity`` for tests).
    """

    def __init__(self, granularity: float = DEFAULT_GRANULARITY,
                 bucket_count: int = DEFAULT_BUCKET_COUNT,
                 adaptive: bool = True) -> None:
        if not (granularity > 0.0 and _isfinite(granularity)):
            raise ConfigurationError(
                f"wheel granularity must be a positive finite number of "
                f"seconds, got {granularity!r}")
        if bucket_count < 2:
            raise ConfigurationError(
                f"wheel bucket_count must be at least 2, got {bucket_count!r}")
        self.now: float = 0.0
        self._granularity = float(granularity)
        self._inverse_granularity = 1.0 / self._granularity
        self._bucket_count = int(bucket_count)
        self._adaptive = bool(adaptive)
        self._sequence: int = 0
        self._events_processed: int = 0
        self.edges_in_place: int = 0
        self._running: bool = False
        self._stop_requested: bool = False
        #: The running call's horizon and handler budget, as claim() sees them.
        self._until: float = _inf
        self._handler_limit: float = _inf
        #: Events with ``time < _near_limit`` — the currently draining slice
        #: of simulated time, kept as a (small) heap of entries.
        self._near: List[tuple] = []
        #: The slot ring; bucket lists are cleared in place and reused, so
        #: the steady state allocates no new buckets.
        self._buckets: List[List[tuple]] = [[] for _ in range(self._bucket_count)]
        #: Exact slot boundaries of the current rotation:
        #: bucket ``i`` covers ``[_starts[i], _starts[i + 1])``.
        self._starts: List[float] = [
            i * self._granularity for i in range(self._bucket_count + 1)
        ]
        #: Index of the first slot not yet migrated to the near heap.
        self._cursor: int = 0
        #: Cached ``_starts[_cursor]`` — the near/wheel routing boundary.
        self._near_limit: float = 0.0
        #: Cached ``_starts[-1]`` — the wheel/overflow routing boundary.
        self._horizon: float = self._starts[-1]
        #: Number of entries (including tombstones) currently bucketed.
        self._occupied: int = 0
        #: Events at or beyond the horizon, as a plain overflow heap.
        self._far: List[tuple] = []
        #: Free-list of recycled, provably unreferenced Event handles.
        self._slab: List[Event] = []
        #: Rebase bookkeeping for the adaptive slot width.
        self._rebase_time: float = 0.0
        self._rebase_processed: int = 0

    # ------------------------------------------------------------------
    # Scheduling API (contract of Simulator.schedule / schedule_at / cancel)
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Same contract as :meth:`repro.core.engine.Simulator.schedule`.
        """
        if delay < 0 or not _isfinite(delay):
            raise SchedulingError(f"invalid delay {delay!r}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        slab = self._slab
        if slab:
            event = slab.pop()
            event.time = time
            event.sequence = sequence
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, sequence, callback, args)
        # Inlined _insert body: schedule() is the hottest call in the
        # simulator, so the routing decision pays no extra function call.
        entry = (time, sequence, callback, args, event)
        if time < self._near_limit:
            heappush(self._near, entry)
        elif time >= self._horizon:
            heappush(self._far, entry)
        else:
            starts = self._starts
            cursor = self._cursor
            last = self._bucket_count - 1
            index = cursor + int((time - starts[cursor]) * self._inverse_granularity)
            if index > last:
                index = last
            while time < starts[index]:
                index -= 1
            while index < last and time >= starts[index + 1]:
                index += 1
            self._buckets[index].append(entry)
            self._occupied += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Same contract as :meth:`repro.core.engine.Simulator.schedule_at`.
        """
        if time < self.now or not _isfinite(time):
            raise SchedulingError(
                f"cannot schedule at {time!r}; current time is {self.now!r}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        self._insert((time, sequence, callback, args, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (tombstone; always safe)."""
        if event is not None:
            event.cancelled = True

    def claim(self, time: float, sequence: int) -> bool:
        """Same contract as :meth:`repro.core.engine.Simulator.claim`.

        Only the near heap is consulted: every bucketed or overflow event
        lies at or beyond ``_near_limit``, so an edge before that boundary is
        next if it beats the near heap's head (tombstone or not).  An edge
        at or beyond it gets "not next" — sending an edge through the queue
        is always exact.
        """
        if (not self._running or self._stop_requested or time > self._until
                or time >= self._near_limit
                or self._events_processed + self.edges_in_place + 1
                >= self._handler_limit):
            return False
        near = self._near
        if near:
            head = near[0]
            if head[0] < time or (head[0] == time and head[1] < sequence):
                return False
        self.now = time
        self.edges_in_place += 1
        return True

    # ------------------------------------------------------------------
    # Internal structure
    # ------------------------------------------------------------------
    def _insert(self, entry: tuple) -> None:
        """Route one entry to the near heap, a wheel bucket or the far heap."""
        time = entry[0]
        if time < self._near_limit:
            heappush(self._near, entry)
            return
        if time >= self._horizon:
            heappush(self._far, entry)
            return
        starts = self._starts
        cursor = self._cursor
        # First guess by multiplication, then correct against the exact
        # boundaries (at most one step in practice; never trusted blindly).
        last = self._bucket_count - 1
        index = cursor + int((time - starts[cursor]) * self._inverse_granularity)
        if index > last:
            index = last
        while time < starts[index]:
            index -= 1
        while index < last and time >= starts[index + 1]:
            index += 1
        self._buckets[index].append(entry)
        self._occupied += 1

    def _advance(self) -> bool:
        """Refill the near heap from the wheel (or rebase from the far heap).

        Returns:
            True when the near heap gained at least one live entry; False
            when no events remain anywhere.
        """
        near = self._near
        while True:
            if self._occupied:
                buckets = self._buckets
                starts = self._starts
                cursor = self._cursor
                count = self._bucket_count
                while cursor < count:
                    bucket = buckets[cursor]
                    cursor += 1
                    if bucket:
                        self._cursor = cursor
                        self._near_limit = starts[cursor]
                        self._occupied -= len(bucket)
                        live = [entry for entry in bucket
                                if not entry[4].cancelled]
                        bucket.clear()
                        if live:
                            if near:
                                near.extend(live)
                            else:
                                near[:] = live
                            heapify(near)
                            return True
                        break  # bucket was all tombstones; keep scanning
                else:
                    # No bucket found despite the occupancy count: re-zero it
                    # so a (hypothetical) accounting drift cannot spin here.
                    self._cursor = count
                    self._near_limit = starts[count]
                    self._occupied = 0
                continue
            if not self._far:
                return False
            self._rebase()

    def _rebase(self) -> None:
        """Re-anchor the wheel at the earliest overflow event, re-tune the
        slot width, and pull every overflow entry inside the new horizon
        into its bucket.

        Cancelled overflow entries are discarded here without ever being
        bucketed — the far heap is where most retransmission-timer
        tombstones die.
        """
        far = self._far
        base = far[0][0]
        if self._adaptive:
            self._retune(base)
        granularity = self._granularity
        self._starts = starts = [
            base + i * granularity for i in range(self._bucket_count + 1)
        ]
        self._cursor = 0
        self._near_limit = base
        self._horizon = horizon = starts[-1]
        while far and far[0][0] < horizon:
            entry = heappop(far)
            if not entry[4].cancelled:
                self._insert(entry)

    def _retune(self, base: float) -> None:
        """Adapt the slot width to the event density since the last rebase.

        Aims for :data:`TARGET_EVENTS_PER_SLOT` dispatches per slot: dense
        workloads widen the slots (one migration amortises over more
        events), sparse workloads narrow them (no empty-slot scans).  Slot
        width only affects which internal structure holds an event, never
        the dispatch order.
        """
        elapsed = base - self._rebase_time
        processed = self._events_processed - self._rebase_processed
        self._rebase_time = base
        self._rebase_processed = self._events_processed
        if elapsed <= 0.0 or processed <= 0:
            return
        density = processed / elapsed
        granularity = TARGET_EVENTS_PER_SLOT / density
        if granularity < MIN_GRANULARITY:
            granularity = MIN_GRANULARITY
        elif granularity > MAX_GRANULARITY:
            granularity = MAX_GRANULARITY
        self._granularity = granularity
        self._inverse_granularity = 1.0 / granularity

    # ------------------------------------------------------------------
    # Execution API (contract of Simulator.run / stop)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation; same contract and same observable clock
        behaviour as :meth:`repro.core.engine.Simulator.run`."""
        processed = 0
        near = self._near
        pop = heappop
        slab = self._slab
        getrefcount = sys.getrefcount
        self._running = True
        self._stop_requested = False
        self._until = _inf if until is None else until
        self._handler_limit = limit = _inf if max_events is None else (
            self._events_processed + self.edges_in_place + max_events)
        try:
            while True:
                if not near:
                    if not self._advance():
                        # Drained: advance the clock to the horizon if given.
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    continue
                if self._stop_requested or (
                        max_events is not None and
                        self._events_processed + self.edges_in_place >= limit):
                    break
                entry = pop(near)
                event = entry[4]
                if event.cancelled:
                    if getrefcount(event) == _UNREFERENCED and len(slab) < _SLAB_CAPACITY:
                        slab.append(event)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    # Pop-then-reinsert beats a per-event peek: the overshoot
                    # happens at most once per run() call.
                    heappush(near, entry)
                    self.now = until
                    break
                self.now = time
                entry[2](*entry[3])
                processed += 1
                self._events_processed += 1
                # Slab recycling: the handle goes back to the free list only
                # when the refcount proves no caller kept it (see module
                # docstring), so stale-handle cancels stay no-ops.
                if getrefcount(event) == _UNREFERENCED and len(slab) < _SLAB_CAPACITY:
                    slab.append(event)
        finally:
            self._running = False
        return processed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Introspection (contract of Simulator.pending_events / events_processed)
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled tombstones)."""
        count = sum(1 for entry in self._near if not entry[4].cancelled)
        count += sum(1 for bucket in self._buckets for entry in bucket
                     if not entry[4].cancelled)
        count += sum(1 for entry in self._far if not entry[4].cancelled)
        return count

    @property
    def events_processed(self) -> int:
        """Total number of events executed over the simulator's lifetime."""
        return self._events_processed

    def reset(self) -> None:
        """Clear the event queue and reset the clock to zero."""
        self._near.clear()
        for bucket in self._buckets:
            bucket.clear()
        self._far.clear()
        self._slab.clear()
        self._starts = [i * self._granularity
                        for i in range(self._bucket_count + 1)]
        self._cursor = 0
        self._near_limit = 0.0
        self._horizon = self._starts[-1]
        self._occupied = 0
        self.now = 0.0
        self._sequence = 0
        self._events_processed = 0
        self.edges_in_place = 0
        self._stop_requested = False
        self._rebase_time = 0.0
        self._rebase_processed = 0
