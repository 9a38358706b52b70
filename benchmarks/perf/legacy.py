"""The pre-optimisation simulation kernel, kept as a benchmark baseline.

``LegacySimulator``/``LegacyEvent`` are a faithful copy of the engine as it
stood before the fast-path rework: an ``order=True`` dataclass per event (heap
comparisons go through a generated Python ``__lt__``) and per-iteration
attribute chasing in the run loop.  ``legacy_kernel()`` additionally restores
the old ``copy.copy``-based ``Packet.copy``.

Benchmarks run the same workload against this kernel and the current one in
the same process, so the reported speedup is machine-independent.  The
emulation is conservative: parts of the current stack that cannot be swapped
back (e.g. the channel's cached delivery lists, slotted headers) stay fast in
legacy mode, so the measured speedup *understates* the true improvement over
the pre-optimisation tree.  The channel's signal edges are one of them: the
legacy kernel answers every ``claim`` with "not next", which is always exact,
so each edge takes the trip through its event list that it used to.
"""

from __future__ import annotations

import copy
import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.core.engine import EdgeKeys
from repro.core.errors import SchedulingError
from repro.net.packet import Packet


@dataclass(order=True)
class LegacyEvent:
    """Pre-optimisation event: an ``order=True`` dataclass."""

    time: float
    sequence: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def is_pending(self) -> bool:
        return not self.cancelled


class LegacySimulator(EdgeKeys):
    """Pre-optimisation event-list simulator (same public API as Simulator)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[LegacyEvent] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self.edges_in_place: int = 0
        self._running: bool = False
        self._stop_requested: bool = False

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> LegacyEvent:
        if delay < 0 or not math.isfinite(delay):
            raise SchedulingError(f"invalid delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> LegacyEvent:
        if time < self.now or not math.isfinite(time):
            raise SchedulingError(
                f"cannot schedule at {time!r}; current time is {self.now!r}"
            )
        event = LegacyEvent(time=time, sequence=self._sequence, callback=callback, args=args)
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Optional[LegacyEvent]) -> None:
        if event is not None:
            event.cancel()

    def claim(self, time: float, sequence: int) -> bool:
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        processed = 0
        self._running = True
        self._stop_requested = False
        try:
            while self._queue:
                if self._stop_requested:
                    break
                if max_events is not None and processed >= max_events:
                    break
                event = self._queue[0]
                if event.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and event.time > until:
                    self.now = until
                    break
                heapq.heappop(self._queue)
                self.now = event.time
                event.callback(*event.args)
                processed += 1
                self._events_processed += 1
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return processed

    def stop(self) -> None:
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def reset(self) -> None:
        self._queue.clear()
        self.now = 0.0
        self._sequence = 0
        self._events_processed = 0
        self._stop_requested = False


def _legacy_packet_copy(self: Packet) -> Packet:
    """Pre-optimisation ``Packet.copy``: per-header ``copy.copy`` calls."""
    aodv = None
    if self.aodv is not None:
        aodv = copy.copy(self.aodv)
        aodv.unreachable = list(self.aodv.unreachable)
    return Packet(
        payload_size=self.payload_size,
        uid=self.uid,
        flow_id=self.flow_id,
        created_at=self.created_at,
        mac=copy.copy(self.mac) if self.mac is not None else None,
        ip=copy.copy(self.ip) if self.ip is not None else None,
        tcp=copy.copy(self.tcp) if self.tcp is not None else None,
        udp=copy.copy(self.udp) if self.udp is not None else None,
        aodv=aodv,
    )


@contextmanager
def legacy_kernel() -> Iterator[None]:
    """Swap the pre-optimisation engine and packet copy into the stack.

    Re-registers the ``reference`` kernel backend (every scenario resolves
    its engine through :mod:`repro.core.backends`) with the embedded
    pre-optimisation simulator, and patches ``Packet.copy``.  Restores both
    on exit.
    """
    from repro.core.backends import (KernelBackendProfile,
                                     get_kernel_backend,
                                     register_kernel_backend)

    original_profile = get_kernel_backend("reference")
    original_copy = Packet.copy
    register_kernel_backend(KernelBackendProfile(
        name="reference",
        factory=LegacySimulator,
        description="embedded pre-optimisation kernel (benchmark baseline)",
    ), replace=True)
    Packet.copy = _legacy_packet_copy  # type: ignore[method-assign]
    try:
        yield
    finally:
        register_kernel_backend(original_profile, replace=True)
        Packet.copy = original_copy  # type: ignore[method-assign]
