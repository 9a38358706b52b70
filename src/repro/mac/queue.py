"""The interface (link-layer) queue between routing and the MAC.

The paper uses a 50-packet DropTail buffer at every node and explicitly reports
that no buffer overflow occurs in its scenarios; the queue still implements the
drop so that the invariant can be *checked* rather than assumed.  The queue
keeps no counters of its own: its callers (routing, and a gateway's wired
side) count a refused packet as ``route.node<N>.packets_dropped_queue_full``,
and the metrics plane samples occupancy as ``mac.node<N>.queue_len``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.net.packet import Packet


class DropTailQueue:
    """Fixed-capacity FIFO packet queue with tail drop.

    Args:
        capacity: Maximum number of queued packets (the paper uses 50).
        on_enqueue: Optional callback invoked after a successful enqueue,
            used by the MAC to wake up when new work arrives.
    """

    DEFAULT_CAPACITY = 50

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        on_enqueue: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self.on_enqueue = on_enqueue
        self._queue: Deque[Packet] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_empty(self) -> bool:
        """True if no packets are waiting."""
        return not self._queue

    @property
    def is_full(self) -> bool:
        """True if the queue is at capacity."""
        return len(self._queue) >= self.capacity

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; returns False (and drops it) when full."""
        if self.is_full:
            return False
        self._queue.append(packet)
        if self.on_enqueue is not None:
            self.on_enqueue()
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop and return the head packet, or None if empty."""
        if not self._queue:
            return None
        return self._queue.popleft()
