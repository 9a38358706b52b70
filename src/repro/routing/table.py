"""Routing table shared by the routing protocol implementations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass(slots=True)
class RouteEntry:
    """One destination's routing state (slotted: a city-scale run holds one
    per node and destination it has heard of).

    Attributes:
        destination: Destination node id.
        next_hop: Next hop towards the destination.
        hop_count: Number of hops to the destination.
        destination_seq: Last known destination sequence number (AODV).
        expiry_time: Absolute simulation time at which the route becomes stale.
        valid: False once invalidated by a link failure or RERR.
    """

    destination: int
    next_hop: int
    hop_count: int
    destination_seq: int = 0
    expiry_time: float = float("inf")
    valid: bool = True

    def is_usable(self, now: float) -> bool:
        """True if the route is valid and not expired."""
        return self.valid and now < self.expiry_time


class RoutingTable:
    """Mapping from destination to :class:`RouteEntry`."""

    def __init__(self) -> None:
        self._entries: Dict[int, RouteEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self._entries.values())

    def lookup(self, destination: int, now: float) -> Optional[RouteEntry]:
        """Return a usable route to ``destination`` or None."""
        entry = self._entries.get(destination)
        if entry is not None and entry.is_usable(now):
            return entry
        return None

    def get(self, destination: int) -> Optional[RouteEntry]:
        """Return the entry for ``destination`` regardless of validity."""
        return self._entries.get(destination)

    def upsert(self, entry: RouteEntry) -> None:
        """Insert or replace the entry for its destination."""
        self._entries[entry.destination] = entry

    def invalidate(self, destination: int) -> Optional[RouteEntry]:
        """Mark the route to ``destination`` invalid; returns the entry."""
        entry = self._entries.get(destination)
        if entry is not None:
            entry.valid = False
        return entry

    def remove(self, destination: int) -> None:
        """Delete the entry for ``destination`` if present."""
        self._entries.pop(destination, None)

    def invalidate_next_hop(self, next_hop: int) -> List[RouteEntry]:
        """Invalidate every valid route using ``next_hop``; returns them."""
        affected = []
        for entry in self._entries.values():
            if entry.valid and entry.next_hop == next_hop:
                entry.valid = False
                affected.append(entry)
        return affected

    def routes_via(self, next_hop: int) -> List[RouteEntry]:
        """All valid routes whose next hop is ``next_hop``."""
        return [e for e in self._entries.values() if e.valid and e.next_hop == next_hop]

    def destinations(self) -> List[int]:
        """All destinations with a table entry (valid or not)."""
        return list(self._entries)
