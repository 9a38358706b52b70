"""Tests for the routing table."""

from __future__ import annotations

import pytest

from repro.routing.table import RouteEntry, RoutingTable


def entry(destination=5, next_hop=2, hop_count=3, seq=1, expiry=100.0, valid=True):
    return RouteEntry(destination=destination, next_hop=next_hop, hop_count=hop_count,
                      destination_seq=seq, expiry_time=expiry, valid=valid)


class TestRouteEntry:
    def test_usable_when_valid_and_fresh(self):
        assert entry().is_usable(now=10.0)

    def test_not_usable_when_expired(self):
        assert not entry(expiry=5.0).is_usable(now=10.0)

    def test_not_usable_when_invalid(self):
        assert not entry(valid=False).is_usable(now=1.0)

    def test_entry_is_slotted(self):
        # A city-scale run holds one entry per node and destination heard of.
        assert not hasattr(entry(), "__dict__")
        with pytest.raises(AttributeError):
            entry().next_hopp = 3


class TestRoutingTable:
    def test_lookup_returns_usable_entry(self):
        table = RoutingTable()
        table.upsert(entry(destination=7))
        assert table.lookup(7, now=1.0).next_hop == 2

    def test_lookup_missing_returns_none(self):
        assert RoutingTable().lookup(3, now=0.0) is None

    def test_lookup_expired_returns_none(self):
        table = RoutingTable()
        table.upsert(entry(destination=7, expiry=1.0))
        assert table.lookup(7, now=2.0) is None
        assert table.get(7) is not None  # still in the table, just stale

    def test_upsert_replaces(self):
        table = RoutingTable()
        table.upsert(entry(destination=7, next_hop=2))
        table.upsert(entry(destination=7, next_hop=4))
        assert table.lookup(7, now=0.0).next_hop == 4
        assert len(table) == 1

    def test_invalidate(self):
        table = RoutingTable()
        table.upsert(entry(destination=7))
        table.invalidate(7)
        assert table.lookup(7, now=0.0) is None

    def test_invalidate_next_hop_affects_all_routes_via_it(self):
        table = RoutingTable()
        table.upsert(entry(destination=7, next_hop=2))
        table.upsert(entry(destination=8, next_hop=2))
        table.upsert(entry(destination=9, next_hop=3))
        affected = table.invalidate_next_hop(2)
        assert sorted(e.destination for e in affected) == [7, 8]
        assert table.lookup(9, now=0.0) is not None

    def test_routes_via(self):
        table = RoutingTable()
        table.upsert(entry(destination=7, next_hop=2))
        table.upsert(entry(destination=8, next_hop=3))
        assert [e.destination for e in table.routes_via(2)] == [7]

    def test_remove_and_destinations(self):
        table = RoutingTable()
        table.upsert(entry(destination=7))
        table.upsert(entry(destination=8))
        table.remove(7)
        assert table.destinations() == [8]

    def test_iteration(self):
        table = RoutingTable()
        table.upsert(entry(destination=1))
        table.upsert(entry(destination=2))
        assert len(list(table)) == 2
