"""``MetricsRegistry.snapshot()`` against sorting every (name, value) pair.

``snapshot()`` fills its result from the sorted names instead of sorting a
list of pairs; it must give exactly what ``dict(sorted(registry._scalars()))``
gives — the same keys in the same order with the same value types — and peak
below it.
"""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.metrics import MetricsRegistry, StatsRecord


class Drops(StatsRecord):
    __slots__ = {"drops": "Frames dropped.", "rts_tx": "RTS frames sent."}


class Airtime(Drops):
    __slots__ = {"busy_time": "Seconds the medium was busy."}


def reference(registry):
    return dict(sorted(registry._scalars()))


def assert_matches_reference(registry):
    snapshot = registry.snapshot()
    expected = reference(registry)
    assert list(snapshot.items()) == list(expected.items())
    assert [type(value) for value in snapshot.values()] == \
        [type(value) for value in expected.values()]
    return snapshot


class TestSameAsSortedPairs:
    def test_nested_prefixes_interleave_by_full_name(self):
        registry = MetricsRegistry()
        for prefix in ("a.b", "a", "a-b", "a.b0", "a0", "a.b.c"):
            Drops(registry, prefix=prefix).drops = len(prefix)
        registry.set("a.b.drops0", 1)
        registry.set("a.a", 0.0)
        snapshot = assert_matches_reference(registry)
        assert list(snapshot)[:4] == ["a-b.drops", "a-b.rts_tx", "a.a", "a.b.c.drops"]

    def test_prefix_re_registered_by_a_later_record(self):
        registry = MetricsRegistry()
        Drops(registry, prefix="phy.node1").drops = 5
        Airtime(registry, prefix="mac.node1").busy_time = 0.25
        later = Airtime(registry, prefix="phy.node1")
        later.busy_time = 1.5
        snapshot = assert_matches_reference(registry)
        assert snapshot["phy.node1.drops"] == 0
        assert type(snapshot["phy.node1.busy_time"]) is float
        assert type(snapshot["phy.node1.rts_tx"]) is int

    def test_set_values_keep_their_types(self):
        registry = MetricsRegistry()
        Airtime(registry, prefix="phy.node0")
        registry.set("phy.node0.energy_joules", 0)
        registry.set("core.events_processed", 0.0)
        registry.set("core.edges_in_place", 7)
        snapshot = assert_matches_reference(registry)
        assert type(snapshot["phy.node0.energy_joules"]) is int
        assert type(snapshot["core.events_processed"]) is float

    def test_a_value_set_under_a_field_name(self):
        registry = MetricsRegistry()
        record = Drops(registry, prefix="mac.node0")
        record.drops = 3
        record.rts_tx = 2
        registry.set("mac.node0.drops", 1)      # smaller: the field's stands
        registry.set("mac.node0.rts_tx", 2.0)   # a tie: the set one stands
        snapshot = assert_matches_reference(registry)
        assert snapshot == {"mac.node0.drops": 3, "mac.node0.rts_tx": 2.0}
        assert type(snapshot["mac.node0.rts_tx"]) is float

    def test_an_empty_registry(self):
        assert assert_matches_reference(MetricsRegistry()) == {}

    @given(prefixes=st.lists(st.text("ab.-0", min_size=1, max_size=4), max_size=8),
           values=st.dictionaries(st.text("abdrops.-_0", min_size=1, max_size=9),
                                  st.one_of(st.integers(0, 3), st.sampled_from([0.0, 2.0, 2.5])),
                                  max_size=8),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_registry(self, prefixes, values, data):
        registry = MetricsRegistry()
        for prefix in prefixes:
            record = data.draw(st.sampled_from([Drops, Airtime]))(registry, prefix=prefix)
            record.drops = data.draw(st.integers(0, 3))
        for name, value in values.items():
            registry.set(name, value)
        assert_matches_reference(registry)


def test_snapshot_peaks_below_sorting_the_pairs():
    registry = MetricsRegistry()
    for node in range(10_000):
        record = Airtime(registry, prefix=f"mac.node{node}")
        record.drops = node
    registry.set("core.events_processed", 12)
    assert len(reference(registry)) >= 30_000

    def traced_peak(harvest):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            harvest()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert traced_peak(registry.snapshot) < traced_peak(lambda: reference(registry))
