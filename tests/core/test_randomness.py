"""Tests for the named random-stream manager."""

from __future__ import annotations

from repro.core.randomness import RandomManager


class TestRandomManager:
    def test_same_seed_same_sequence(self):
        a = RandomManager(seed=7).stream("mac.1")
        b = RandomManager(seed=7).stream("mac.1")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomManager(seed=1).stream("mac.1")
        b = RandomManager(seed=2).stream("mac.1")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        manager = RandomManager(seed=3)
        a = manager.stream("mac.1")
        b = manager.stream("mac.2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        manager = RandomManager(seed=3)
        assert manager.stream("aodv.0") is manager.stream("aodv.0")

    def test_stream_independent_of_request_order(self):
        first = RandomManager(seed=9)
        second = RandomManager(seed=9)
        first.stream("a")
        value_first = first.stream("b").random()
        value_second = second.stream("b").random()
        assert value_first == value_second
