"""Tests for the DropTail interface queue."""

from __future__ import annotations

import pytest

from repro.mac.queue import DropTailQueue
from repro.net.packet import Packet


class TestDropTailQueue:
    def test_default_capacity_matches_paper(self):
        assert DropTailQueue().capacity == 50

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity=0)

    def test_fifo_order(self):
        queue = DropTailQueue(capacity=5)
        packets = [Packet() for _ in range(3)]
        for packet in packets:
            queue.enqueue(packet)
        assert [queue.dequeue().uid for _ in range(3)] == [p.uid for p in packets]

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_overflow_refuses_the_newest_packet(self):
        queue = DropTailQueue(capacity=2)
        kept = [Packet(), Packet()]
        assert all(queue.enqueue(packet) for packet in kept)
        assert not queue.enqueue(Packet())
        assert len(queue) == 2
        assert [queue.dequeue() for _ in kept] == kept

    def test_is_empty_is_full(self):
        queue = DropTailQueue(capacity=1)
        assert queue.is_empty and not queue.is_full
        queue.enqueue(Packet())
        assert queue.is_full and not queue.is_empty

    def test_enqueue_callback_invoked(self):
        calls = []
        queue = DropTailQueue(capacity=3, on_enqueue=lambda: calls.append(1))
        queue.enqueue(Packet())
        queue.enqueue(Packet())
        assert len(calls) == 2

    def test_callback_not_invoked_on_drop(self):
        calls = []
        queue = DropTailQueue(capacity=1, on_enqueue=lambda: calls.append(1))
        queue.enqueue(Packet())
        queue.enqueue(Packet())
        assert len(calls) == 1
