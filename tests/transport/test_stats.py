"""Tests for per-flow transport statistics."""

from __future__ import annotations

import pytest

from repro.transport.stats import FlowStats


class TestFlowStats:
    def test_delivery_accounting(self):
        stats = FlowStats(flow_id=1, batch_size=10)
        stats.record_delivery(now=1.0, payload_bytes=1460)
        stats.record_delivery(now=2.0, payload_bytes=2920, packets=2)
        assert stats.packets_delivered == 3
        assert stats.bytes_delivered == 4380
        assert stats.first_delivery_time == 1.0
        assert stats.last_delivery_time == 2.0

    def test_goodput_bps(self):
        stats = FlowStats(flow_id=1)
        stats.record_delivery(now=1.0, payload_bytes=1250)
        assert stats.goodput_bps(now=11.0, warmup=1.0) == pytest.approx(1000.0)

    def test_goodput_zero_duration(self):
        stats = FlowStats(flow_id=1)
        assert stats.goodput_bps(now=0.0) == 0.0

    def test_retransmissions_per_delivered_packet(self):
        stats = FlowStats(flow_id=1)
        stats.retransmissions = 5
        assert stats.retransmissions_per_delivered_packet() == 0.0
        stats.record_delivery(now=1.0, payload_bytes=1460, packets=50)
        assert stats.retransmissions_per_delivered_packet() == pytest.approx(0.1)

    def test_window_average_is_time_weighted(self):
        stats = FlowStats(flow_id=1)
        stats.record_window(0.0, 2.0)
        stats.record_window(8.0, 10.0)
        assert stats.average_window(now=10.0) == pytest.approx((2 * 8 + 10 * 2) / 10)

    def test_batch_goodput_constant_rate(self):
        stats = FlowStats(flow_id=1, batch_size=5)
        for i in range(1, 26):
            stats.record_delivery(now=i * 1.0, payload_bytes=1000)
        interval = stats.batch_goodput()
        assert interval.mean == pytest.approx(1000.0, rel=1e-6)

    def test_completed_batches(self):
        stats = FlowStats(flow_id=1, batch_size=4)
        for i in range(1, 13):
            stats.record_delivery(now=float(i), payload_bytes=100)
        assert stats.completed_batches == 3
