"""Tests for the FTP and CBR applications."""

from __future__ import annotations

import pytest

from repro.app.cbr import CbrApplication
from repro.app.ftp import FtpApplication
from repro.net.address import FlowAddress
from repro.transport.stats import FlowStats
from repro.transport.udp import UdpSender
from tests.helpers import build_newreno_pair

FLOW = FlowAddress(src_node=0, src_port=5001, dst_node=1, dst_port=6001)


class TestFtpApplication:
    def test_starts_sender_at_start_time(self, sim):
        sender, sink, stats, net = build_newreno_pair(sim, data_limit=10)
        app = FtpApplication(sim, sender, start_time=1.0)
        app.schedule_start()
        sim.run(until=0.5)
        assert not sender.started
        sim.run(until=10.0)
        assert sender.started
        assert sink.delivered_packets == 10

    def test_started_flag(self, sim):
        sender, sink, stats, net = build_newreno_pair(sim, data_limit=5)
        app = FtpApplication(sim, sender, start_time=0.0)
        app.schedule_start()
        assert not app.started
        sim.run(until=1.0)
        assert app.started

    def test_stop_stops_sender(self, sim):
        sender, sink, stats, net = build_newreno_pair(sim, data_limit=10_000)
        app = FtpApplication(sim, sender, start_time=0.0)
        app.schedule_start()
        sim.run(until=1.0)
        app.stop()
        assert not sender.started

    def test_double_start_is_idempotent(self, sim):
        sender, sink, stats, net = build_newreno_pair(sim, data_limit=5)
        app = FtpApplication(sim, sender, start_time=0.0)
        app.schedule_start()
        app.schedule_start()
        sim.run(until=5.0)
        assert sink.delivered_packets == 5


class TestCbrApplication:
    def _make(self, sim, interval=0.02, start_time=0.0, packet_limit=None):
        stats = FlowStats(flow_id=1, batch_size=10)
        received = []
        sender = UdpSender(sim, FLOW, stats)
        sender.attach(received.append)
        app = CbrApplication(sim, sender, interval=interval, start_time=start_time,
                             packet_limit=packet_limit)
        return app, sender, received

    def test_generates_at_configured_interval(self, sim):
        app, sender, received = self._make(sim, interval=0.05)
        app.schedule_start()
        sim.run(until=1.0)
        assert 18 <= len(received) <= 21

    def test_interval_property(self, sim):
        app, _, _ = self._make(sim, interval=0.037)
        assert app.interval == pytest.approx(0.037)

    def test_packet_limit(self, sim):
        app, sender, received = self._make(sim, interval=0.01, packet_limit=5)
        app.schedule_start()
        sim.run(until=1.0)
        assert len(received) == 5

    def test_stop(self, sim):
        app, sender, received = self._make(sim, interval=0.01)
        app.schedule_start()
        sim.run(until=0.1)
        app.stop()
        count = len(received)
        sim.run(until=0.5)
        assert len(received) <= count + 1

    def test_rejects_nonpositive_interval(self, sim):
        with pytest.raises(ValueError):
            self._make(sim, interval=0.0)

    def test_datagrams_are_spaced_by_the_interval(self, sim):
        app, sender, received = self._make(sim, interval=0.01, start_time=0.2)
        app.schedule_start()
        sim.run(until=0.25)
        times = [packet.created_at for packet in received]
        assert times[0] == pytest.approx(0.2)
        assert [b - a for a, b in zip(times, times[1:])] == pytest.approx(
            [0.01] * (len(times) - 1))

    def test_packet_limit_ends_the_pacing_loop(self, sim):
        app, sender, received = self._make(sim, interval=0.01, packet_limit=3)
        app.schedule_start()
        sim.run(until=1.0)
        # The tick after the third datagram stops pacing: nothing is left queued.
        assert sim.pending_events == 0
        assert len(received) == 3

    def test_start_time_honoured(self, sim):
        app, sender, received = self._make(sim, interval=0.01, start_time=0.5)
        app.schedule_start()
        sim.run(until=0.4)
        assert sender.datagrams_sent == 0
        sim.run(until=1.0)
        assert received[0].created_at == pytest.approx(0.5)

    def test_start_now_overrides_a_later_start_time(self, sim):
        # A timeline flow-start: the first datagram leaves at the event.
        app, sender, received = self._make(sim, interval=0.01, start_time=5.0)
        sim.schedule(0.3, app.start_now)
        sim.run(until=0.35)
        assert received[0].created_at == pytest.approx(0.3)
        assert 5 <= len(received) <= 6

    def test_double_start_is_idempotent(self, sim):
        app, sender, received = self._make(sim, interval=0.01)
        app.schedule_start()
        app.schedule_start()
        sim.schedule(0.05, app.start_now)
        sim.run(until=0.1)
        assert sender.datagrams_sent <= 11
