"""Tests for the UDP agents (pacing: ``tests/app/test_apps.py``)."""

from __future__ import annotations

from repro.net.address import FlowAddress
from repro.transport.stats import FlowStats
from repro.transport.udp import UdpSender, UdpSink

FLOW = FlowAddress(src_node=0, src_port=5001, dst_node=1, dst_port=6001)


def make_pair(sim, payload=1460):
    stats = FlowStats(flow_id=1, batch_size=10)
    sender = UdpSender(sim, FLOW, stats, payload_size=payload)
    sink = UdpSink(sim, FLOW, stats)
    sender.attach(lambda packet: sink.receive(packet))
    sink.attach(lambda packet: None)
    return sender, sink, stats


class TestUdpAgents:
    def test_datagram_carries_sequence_and_payload(self, sim):
        sender, sink, stats = make_pair(sim, payload=500)
        sender.send_datagram()
        sender.send_datagram()
        assert sender.datagrams_sent == 2
        assert stats.packets_sent == 2
        assert sink.received == 2
        assert stats.bytes_delivered == 1000

    def test_sink_records_goodput(self, sim):
        sender, sink, stats = make_pair(sim)
        sender.send_datagram()
        assert stats.packets_delivered == 1
        assert stats.bytes_delivered == 1460

    def test_sender_ignores_incoming_traffic(self, sim):
        sender, sink, stats = make_pair(sim)
        sender.receive(object())  # must not raise
