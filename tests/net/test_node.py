"""Tests for node stack wiring and transport demultiplexing."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.mac.timing import timing_for_bandwidth
from repro.net.address import FlowAddress
from repro.net.headers import IpHeader, IpProtocol, TcpHeader, UdpHeader
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.propagation import Position
from repro.routing.aodv import AodvRouting
from repro.routing.static import StaticRouting
from repro.transport.stats import FlowStats
from repro.transport.tcp_base import TransportAgent


class DummyAgent(TransportAgent):
    """Transport agent that records everything delivered to it."""

    def __init__(self, sim, node_id, port):
        flow = FlowAddress(src_node=node_id, src_port=port, dst_node=99, dst_port=1)
        super().__init__(sim=sim, flow=flow, local_node=node_id, local_port=port)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def make_node(sim, channel, randomness, node_id=0, routing="aodv"):
    return Node(
        sim=sim, node_id=node_id, position=Position(0, 0), channel=channel,
        timing=timing_for_bandwidth(2.0), randomness=randomness, routing=routing,
    )


class TestNodeConstruction:
    def test_default_routing_is_aodv(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        assert isinstance(node.routing, AodvRouting)

    def test_static_routing_option(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness, routing="static")
        assert isinstance(node.routing, StaticRouting)

    def test_unknown_routing_rejected(self, sim, channel, randomness):
        with pytest.raises(ConfigurationError):
            make_node(sim, channel, randomness, routing="ospf")

    def test_queue_capacity_matches_paper(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        assert node.queue.capacity == 50

    def test_mac_listener_is_routing(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        assert node.mac.listener is node.routing


class TestAgentRegistration:
    def test_register_wrong_node_rejected(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        agent = DummyAgent(sim, node_id=5, port=6001)
        with pytest.raises(ConfigurationError):
            node.register_agent(agent)

    def test_duplicate_port_rejected(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        node.register_agent(DummyAgent(sim, node_id=0, port=6001))
        with pytest.raises(ConfigurationError):
            node.register_agent(DummyAgent(sim, node_id=0, port=6001))


class TestLocalDelivery:
    def test_tcp_packet_demuxed_by_destination_port(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        agent = DummyAgent(sim, node_id=0, port=6001)
        other = DummyAgent(sim, node_id=0, port=6002)
        node.register_agent(agent)
        node.register_agent(other)
        packet = Packet(
            payload_size=10,
            ip=IpHeader(src=3, dst=0, protocol=IpProtocol.TCP),
            tcp=TcpHeader(src_port=5001, dst_port=6001),
        )
        node.deliver_local(packet)
        assert len(agent.received) == 1
        assert other.received == []

    def test_udp_packet_demuxed(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        agent = DummyAgent(sim, node_id=0, port=7000)
        node.register_agent(agent)
        packet = Packet(
            payload_size=10,
            ip=IpHeader(src=3, dst=0, protocol=IpProtocol.UDP),
            udp=UdpHeader(src_port=1, dst_port=7000),
        )
        node.deliver_local(packet)
        assert len(agent.received) == 1

    def test_packet_for_unbound_port_ignored(self, sim, channel, randomness):
        node = make_node(sim, channel, randomness)
        packet = Packet(
            payload_size=10,
            ip=IpHeader(src=3, dst=0, protocol=IpProtocol.TCP),
            tcp=TcpHeader(src_port=5001, dst_port=4242),
        )
        node.deliver_local(packet)  # must not raise
