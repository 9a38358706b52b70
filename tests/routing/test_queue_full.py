"""A full interface queue is counted by the routing agent that fed it.

The queue keeps no counters of its own; ``route.node<N>.
packets_dropped_queue_full`` is the one count of its overflow, on a
wireless node under either routing protocol and on a gateway's wired side.
"""

from __future__ import annotations

import pytest

from repro.experiments.workload import FlowSpec
from repro.mac.queue import DropTailQueue
from tests.link.test_gateway_nodes import backbone_scenario
from tests.routing.test_aodv import RecordingAgent, build_aodv_chain, make_udp_packet
from tests.routing.test_static import build_static_chain

EXTRA = 3


def fill_then_overflow(node, queue, destination):
    """Send until ``queue`` is full, then ``EXTRA`` more; return the drops
    counted for those last ``EXTRA`` sends."""
    for _ in range(DropTailQueue.DEFAULT_CAPACITY + 1):
        if queue.is_full:
            break
        node.send_from_transport(make_udp_packet(node.node_id, destination))
    assert queue.is_full
    before = node.routing.stats.packets_dropped_queue_full
    for _ in range(EXTRA):
        node.send_from_transport(make_udp_packet(node.node_id, destination))
    assert len(queue) == queue.capacity
    return node.routing.stats.packets_dropped_queue_full - before


def test_static_routing_counts_a_full_interface_queue(sim):
    nodes = build_static_chain(sim, hops=1)
    assert fill_then_overflow(nodes[0], nodes[0].queue, 1) == EXTRA


def test_aodv_counts_a_full_interface_queue(sim):
    nodes = build_aodv_chain(sim, hops=1)
    agent = RecordingAgent(1)
    nodes[1].register_agent(agent)
    nodes[0].send_from_transport(make_udp_packet(0, 1))
    sim.run(until=2.0)
    assert len(agent.received) == 1  # the route is up
    assert fill_then_overflow(nodes[0], nodes[0].queue, 1) == EXTRA


@pytest.mark.parametrize("routing", ["static", "aodv"])
def test_a_gateway_counts_a_full_wired_queue(routing):
    # AODV stays inside a subnet, so its run gets an in-cell flow.
    flows = [FlowSpec(source=2, destination=4)] if routing == "aodv" else None
    scenario = backbone_scenario(routing=routing, flows=flows)
    gateway, peer = scenario.nodes[0], scenario.nodes[1]
    assert gateway.routing._wired_hop_for(peer.node_id) == peer.node_id
    wired_queue = gateway.wired_port.queue
    assert fill_then_overflow(gateway, wired_queue, peer.node_id) == EXTRA
    assert not gateway.queue.is_full  # the radio side took none of it
