"""Gateway and heterogeneous-scenario behaviour tests.

Covers the edge cases of the wired/wireless split: unknown-subnet packets at
a gateway, wireless route breaks (AODV RERR) leaving the wired spine
untouched, scripted ``link-down`` on a wired segment, and pure-wired AODV.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import build_named_scenario
from repro.experiments.workload import FlowSpec, ScenarioEvent, ScenarioSpec
from repro.link.gateway import GatewayStaticRouting
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.link.wired import WiredPort
from repro.mac.queue import DropTailQueue
from repro.net.headers import IpHeader, IpProtocol, UdpHeader
from repro.net.packet import Packet
from repro.routing.base import RoutingProtocol
from repro.topology import (
    Topology,
    backbone_tail,
    backbone_topology,
    chain_topology,
)
from tests.helpers import wired_only


def make_udp_packet(src, dst, seq=0):
    return Packet(
        payload_size=100,
        ip=IpHeader(src=src, dst=dst, protocol=IpProtocol.UDP),
        udp=UdpHeader(src_port=1, dst_port=9, seq=seq),
    )


def backbone_scenario(routing="static", flows=None, timeline=(),
                      **config_overrides):
    topology = backbone_topology(cells=2, cell_hops=3)
    defaults = dict(variant="newreno", routing=routing, packet_target=400,
                    max_sim_time=30.0, seed=7)
    defaults.update(config_overrides)
    spec = ScenarioSpec(name="backbone-test", topology=topology,
                        workload=flows, config=ScenarioConfig(**defaults),
                        timeline=tuple(timeline))
    return Scenario(spec)


class TestGatewayConstruction:
    def test_runner_builds_gateways_with_wired_ports(self):
        scenario = backbone_scenario()
        for gateway_id in (0, 1):
            gateway = scenario.nodes[gateway_id]
            assert gateway.radio is not None
            assert isinstance(gateway.routing, GatewayStaticRouting)
            assert isinstance(gateway.wired_port, WiredPort)
            # Both interfaces, each with its own queue and listener.
            assert gateway.mac.listener is gateway.routing
            assert gateway.wired_port.listener is gateway.routing.wired_listener
            assert gateway.wired_port.queue is not gateway.queue
        # Cell members are ordinary single-radio wireless nodes.
        member = scenario.nodes[2]
        assert member.radio is not None
        assert member.mac is not None and member.wired_port is None
        assert scenario.buses[0].node_ids == [0, 1]

    @pytest.mark.parametrize("build", [
        lambda: backbone_scenario(),
        lambda: backbone_scenario(routing="aodv",
                                  flows=[FlowSpec(source=2, destination=4)]),
        lambda: Scenario(stub_network_spec([])),
        lambda: Scenario(wired_chain_spec([])),
    ], ids=["backbone-static", "backbone-aodv", "stub", "all-wired"])
    def test_every_node_builds_one_routing_agent(self, build, monkeypatch):
        built = Counter()
        original = RoutingProtocol.__init__

        def counting(self, sim, node_id, *args, **kwargs):
            built[node_id] += 1
            original(self, sim, node_id, *args, **kwargs)

        monkeypatch.setattr(RoutingProtocol, "__init__", counting)
        scenario = build()
        assert built == Counter(dict.fromkeys(scenario.nodes, 1))

    @pytest.mark.parametrize("build, order", [
        (lambda: backbone_scenario(), [0, 1]),
        (lambda: Scenario(ScenarioSpec(
            topology=backbone_topology(cells=3, cell_hops=2),
            config=ScenarioConfig(routing="static"))), [0, 1, 2]),
        (lambda: Scenario(stub_network_spec([])), [0, 1]),
        (lambda: Scenario(wired_chain_spec([])), [0, 1, 2]),
    ], ids=["backbone", "backbone3", "stub", "all-wired"])
    def test_bus_ports_register_in_node_id_order(self, build, order):
        # Wired-only nodes, then gateways: node-id order on these plans.
        (bus,) = build().buses
        assert bus.node_ids == order

    def test_every_interface_queue_has_the_default_capacity(self):
        # No config knob: radio and wired queues, gateways' included, hold 50.
        scenario = backbone_scenario()
        queues = [node.queue for node in scenario.nodes.values()]
        queues += [scenario.nodes[g].wired_port.queue for g in (0, 1)]
        assert {queue.capacity for queue in queues} == {DropTailQueue.DEFAULT_CAPACITY}

    def test_gateway_wired_table_routes_remote_subnets(self):
        scenario = backbone_scenario()
        table = scenario.nodes[0].routing.wired_next_hops
        assert table[1] == 1                      # peer gateway, direct
        for remote in (5, 6, 7):                  # cell-1 members via gateway 1
            assert table[remote] == 1
        assert 2 not in table                     # own subnet stays wireless


class TestUnknownSubnet:
    def test_gateway_drops_and_counts_unknown_subnet_packet(self):
        scenario = backbone_scenario()
        gateway = scenario.nodes[0].routing
        scenario.nodes[0].send_from_transport(make_udp_packet(0, 999))
        scenario.sim.run(until=1.0)
        assert gateway.stats.unknown_subnet_drops == 1
        assert scenario.metrics.snapshot()["route.node0.unknown_subnet_drops"] == 1

    def test_transit_packet_to_unknown_subnet_reaches_gateway_and_drops(self):
        scenario = backbone_scenario()
        # Node 4 is cell 0's tail; its default route points at gateway 0.
        scenario.nodes[4].send_from_transport(make_udp_packet(4, 999))
        scenario.sim.run(until=5.0)
        gateway = scenario.nodes[0].routing
        assert gateway.stats.unknown_subnet_drops == 1
        assert gateway.stats.packets_dropped_no_route == 1


class TestWirelessBreakLeavesWiredUp:
    def test_rerr_propagates_while_wired_flow_keeps_delivering(self):
        tail0 = backbone_tail(2, 3, 0)  # node 4
        flows = [
            # Intra-cell AODV flow across cell 0's chain.
            FlowSpec(source=2, destination=tail0, variant="newreno"),
            # Gateway-to-gateway flow riding the wired spine only.
            FlowSpec(source=0, destination=1, variant="newreno",
                     label="wired-spine"),
        ]
        # Break the wireless link in the middle of cell 0 mid-run.
        timeline = [ScenarioEvent.link_down(8.0, 3, tail0)]
        scenario = backbone_scenario(routing="aodv", flows=flows,
                                     timeline=timeline, packet_target=4000,
                                     max_sim_time=20.0)
        result = scenario.run()
        rerrs = scenario.metrics.total("route.node*.rerrs_sent")
        assert rerrs >= 1
        wireless_flow, wired_flow = result.flows
        # The wired spine never noticed the wireless break.
        assert wired_flow.delivered_packets > wireless_flow.delivered_packets
        assert wired_flow.delivered_packets > 100
        assert scenario.nodes[0].routing.stats.link_failures == 0


class TestWiredTimelineEvents:
    def test_link_down_on_wired_segment_blocks_the_spine(self):
        timeline = [ScenarioEvent.link_down(5.0, 0, 1)]
        scenario = backbone_scenario(timeline=timeline, packet_target=4000,
                                     max_sim_time=12.0)
        baseline = backbone_scenario(packet_target=4000, max_sim_time=12.0)
        result = scenario.run()
        baseline_result = baseline.run()
        # The event landed on the bus, not the wireless channel.
        assert scenario.buses[0].is_link_blocked(0, 1)
        assert result.metrics["scenario.timeline.link-down"] == 1
        # Cross-cell flows stall once the spine is cut.
        assert result.delivered_packets < baseline_result.delivered_packets

    def test_link_up_restores_the_spine(self):
        timeline = [ScenarioEvent.link_down(3.0, 0, 1),
                    ScenarioEvent.link_up(6.0, 0, 1)]
        scenario = backbone_scenario(timeline=timeline, packet_target=4000,
                                     max_sim_time=15.0)
        result = scenario.run()
        assert not scenario.buses[0].is_link_blocked(0, 1)
        # Transport-level retransmission recovers after the outage.
        assert all(flow.delivered_packets > 0 for flow in result.flows)


def wired_chain_spec(timeline):
    """A 2-hop all-wired chain with static routes."""
    return ScenarioSpec(
        topology=wired_only(chain_topology(hops=2)),
        config=ScenarioConfig(variant="newreno", routing="static",
                              packet_target=50, max_sim_time=30.0, seed=3),
        timeline=tuple(timeline))


def stub_network_spec(timeline):
    """Node 0 is wired-only, bridged by gateway 1 onto the radio chain 1-2-3."""
    chain = chain_topology(hops=3)
    topology = Topology(
        name="stub-network", positions=chain.positions, flows=chain.flows,
        link_plan=LinkPlan(
            wireless_nodes=(1, 2, 3),
            segments=(WiredSegmentSpec(nodes=(0, 1)),),
            gateways=(1,),
            subnet_of={1: 0, 2: 0, 3: 0},
            gateway_of_subnet={0: 1},
        ))
    return ScenarioSpec(
        topology=topology,
        config=ScenarioConfig(variant="newreno", routing="static",
                              packet_target=50, max_sim_time=30.0, seed=3),
        timeline=tuple(timeline))


class TestTimelineEventsTheLinkPlanCannotActOn:
    """Rejected when the scenario is built, not at the event's time mid-run."""

    @pytest.mark.parametrize("event", [ScenarioEvent.node_down(20.0, 2),
                                       ScenarioEvent.node_up(20.0, 1)])
    def test_node_event_on_a_node_without_a_radio(self, event):
        with pytest.raises(ConfigurationError, match="has no radio"):
            Scenario(wired_chain_spec([event]))

    @pytest.mark.parametrize("event", [ScenarioEvent.link_down(20.0, 0, 2),
                                       ScenarioEvent.link_up(20.0, 3, 0)])
    def test_link_event_between_a_wired_only_node_and_a_radio(self, event):
        with pytest.raises(ConfigurationError,
                           match="share neither a bus nor radios"):
            Scenario(stub_network_spec([event]))

    def test_events_the_plan_can_act_on_still_build(self):
        Scenario(stub_network_spec([ScenarioEvent.link_down(1.0, 0, 1),
                                    ScenarioEvent.link_down(1.0, 1, 3),
                                    ScenarioEvent.node_down(1.0, 2)]))
        Scenario(wired_chain_spec([ScenarioEvent.link_down(1.0, 0, 2)]))


class TestPureWiredScenarios:
    def test_wired_link_layer_delivers_with_static_routing(self):
        config = ScenarioConfig(variant="newreno", routing="static",
                                packet_target=100, max_sim_time=30.0, seed=3)
        scenario = Scenario(ScenarioSpec(
            topology=wired_only(chain_topology(hops=3)), config=config))
        assert all(node.radio is None and node.mac is None
                   and node.wired_port.queue is node.queue
                   for node in scenario.nodes.values())
        result = scenario.run()
        assert result.reached_packet_target
        assert result.metrics["link.wired.bus0.frames_delivered"] > 0
        assert result.metrics["link.wired.node0.frames_sent"] > 0
        assert 0.0 < result.metrics["link.wired.bus0.utilization"] <= 1.0
        # No radios: the energy report is empty rather than wrong.
        assert result.energy.total_joules == 0.0

    def test_wired_link_layer_delivers_with_aodv(self):
        # AODV control (RREQ broadcast, RREP unicast) rides the bus too.
        config = ScenarioConfig(variant="newreno", routing="aodv",
                                packet_target=50, max_sim_time=30.0, seed=3)
        scenario = Scenario(ScenarioSpec(
            topology=wired_only(chain_topology(hops=2)), config=config))
        result = scenario.run()
        assert result.reached_packet_target

    def test_backbone_preset_runs_and_exposes_wired_metrics(self):
        scenario = build_named_scenario("backbone2x7-newreno",
                                        packet_target=60, max_sim_time=60.0)
        result = scenario.run()
        assert result.delivered_packets > 0
        assert result.metrics["link.wired.bus0.frames_delivered"] > 0
