"""Tests for link plans: their validation and the topology that carries one."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import Scenario
from repro.experiments.workload import FlowSpec, ScenarioSpec
from repro.link.plan import LinkPlan, WiredSegmentSpec
from repro.routing.static import StaticRouting
from repro.topology import (
    Topology,
    all_next_hop_tables,
    backbone_topology,
    chain_topology,
    grid_topology,
    random_topology,
)
from tests.helpers import wired_only


class TestTopologyPlan:
    def test_no_plan_puts_every_node_on_the_radio_plane(self):
        topology = chain_topology(hops=3)
        assert topology.link_plan is None
        scenario = Scenario(ScenarioSpec(topology=topology))
        assert scenario.link_plan.wireless_nodes == tuple(topology.node_ids)
        assert scenario.link_plan.segments == ()
        assert scenario.buses == []
        assert all(node.radio is not None for node in scenario.nodes.values())

    def test_node_on_neither_plane_is_refused(self):
        topology = replace(chain_topology(hops=2),
                           link_plan=LinkPlan(wireless_nodes=(0, 1)))
        with pytest.raises(ConfigurationError, match="node 2 needs a channel"):
            Scenario(ScenarioSpec(topology=topology,
                                  config=ScenarioConfig(routing="static")))

    def test_plan_segment_parameters_reach_the_bus(self):
        topology = replace(chain_topology(hops=3), link_plan=LinkPlan(
            segments=(WiredSegmentSpec(nodes=(0, 1, 2, 3), rate_mbps=100.0,
                                       propagation_delay=1e-6),)))
        (bus,) = Scenario(ScenarioSpec(topology=topology)).buses
        assert bus.rate_mbps == 100.0
        assert bus.propagation_delay == 1e-6

    def test_backbone_returns_a_plain_topology_carrying_its_plan(self):
        topology = backbone_topology(cells=3, cell_hops=2)
        assert type(topology) is Topology
        plan = topology.link_plan
        assert plan.gateways == (0, 1, 2)
        (spine,) = plan.segments
        assert spine.nodes == (0, 1, 2)
        assert plan.wireless_nodes == tuple(topology.node_ids)

    @pytest.mark.parametrize("topology", [
        chain_topology(hops=7),
        grid_topology(),
        # Above 128 nodes the graph is built through the grid index.
        random_topology(node_count=150, area=(2200.0, 1200.0), seed=5),
    ], ids=lambda topology: topology.name)
    def test_static_tables_without_a_plan_follow_the_topology_graph(
            self, topology):
        scenario = Scenario(ScenarioSpec(
            topology=topology, config=ScenarioConfig(routing="static")))
        expected = all_next_hop_tables(
            topology.connectivity_graph(scenario.channel.propagation))
        for node_id, node in scenario.nodes.items():
            assert isinstance(node.routing, StaticRouting)
            assert node.routing._next_hops == expected[node_id]
            assert node.routing._default_next_hop is None


class TestMobilityNeedsRadios:
    def test_mobility_on_an_all_wired_plan_is_refused(self):
        with pytest.raises(ConfigurationError,
                           match="moves radios.*gives node 0 none"):
            ScenarioSpec(topology=wired_only(chain_topology(hops=2)),
                         config=ScenarioConfig(mobility="random-waypoint"))

    def test_mobility_on_a_plan_with_one_wired_only_node_is_refused(self):
        chain = chain_topology(hops=3)
        stub = replace(chain, link_plan=LinkPlan(
            wireless_nodes=(1, 2, 3),
            segments=(WiredSegmentSpec(nodes=(0, 1)),),
            gateways=(1,)))
        with pytest.raises(ConfigurationError, match="gives node 0 none"):
            ScenarioSpec(topology=stub,
                         config=ScenarioConfig(mobility="random-walk"))

    def test_all_wired_plan_without_mobility_is_accepted(self):
        ScenarioSpec(topology=wired_only(chain_topology(hops=2)))

    def test_backbone_with_mobility_is_accepted(self):
        # Every backbone node, gateways included, has a radio.  The flow
        # stays inside cell 0: AODV (the default) cannot cross the spine.
        spec = ScenarioSpec(topology=backbone_topology(cells=2, cell_hops=2),
                            workload=(FlowSpec(2, 3),),
                            config=ScenarioConfig(mobility="random-waypoint"))
        assert Scenario(spec).mobility is not None


def stub_plan() -> LinkPlan:
    """Node 0 is wired-only, bridged by gateway 1 onto the radio chain 1-2-3."""
    return LinkPlan(wireless_nodes=(1, 2, 3),
                    segments=(WiredSegmentSpec(nodes=(0, 1)),),
                    gateways=(1,), subnet_of={1: 0, 2: 0, 3: 0},
                    gateway_of_subnet={0: 1})


class TestWiredNextHops:
    def test_backbone_2x7(self):
        plan = backbone_topology(cells=2, cell_hops=7).link_plan
        assert plan.wired_next_hops(0) == {1: 1, **dict.fromkeys(range(9, 16), 1)}
        assert plan.wired_next_hops(1) == {0: 0, **dict.fromkeys(range(2, 9), 0)}

    def test_three_cell_backbone(self):
        # Gateways 0-2; cell i is nodes 3 + 2i and 4 + 2i.
        plan = backbone_topology(cells=3, cell_hops=2).link_plan
        assert plan.wired_next_hops(0) == {1: 1, 2: 2, 5: 1, 6: 1, 7: 2, 8: 2}
        assert plan.wired_next_hops(1) == {0: 0, 2: 2, 3: 0, 4: 0, 7: 2, 8: 2}
        assert plan.wired_next_hops(2) == {0: 0, 1: 1, 3: 0, 4: 0, 5: 1, 6: 1}

    def test_stub_network(self):
        plan = stub_plan()
        # The wired-only node reaches the whole radio chain via gateway 1.
        assert plan.wired_next_hops(0) == {1: 1, 2: 1, 3: 1}
        assert plan.wired_next_hops(1) == {0: 0}

    def test_all_wired_plan_is_directly_connected(self):
        plan = wired_only(chain_topology(hops=2)).link_plan
        assert plan.wired_next_hops(1) == {0: 0, 2: 2}

    def test_node_on_no_segment_has_no_wired_table(self):
        with pytest.raises(ConfigurationError, match="not attached"):
            stub_plan().wired_next_hops(2)


class TestAodvAcrossPlanes:
    """AODV route requests never cross a wired port, so ``ScenarioSpec``
    refuses a flow AODV could not carry rather than run it to
    ``max_sim_time`` with nothing delivered."""

    def aodv_spec(self, topology, *flows, routing="aodv"):
        workload = tuple(FlowSpec(*flow) for flow in flows) if flows else None
        return ScenarioSpec(topology=topology, workload=workload,
                            config=ScenarioConfig(routing=routing,
                                                  packet_target=15,
                                                  max_sim_time=200.0))

    def test_backbone_default_flows_are_refused(self):
        with pytest.raises(ConfigurationError, match="routing=static"):
            self.aodv_spec(backbone_topology(cells=2, cell_hops=1))

    @pytest.mark.parametrize("flow", [(2, 1), (1, 2), (0, 3), (2, 3)])
    def test_either_endpoint_outside_its_subnet_is_refused(self, flow):
        # Cell 0 is {0, 2}, cell 1 is {1, 3}: the member's replies (TCP
        # ACKs included) would have to cross the spine too.
        with pytest.raises(ConfigurationError, match="wireless subnet"):
            self.aodv_spec(backbone_topology(cells=2, cell_hops=1), flow)

    def test_wired_only_endpoint_is_refused(self):
        chain = chain_topology(hops=3)
        stub = replace(chain, link_plan=stub_plan())
        with pytest.raises(ConfigurationError, match="node 3"):
            self.aodv_spec(stub, (0, 3))

    @pytest.mark.parametrize("flow", [(2, 4), (4, 0), (0, 4), (0, 1)])
    def test_intra_cell_and_gateway_to_gateway_flows_run(self, flow):
        self.aodv_spec(backbone_topology(cells=2, cell_hops=3), flow)

    def test_all_wired_plan_runs_aodv(self):
        self.aodv_spec(wired_only(chain_topology(hops=3)))

    def test_static_routing_crosses_the_spine(self):
        self.aodv_spec(backbone_topology(cells=2, cell_hops=1), routing="static")


class TestLinkPlanValidation:
    def test_segment_needs_two_nodes(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            WiredSegmentSpec(nodes=(1,))

    def test_gateway_must_be_on_both_planes(self):
        segment = WiredSegmentSpec(nodes=(0, 1))
        with pytest.raises(ConfigurationError, match="no wireless interface"):
            LinkPlan(wireless_nodes=(2, 3), segments=(segment,), gateways=(0,))
        with pytest.raises(ConfigurationError, match="not attached to any"):
            LinkPlan(wireless_nodes=(2, 3), segments=(segment,), gateways=(2,))

    def test_dual_plane_node_must_be_a_gateway(self):
        segment = WiredSegmentSpec(nodes=(0, 1))
        with pytest.raises(ConfigurationError, match="not a gateway"):
            LinkPlan(wireless_nodes=(0, 2), segments=(segment,))

    def test_node_on_one_segment_only(self):
        with pytest.raises(ConfigurationError, match="more than one"):
            LinkPlan(segments=(WiredSegmentSpec(nodes=(0, 1)),
                               WiredSegmentSpec(nodes=(1, 2))))
